//! Lost-wake guard for the park-aware release path.
//!
//! Releases at in-history sites skip the gate wake-ups while no owner is
//! parked. That is only sound because the park count is read under the
//! home shard's lock and every park is decided under all shard locks; if a
//! wake-up were ever lost, the parked thread would sit out the gate's 50 ms
//! safety timeout, which `Stats::gate_timeouts` counts. Four OS threads run
//! seeded nested sections, a share of them in inverted order, against a
//! history naming every canonical/inverted pair, so avoidance parks and
//! wakes threads all the time. Every section must complete, no park may
//! end on the timeout, and nothing may deadlock — at one shard, two and
//! eight.

use dimmunix_core::{History, Signature, SignatureKind, SignaturePair};
use dimmunix_rt::{AcquisitionSite, DeadlockPolicy, DimmunixRuntime, ImmuneMutex, LockError};
use std::sync::{Arc, Barrier};

const THREADS: usize = 4;
const LOCKS: usize = 6;
const SECTIONS: usize = 1500;
/// One section in `INVERT_EVERY` (on average) takes the inverted order.
const INVERT_EVERY: u64 = 4;
/// Spin iterations inside each section, so the threads' sections overlap.
const WORK: u32 = 64;

const CANON: [(AcquisitionSite, AcquisitionSite); 2] = [
    (
        AcquisitionSite::new("wake.canon0.outer", "wake.rs", 1),
        AcquisitionSite::new("wake.canon0.inner", "wake.rs", 2),
    ),
    (
        AcquisitionSite::new("wake.canon1.outer", "wake.rs", 3),
        AcquisitionSite::new("wake.canon1.inner", "wake.rs", 4),
    ),
];
const INVERTED: [(AcquisitionSite, AcquisitionSite); 2] = [
    (
        AcquisitionSite::new("wake.inv0.outer", "wake.rs", 5),
        AcquisitionSite::new("wake.inv0.inner", "wake.rs", 6),
    ),
    (
        AcquisitionSite::new("wake.inv1.outer", "wake.rs", 7),
        AcquisitionSite::new("wake.inv1.inner", "wake.rs", 8),
    ),
];

/// Every canonical/inverted path pair as a known inversion signature.
fn history() -> History {
    let pair = |(outer, inner): (AcquisitionSite, AcquisitionSite)| {
        SignaturePair::new(outer.to_call_stack(), inner.to_call_stack())
    };
    let mut h = History::new();
    for c in CANON {
        for v in INVERTED {
            h.add(Signature::new(
                SignatureKind::Deadlock,
                vec![pair(c), pair(v)],
            ));
        }
    }
    h
}

/// xorshift64*: a tiny seeded generator, one stream per thread.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

/// Runs one thread's seeded sections; returns the per-lock write counts it
/// made and how many acquisitions it had to retry after a refusal.
fn worker(locks: &[ImmuneMutex<u64>], start: &Barrier, seed: u64) -> (Vec<u64>, u64) {
    let mut rng = Rng(seed);
    start.wait();
    let mut writes = vec![0u64; LOCKS];
    let mut retries = 0;
    for _ in 0..SECTIONS {
        let a = rng.below(LOCKS as u64) as usize;
        let b = (a + 1 + rng.below(LOCKS as u64 - 1) as usize) % LOCKS;
        let (lo, hi) = (a.min(b), a.max(b));
        let path = rng.below(2) as usize;
        let inverted = rng.below(INVERT_EVERY) == 0;
        let ((first, second), (outer, inner)) = if inverted {
            ((hi, lo), INVERTED[path])
        } else {
            ((lo, hi), CANON[path])
        };
        loop {
            let mut g1 = match locks[first].lock_at(outer) {
                Ok(g) => g,
                Err(LockError::WouldDeadlock { .. }) => {
                    retries += 1;
                    continue;
                }
                Err(e) => panic!("unexpected lock error: {e}"),
            };
            let mut g2 = match locks[second].lock_at(inner) {
                Ok(g) => g,
                Err(LockError::WouldDeadlock { .. }) => {
                    retries += 1;
                    continue;
                }
                Err(e) => panic!("unexpected lock error: {e}"),
            };
            *g1 += 1;
            *g2 += 1;
            for _ in 0..WORK {
                std::hint::spin_loop();
            }
            writes[first] += 1;
            writes[second] += 1;
            break;
        }
    }
    (writes, retries)
}

fn run(shards: usize, seed: u64) {
    let rt = DimmunixRuntime::builder()
        .shards(shards)
        .deadlock_policy(DeadlockPolicy::Error)
        .history(history())
        .build();
    let locks: Arc<Vec<ImmuneMutex<u64>>> =
        Arc::new((0..LOCKS).map(|_| ImmuneMutex::new_in(&rt, 0)).collect());
    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let locks = Arc::clone(&locks);
            let start = Arc::clone(&start);
            let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (t as u64 + 1);
            std::thread::spawn(move || worker(&locks, &start, seed))
        })
        .collect();
    let mut expected = vec![0u64; LOCKS];
    for h in handles {
        let (writes, _retries) = h.join().expect("worker panicked");
        for (e, w) in expected.iter_mut().zip(writes) {
            *e += w;
        }
    }
    let observed: Vec<u64> = locks.iter().map(|l| *l.lock().unwrap()).collect();
    assert_eq!(observed, expected, "shards={shards}: a section was lost");
    let stats = rt.stats();
    assert!(
        stats.yields > 0,
        "shards={shards}: avoidance never parked: {stats}"
    );
    assert_eq!(
        stats.gate_timeouts, 0,
        "shards={shards}: parks ended on the safety timeout (lost wake-ups): {stats}"
    );
    assert_eq!(stats.deadlocks_detected, 0, "shards={shards}: {stats}");
    assert_eq!(
        stats.acquisitions, stats.releases,
        "shards={shards}: {stats}"
    );
}

#[test]
fn parks_are_always_woken_at_one_shard() {
    run(1, 11);
}

#[test]
fn parks_are_always_woken_at_two_shards() {
    run(2, 22);
}

#[test]
fn parks_are_always_woken_at_eight_shards() {
    run(8, 88);
}
