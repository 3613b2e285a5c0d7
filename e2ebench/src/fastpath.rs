//! `fastpath_mix`: hold-free critical sections on a shared pool of
//! `ImmuneMutex` and `ImmuneRwLock`, with the paper's 256 synthetic
//! signatures in the history and none of their sites run. Tier-1
//! lock-free admission decides almost every op.

use crate::gen::{self, Rng};
use crate::report::{EndToEnd, Outcome};
use crate::threads::{self, ClosedLoop, LoopResult, THREADS};
use crate::trace::{Layer, Tracer};
use dimmunix_core::{History, LockId, Stats};
use dimmunix_rt::{AcquisitionSite, DeadlockPolicy, DimmunixRuntime, ImmuneMutex, ImmuneRwLock};
use std::hint::black_box;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use workloads::{busy_work, synthetic_history};

const MUTEXES: usize = 8;
const RWLOCKS: usize = 8;
const SITES: usize = 12;
const SCHEDULE_LEN: usize = 8192;
/// One op in `SAMPLE_EVERY` (seeded) has its latency timed.
const SAMPLE_EVERY: u64 = 64;
/// rwlock ops that write: a seeded minority.
const WRITE_SHARE: (u64, u64) = (1, 6);
/// Busy-work units inside each section.
const WORK: u64 = 4;
const ROUND_OPS: usize = 100_000;
const SYNTHETIC_SIGNATURES: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mutex,
    Read,
    Write,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    lock: u16,
    site: u16,
    sampled: bool,
}

/// The immune side: runtime, immune pools, and (traced run) the pool the
/// hook sequence is driven on by hand.
struct Immune {
    rt: Arc<DimmunixRuntime>,
    mutexes: Vec<ImmuneMutex<u64>>,
    rwlocks: Vec<ImmuneRwLock<u64>>,
    traced_mutexes: Vec<(LockId, Mutex<u64>)>,
    traced_rwlocks: Vec<(LockId, RwLock<u64>)>,
}

struct Fastpath {
    sites: Vec<AcquisitionSite>,
    schedules: Vec<Vec<Op>>,
    immune: Immune,
    bare_mutexes: Vec<Mutex<u64>>,
    bare_rwlocks: Vec<RwLock<u64>>,
}

fn generate(rng: &mut Rng) -> (Vec<AcquisitionSite>, Vec<Vec<Op>>) {
    let sites = (0..SITES)
        .map(|i| gen::site(rng, "fastpath.section", i, "fastpath.rs"))
        .collect();
    let schedules = (0..THREADS)
        .map(|_| {
            let mut r = rng.fork();
            (0..SCHEDULE_LEN)
                .map(|_| {
                    let (kind, lock) = if r.chance(1, 2) {
                        (Kind::Mutex, r.below(MUTEXES))
                    } else if r.chance(WRITE_SHARE.0, WRITE_SHARE.1) {
                        (Kind::Write, r.below(RWLOCKS))
                    } else {
                        (Kind::Read, r.below(RWLOCKS))
                    };
                    Op {
                        kind,
                        lock: lock as u16,
                        site: r.below(SITES) as u16,
                        sampled: r.chance(1, SAMPLE_EVERY),
                    }
                })
                .collect()
        })
        .collect();
    (sites, schedules)
}

/// Set-up: runtime construction with the synthetic history, lock
/// allocation, and a warm-up pass over thread 0's schedule (the protected
/// counters are zeroed afterwards).
fn setup(history: History, sites: &[AcquisitionSite], schedule: &[Op], traced: bool) -> Immune {
    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .history(history)
        .build();
    let mutexes: Vec<_> = (0..MUTEXES)
        .map(|_| ImmuneMutex::new_in(&rt, 0u64))
        .collect();
    let rwlocks: Vec<_> = (0..RWLOCKS)
        .map(|_| ImmuneRwLock::new_in(&rt, 0u64))
        .collect();
    let (traced_mutexes, traced_rwlocks) = if traced {
        (
            (0..MUTEXES)
                .map(|_| (rt.allocate_lock(), Mutex::new(0)))
                .collect(),
            (0..RWLOCKS)
                .map(|_| (rt.allocate_lock(), RwLock::new(0)))
                .collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let immune = Immune {
        rt,
        mutexes,
        rwlocks,
        traced_mutexes,
        traced_rwlocks,
    };
    for op in schedule {
        assert!(
            run_immune(&immune, sites, op),
            "warm-up refused a hold-free section"
        );
    }
    let site = sites[0];
    for m in &immune.mutexes {
        *m.lock_at(site).expect("hold-free") = 0;
    }
    for l in &immune.rwlocks {
        *l.write_at(site).expect("hold-free") = 0;
    }
    immune
}

fn run_immune(im: &Immune, sites: &[AcquisitionSite], op: &Op) -> bool {
    let site = sites[op.site as usize];
    let lock = op.lock as usize;
    match op.kind {
        Kind::Mutex => match im.mutexes[lock].lock_at(site) {
            Ok(mut g) => {
                *g += 1;
                busy_work(WORK);
                true
            }
            Err(_) => false,
        },
        Kind::Read => match im.rwlocks[lock].read_at(site) {
            Ok(g) => {
                black_box(*g);
                busy_work(WORK);
                true
            }
            Err(_) => false,
        },
        Kind::Write => match im.rwlocks[lock].write_at(site) {
            Ok(mut g) => {
                *g += 1;
                busy_work(WORK);
                true
            }
            Err(_) => false,
        },
    }
}

impl ClosedLoop for Fastpath {
    fn round_ops(&self) -> usize {
        ROUND_OPS
    }

    fn schedule_len(&self, thread: usize) -> usize {
        self.schedules[thread].len()
    }

    fn sampled(&self, thread: usize, index: usize) -> bool {
        self.schedules[thread][index].sampled
    }

    fn immune(&self, thread: usize, index: usize) -> bool {
        run_immune(&self.immune, &self.sites, &self.schedules[thread][index])
    }

    fn bare(&self, thread: usize, index: usize) {
        let op = &self.schedules[thread][index];
        let lock = op.lock as usize;
        black_box(self.sites[op.site as usize]);
        match op.kind {
            Kind::Mutex => {
                *self.bare_mutexes[lock].lock().expect("bare mutex poisoned") += 1;
                busy_work(WORK);
            }
            Kind::Read => {
                black_box(
                    *self.bare_rwlocks[lock]
                        .read()
                        .expect("bare rwlock poisoned"),
                );
                busy_work(WORK);
            }
            Kind::Write => {
                *self.bare_rwlocks[lock]
                    .write()
                    .expect("bare rwlock poisoned") += 1;
                busy_work(WORK);
            }
        }
    }

    fn traced(&self, thread: usize, index: usize, tr: &mut Tracer, op_id: u64) -> bool {
        let op = &self.schedules[thread][index];
        let site = self.sites[op.site as usize];
        let im = &self.immune;
        let lock = op.lock as usize;
        let start = tr.now();
        let parent = tr.open(Layer::Op, start, op_id, u32::MAX);
        let ok = match op.kind {
            Kind::Mutex => {
                let (id, m) = &im.traced_mutexes[lock];
                threads::traced_section(
                    tr,
                    &im.rt,
                    *id,
                    site,
                    false,
                    parent.id(),
                    op_id,
                    || m.lock().expect("traced mutex poisoned"),
                    |g, _| {
                        **g += 1;
                        busy_work(WORK);
                        true
                    },
                )
            }
            Kind::Read => {
                let (id, l) = &im.traced_rwlocks[lock];
                threads::traced_section(
                    tr,
                    &im.rt,
                    *id,
                    site,
                    true,
                    parent.id(),
                    op_id,
                    || l.read().expect("traced rwlock poisoned"),
                    |g, _| {
                        black_box(**g);
                        busy_work(WORK);
                        true
                    },
                )
            }
            Kind::Write => {
                let (id, l) = &im.traced_rwlocks[lock];
                threads::traced_section(
                    tr,
                    &im.rt,
                    *id,
                    site,
                    false,
                    parent.id(),
                    op_id,
                    || l.write().expect("traced rwlock poisoned"),
                    |g, _| {
                        **g += 1;
                        busy_work(WORK);
                        true
                    },
                )
            }
        };
        let end = tr.now();
        tr.close(parent, end);
        ok
    }

    fn stats(&self) -> Stats {
        self.immune.rt.stats()
    }
}

impl Fastpath {
    /// Expected protected-counter values of one pool: (mutexes, rwlocks).
    fn expected(&self, mode: usize, result: &LoopResult) -> (Vec<u64>, Vec<u64>) {
        let mut mutexes = vec![0u64; MUTEXES];
        let mut rwlocks = vec![0u64; RWLOCKS];
        for (thread, schedule) in self.schedules.iter().enumerate() {
            let n = result.executed[thread][mode];
            let of = |kind: Kind| {
                move |i: usize, acc: &mut [u64]| {
                    if schedule[i].kind == kind {
                        acc[schedule[i].lock as usize] += 1;
                    }
                }
            };
            let m = threads::expected_writes(schedule.len(), n, MUTEXES, of(Kind::Mutex));
            let w = threads::expected_writes(schedule.len(), n, RWLOCKS, of(Kind::Write));
            for i in 0..MUTEXES {
                mutexes[i] += m[i];
            }
            for i in 0..RWLOCKS {
                rwlocks[i] += w[i];
            }
        }
        (mutexes, rwlocks)
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Vec<Tracer>) {
    let mut rng = Rng::new(seed);
    let (sites, schedules) = generate(&mut rng);
    let history = synthetic_history(SYNTHETIC_SIGNATURES);

    // One set-up for the measured runtime, then one more after every round
    // pair, so the set-up median samples the whole run.
    let h = history.clone();
    let t = Instant::now();
    let immune = setup(h, &sites, &schedules[0], traced);
    let mut setup_secs = vec![t.elapsed().as_secs_f64()];
    let w = Fastpath {
        sites,
        schedules,
        immune,
        bare_mutexes: (0..MUTEXES).map(|_| Mutex::new(0)).collect(),
        bare_rwlocks: (0..RWLOCKS).map(|_| RwLock::new(0)).collect(),
    };

    let epoch = Instant::now();
    let result = threads::drive(&w, seconds, traced, epoch, seed, || {
        if !traced {
            let h = history.clone();
            let t = Instant::now();
            let im = setup(h, &w.sites, &w.schedules[0], false);
            setup_secs.push(t.elapsed().as_secs_f64());
            drop(im);
        }
    });
    let e2e = EndToEnd {
        setup_secs,
        ..EndToEnd::default()
    };
    let mut out = Outcome {
        shard_count: Some(w.immune.rt.shard_count()),
        ..Outcome::default()
    };
    check(&w, &result, traced, &mut out);

    threads::report(
        &mut out,
        &result,
        e2e,
        ROUND_OPS,
        w.immune.rt.memory_footprint_bytes(),
    );
    if traced {
        out.metrics.insert(
            "core.history.signatures",
            w.immune.rt.history().len() as f64,
        );
    }
    (out, result.tracers)
}

fn check(w: &Fastpath, result: &LoopResult, traced: bool, out: &mut Outcome) {
    let checks = &mut out.checks;
    let read = |v: &[ImmuneMutex<u64>]| -> Vec<u64> {
        v.iter()
            .map(|m| *m.lock_at(w.sites[0]).expect("hold-free"))
            .collect()
    };
    let read_rw = |v: &[ImmuneRwLock<u64>]| -> Vec<u64> {
        v.iter()
            .map(|l| *l.read_at(w.sites[0]).expect("hold-free"))
            .collect()
    };
    let (em, er) = w.expected(0, result);
    threads::check_counters(checks, "immune mutexes", &read(&w.immune.mutexes), &em);
    threads::check_counters(checks, "immune rwlocks", &read_rw(&w.immune.rwlocks), &er);
    if traced {
        let (em, er) = w.expected(2, result);
        let m: Vec<u64> = w
            .immune
            .traced_mutexes
            .iter()
            .map(|(_, m)| *m.lock().unwrap())
            .collect();
        let r: Vec<u64> = w
            .immune
            .traced_rwlocks
            .iter()
            .map(|(_, l)| *l.read().unwrap())
            .collect();
        threads::check_counters(checks, "traced mutexes", &m, &em);
        threads::check_counters(checks, "traced rwlocks", &r, &er);
    } else {
        let (em, er) = w.expected(1, result);
        let m: Vec<u64> = w.bare_mutexes.iter().map(|m| *m.lock().unwrap()).collect();
        let r: Vec<u64> = w.bare_rwlocks.iter().map(|l| *l.read().unwrap()).collect();
        threads::check_counters(checks, "bare mutexes", &m, &em);
        threads::check_counters(checks, "bare rwlocks", &r, &er);
    }
    let stats = w.immune.rt.stats();
    checks.expect(stats.acquisitions == stats.releases, || {
        format!(
            "Stats.acquisitions {} != Stats.releases {}",
            stats.acquisitions, stats.releases
        )
    });
    checks.expect(stats.deadlocks_detected == 0, || {
        format!(
            "{} deadlocks detected on fastpath_mix",
            stats.deadlocks_detected
        )
    });
    checks.expect(result.refused == 0, || {
        format!("{} sections refused", result.refused)
    });
    // The workload exists to load the lock-free tier; a section sent down
    // the locked path (say, a Bloom hit on a synthetic signature) would
    // silently measure the slow tier instead.
    if traced {
        let t = &result.traced_stats;
        checks.expect(t.fast_admits as f64 >= 0.99 * t.requests as f64, || {
            format!(
                "only {} of {} traced requests took the lock-free tier",
                t.fast_admits, t.requests
            )
        });
    }
}
