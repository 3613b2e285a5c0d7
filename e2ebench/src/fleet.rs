//! `fleet_nested`: nested two-lock sections over a shared `ImmuneMutex`
//! pool, a seeded minority in inverted order. Set-up replays the process's
//! own history log and imports an antibody pack holding the inversion
//! signatures plus many foreign antibodies for sites this process never
//! runs; those stay quarantined, so every acquisition takes the engine
//! path and the exchange gate.

use crate::gen::{self, Rng};
use crate::layers;
use crate::report::{EndToEnd, Outcome};
use crate::threads::{self, ClosedLoop, LoopResult, THREADS};
use crate::trace::{Layer, Tracer};
use dimmunix_core::{HistoryLog, LockId, Signature, SignatureKind, SignaturePair, Stats};
use dimmunix_exchange::Pack;
use dimmunix_rt::{AcquisitionSite, DeadlockPolicy, DimmunixRuntime, ExchangeOptions, ImmuneMutex};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::busy_work;

const LOCKS: usize = 16;
/// Distinct code paths per order; every canonical/inverted path pair is
/// one known inversion signature.
const PATHS: usize = 4;
const SCHEDULE_LEN: usize = 8192;
const SAMPLE_EVERY: u64 = 4;
/// Share of ops taking the inverted order.
const INVERT_SHARE: (u64, u64) = (1, 1024);
const WORK: u64 = 4;
const ROUND_OPS: usize = 4_000;
const FOREIGN_ANTIBODIES: usize = 1_000;
const WARM_OPS: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Op {
    /// Lower and higher pool index: canonical order is `lo` then `hi`.
    lo: u16,
    hi: u16,
    path: u8,
    inverted: bool,
    sampled: bool,
}

impl Op {
    fn order(&self) -> (usize, usize) {
        if self.inverted {
            (self.hi as usize, self.lo as usize)
        } else {
            (self.lo as usize, self.hi as usize)
        }
    }
}

struct Sites {
    canon: Vec<(AcquisitionSite, AcquisitionSite)>,
    inverted: Vec<(AcquisitionSite, AcquisitionSite)>,
}

impl Sites {
    fn of(&self, op: &Op) -> (AcquisitionSite, AcquisitionSite) {
        if op.inverted {
            self.inverted[op.path as usize]
        } else {
            self.canon[op.path as usize]
        }
    }
}

struct Immune {
    rt: Arc<DimmunixRuntime>,
    locks: Vec<ImmuneMutex<u64>>,
    traced: Vec<(LockId, Mutex<u64>)>,
}

struct Fleet {
    sites: Sites,
    schedules: Vec<Vec<Op>>,
    immune: Immune,
    bare: Vec<Mutex<u64>>,
}

/// The generated on-disk inputs: the process's own history log and the
/// fleet pack.
struct Files {
    log: PathBuf,
    pack: PathBuf,
    inversions: usize,
}

fn generate(rng: &mut Rng, dir: &Path) -> (Sites, Vec<Vec<Op>>, Files) {
    let pair = |rng: &mut Rng, scope: &str, i: usize| {
        (
            gen::site(rng, &format!("{scope}.outer"), i, "fleet.rs"),
            gen::site(rng, &format!("{scope}.inner"), i, "fleet.rs"),
        )
    };
    let canon: Vec<_> = (0..PATHS)
        .map(|i| pair(rng, "fleet.canonical", i))
        .collect();
    let inverted: Vec<_> = (0..PATHS).map(|i| pair(rng, "fleet.inverted", i)).collect();
    let sites = Sites { canon, inverted };

    let schedules = (0..THREADS)
        .map(|_| {
            let mut r = rng.fork();
            (0..SCHEDULE_LEN)
                .map(|_| {
                    let a = r.below(LOCKS);
                    let b = (a + 1 + r.below(LOCKS - 1)) % LOCKS;
                    Op {
                        lo: a.min(b) as u16,
                        hi: a.max(b) as u16,
                        path: r.below(PATHS) as u8,
                        inverted: r.chance(INVERT_SHARE.0, INVERT_SHARE.1),
                        sampled: r.chance(1, SAMPLE_EVERY),
                    }
                })
                .collect()
        })
        .collect();

    let stack_pair = |(o, i): (AcquisitionSite, AcquisitionSite)| {
        SignaturePair::new(o.to_call_stack(), i.to_call_stack())
    };
    let mut inversions = Vec::new();
    for c in &sites.canon {
        for v in &sites.inverted {
            inversions.push(Signature::new(
                SignatureKind::Deadlock,
                vec![stack_pair(*c), stack_pair(*v)],
            ));
        }
    }
    let files = Files {
        log: dir.join("fleet.history"),
        pack: dir.join("fleet.pack"),
        inversions: inversions.len(),
    };
    let log = HistoryLog::new(&files.log).with_sync(false);
    let mut pack = Pack::new("fleet-peer");
    for sig in &inversions {
        log.append(sig).expect("write the generated history log");
        pack.add(sig.clone(), 1 + rng.below(4) as u64);
    }
    for k in 0..FOREIGN_ANTIBODIES {
        let foreign = [0, 1].map(|side| {
            let scope = format!("peer.service{k}.side{side}");
            stack_pair(pair(rng, &scope, k))
        });
        pack.add(
            Signature::new(SignatureKind::Deadlock, foreign.to_vec()),
            1 + rng.below(4) as u64,
        );
    }
    pack.save(&files.pack).expect("write the generated pack");
    (sites, schedules, files)
}

fn build(files: &Files) -> Arc<DimmunixRuntime> {
    DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .history_path(&files.log)
        .exchange(ExchangeOptions::new("e2ebench").import(&files.pack))
        .build()
}

/// Set-up: runtime construction (log replay and pack import), lock
/// allocation, and a short warm-up on thread 0 (counters zeroed after).
fn setup(files: &Files, sites: &Sites, schedule: &[Op], traced: bool) -> Immune {
    let rt = build(files);
    let locks: Vec<_> = (0..LOCKS).map(|_| ImmuneMutex::new_in(&rt, 0u64)).collect();
    let traced = if traced {
        (0..LOCKS)
            .map(|_| (rt.allocate_lock(), Mutex::new(0)))
            .collect()
    } else {
        Vec::new()
    };
    let im = Immune { rt, locks, traced };
    for op in &schedule[..WARM_OPS] {
        assert!(run_immune(&im, sites, op), "warm-up section refused");
    }
    for l in &im.locks {
        *l.lock_at(sites.canon[0].0).expect("hold-free") = 0;
    }
    im
}

fn run_immune(im: &Immune, sites: &Sites, op: &Op) -> bool {
    let (first, second) = op.order();
    let (outer, inner) = sites.of(op);
    let Ok(mut g1) = im.locks[first].lock_at(outer) else {
        return false;
    };
    let Ok(mut g2) = im.locks[second].lock_at(inner) else {
        return false;
    };
    *g1 += 1;
    *g2 += 1;
    busy_work(WORK);
    true
}

impl ClosedLoop for Fleet {
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

    /// The bare twin takes inverted ops in canonical order: plain mutexes
    /// have no immunity, so the inverted order would deadlock them.
    fn bare(&self, thread: usize, index: usize) {
        let op = &self.schedules[thread][index];
        std::hint::black_box(self.sites.of(op));
        let mut g1 = self.bare[op.lo as usize]
            .lock()
            .expect("bare mutex poisoned");
        let mut g2 = self.bare[op.hi as usize]
            .lock()
            .expect("bare mutex poisoned");
        *g1 += 1;
        *g2 += 1;
        busy_work(WORK);
    }

    fn traced(&self, thread: usize, index: usize, tr: &mut Tracer, op_id: u64) -> bool {
        let op = &self.schedules[thread][index];
        let (first, second) = op.order();
        let (outer, inner) = self.sites.of(op);
        let rt = &self.immune.rt;
        let (id1, m1) = &self.immune.traced[first];
        let (id2, m2) = &self.immune.traced[second];
        let start = tr.now();
        let parent = tr.open(Layer::Op, start, op_id, u32::MAX);
        let pid = parent.id();
        let ok = threads::traced_section(
            tr,
            rt,
            *id1,
            outer,
            false,
            pid,
            op_id,
            || m1.lock().expect("traced mutex poisoned"),
            |g1, tr| {
                threads::traced_section(
                    tr,
                    rt,
                    *id2,
                    inner,
                    false,
                    pid,
                    op_id,
                    || m2.lock().expect("traced mutex poisoned"),
                    |g2, _| {
                        **g1 += 1;
                        **g2 += 1;
                        busy_work(WORK);
                        true
                    },
                )
            },
        );
        let end = tr.now();
        tr.close(parent, end);
        ok
    }

    fn stats(&self) -> Stats {
        self.immune.rt.stats()
    }
}

impl Fleet {
    fn expected(&self, mode: usize, result: &LoopResult) -> Vec<u64> {
        let mut total = vec![0u64; LOCKS];
        for (thread, schedule) in self.schedules.iter().enumerate() {
            let w = threads::expected_writes(
                schedule.len(),
                result.executed[thread][mode],
                LOCKS,
                |i, acc| {
                    acc[schedule[i].lo as usize] += 1;
                    acc[schedule[i].hi as usize] += 1;
                },
            );
            for i in 0..LOCKS {
                total[i] += w[i];
            }
        }
        total
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, dir: &Path) -> (Outcome, Vec<Tracer>) {
    let mut rng = Rng::new(seed);
    let (sites, schedules, files) = generate(&mut rng, dir);
    let epoch = Instant::now();
    let mut setup_tracer = Tracer::new(epoch, THREADS, seed);

    // One set-up for the measured runtime, then one more after every round
    // pair, so the set-up median samples the whole run. The traced run
    // instead times each set-up layer alone around its public call.
    let t = Instant::now();
    let immune = setup(&files, &sites, &schedules[0], traced);
    let mut setup_secs = vec![t.elapsed().as_secs_f64()];
    let w = Fleet {
        sites,
        schedules,
        immune,
        bare: (0..LOCKS).map(|_| Mutex::new(0)).collect(),
    };
    let result = threads::drive(&w, seconds, traced, epoch, seed, || {
        if !traced {
            let t = Instant::now();
            let im = setup(&files, &w.sites, &w.schedules[0], false);
            setup_secs.push(t.elapsed().as_secs_f64());
            drop(im);
            return;
        }
        let t0 = setup_tracer.now();
        let rt = build(&files);
        let t1 = setup_tracer.now();
        let replay = HistoryLog::new(&files.log).replay();
        let t2 = setup_tracer.now();
        let pack = Pack::load_or_quarantine(&files.pack);
        let t3 = setup_tracer.now();
        setup_tracer.leaf(Layer::Build, t0, t1, u32::MAX, 0);
        setup_tracer.leaf(Layer::HistoryLoad, t1, t2, u32::MAX, 0);
        setup_tracer.leaf(Layer::PackLoad, t2, t3, u32::MAX, 0);
        assert!(replay.is_ok() && pack.is_ok(), "generated inputs must load");
        drop(rt);
    });
    let e2e = EndToEnd {
        setup_secs,
        ..EndToEnd::default()
    };
    let mut out = Outcome {
        shard_count: Some(w.immune.rt.shard_count()),
        ..Outcome::default()
    };
    check(&w, &files, &result, traced, &mut out);

    threads::report(
        &mut out,
        &result,
        e2e,
        ROUND_OPS,
        w.immune.rt.memory_footprint_bytes(),
    );
    if traced {
        let ex = w.immune.rt.exchange_stats().unwrap_or_default();
        let median_s = |layer| layers::span_percentile(&setup_tracer, layer, 0.5) / 1e9;
        let m = &mut out.metrics;
        m.insert(
            "core.history.signatures",
            w.immune.rt.history().len() as f64,
        );
        m.insert("core.history.log_bytes", file_len(&files.log));
        m.insert("core.history.load_s", median_s(Layer::HistoryLoad));
        m.insert("exchange.import_s", median_s(Layer::PackLoad));
        m.insert("exchange.imported", ex.imported as f64);
        m.insert("exchange.pending", ex.pending as f64);
        m.insert("exchange.activated", ex.activated as f64);
        out.samples
            .insert("setup_spans", setup_tracer.count(Layer::Build));
    }
    let mut tracers = result.tracers;
    if traced {
        tracers.push(setup_tracer);
    }
    (out, tracers)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn check(w: &Fleet, files: &Files, result: &LoopResult, traced: bool, out: &mut Outcome) {
    let checks = &mut out.checks;
    let site = w.sites.canon[0].0;
    let immune: Vec<u64> = w
        .immune
        .locks
        .iter()
        .map(|l| *l.lock_at(site).expect("hold-free"))
        .collect();
    threads::check_counters(checks, "immune pool", &immune, &w.expected(0, result));
    let (pool, mode, observed) = if traced {
        let v = w
            .immune
            .traced
            .iter()
            .map(|(_, m)| *m.lock().unwrap())
            .collect::<Vec<_>>();
        ("traced pool", 2, v)
    } else {
        let v = w
            .bare
            .iter()
            .map(|m| *m.lock().unwrap())
            .collect::<Vec<_>>();
        ("bare pool", 1, v)
    };
    threads::check_counters(checks, pool, &observed, &w.expected(mode, result));
    let stats = w.immune.rt.stats();
    checks.expect(stats.acquisitions == stats.releases, || {
        format!(
            "Stats.acquisitions {} != Stats.releases {}",
            stats.acquisitions, stats.releases
        )
    });
    checks.expect(stats.deadlocks_detected == 0, || {
        format!(
            "{} deadlocks detected on fleet_nested",
            stats.deadlocks_detected
        )
    });
    checks.expect(result.refused == 0, || {
        format!("{} sections refused", result.refused)
    });
    let replayed = w.immune.rt.recovery_report().map_or(0, |r| r.replayed);
    checks.expect(replayed == files.inversions, || {
        format!(
            "log replay restored {replayed} of {} records",
            files.inversions
        )
    });
    let ex = w.immune.rt.exchange_stats().unwrap_or_default();
    checks.expect(
        ex.imported == (files.inversions + FOREIGN_ANTIBODIES) as u64
            && ex.pending == FOREIGN_ANTIBODIES as u64
            && ex.quarantined_packs == 0,
        || format!("pack import: {ex:?}"),
    );
    // Pending foreign antibodies keep every acquisition off the lock-free
    // tier: this workload measures the locked engine and the exchange gate.
    if traced {
        let t = &result.traced_stats;
        checks.expect(t.fast_admits as f64 <= 0.01 * t.requests as f64, || {
            format!(
                "{} of {} traced requests took the lock-free tier",
                t.fast_admits, t.requests
            )
        });
    }
}
