//! `async_inversions`: about 10k request tasks on the deterministic
//! `asyncio::Executor`, each fanning out over a seeded pair of shared async
//! mutexes (the first held across an `.await`) and fanning in through one
//! accounting lock; a seeded share inverts its pair. The history starts
//! empty and is persisted to an on-disk log with sync on, so detection,
//! refusal back-out and the fsynced append run inside the measured region.
//!
//! Each round pair runs a freshly seeded request plan, on a fresh runtime
//! and log for each side: the learn-then-avoid story, once per round. The
//! learning counts (refusals, signatures, log bytes) are therefore
//! per-round medians, not counts that repeat exactly.

use crate::gen::{self, Rng};
use crate::layers;
use crate::report::{EndToEnd, Outcome};
use crate::stats::{median, median_ratio};
use crate::trace::{Layer, Tracer};
use dimmunix_core::{HistoryLog, Stats};
use dimmunix_rt::asyncio::{yield_now, Executor, Mutex};
use dimmunix_rt::{AcquisitionSite, DeadlockPolicy, DimmunixRuntime, LockError};
use std::cell::RefCell;
use std::future::Future;
use std::path::Path;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};
use workloads::{busy_work, BareMutex};

const TASKS: usize = 10_000;
/// Simulated workers of the executor (all on one OS thread).
const WORKERS: usize = 4;
const RESOURCES: usize = 32;
const INVERT_SHARE: (u64, u64) = (1, 40);
/// `.await` points while holding the first lock of the pair.
const HOLD_YIELDS: usize = 1;
const WORK: u64 = 16;
const MIN_PAIRS: usize = 3;

#[derive(Debug, Clone, Copy)]
struct Sites {
    canon: (AcquisitionSite, AcquisitionSite),
    inverted: (AcquisitionSite, AcquisitionSite),
    retry: (AcquisitionSite, AcquisitionSite),
    stats: AcquisitionSite,
    spawn: AcquisitionSite,
}

#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Acquisition order of the pair.
    first: usize,
    second: usize,
    inverted: bool,
}

fn generate_sites(rng: &mut Rng) -> Sites {
    let mut s = |name: &str| gen::site(rng, name, 0, "server.rs");
    Sites {
        canon: (s("server.canonical.first"), s("server.canonical.second")),
        inverted: (s("server.inverted.first"), s("server.inverted.second")),
        retry: (s("server.retry.first"), s("server.retry.second")),
        stats: s("server.stats"),
        spawn: s("server.accept"),
    }
}

/// One round's request plan: a seeded resource pair per request, a seeded
/// share inverted.
fn generate_plans(rng: &mut Rng) -> Vec<Plan> {
    (0..TASKS)
        .map(|_| {
            let a = rng.below(RESOURCES);
            let b = (a + 1 + rng.below(RESOURCES - 1)) % RESOURCES;
            let (lo, hi) = (a.min(b), a.max(b));
            let inverted = rng.chance(INVERT_SHARE.0, INVERT_SHARE.1);
            let (first, second) = if inverted { (hi, lo) } else { (lo, hi) };
            Plan {
                first,
                second,
                inverted,
            }
        })
        .collect()
}

/// Writes a plan makes to each resource, then to the accounting lock.
fn expected_writes(plans: &[Plan]) -> Vec<u64> {
    let mut expected = vec![0u64; RESOURCES + 1];
    for p in plans {
        expected[p.first] += 1;
        expected[p.second] += 1;
    }
    expected[RESOURCES] = plans.len() as u64;
    expected
}

#[derive(Debug, Default)]
struct Counters {
    refusals: u64,
    refused_requests: u64,
    pending_polls: u64,
    latencies_ns: Vec<u64>,
}

/// Per-request context of the lock-future wrapper.
#[derive(Clone)]
struct Ctx {
    tracer: Option<Rc<RefCell<Tracer>>>,
    counters: Rc<RefCell<Counters>>,
    parent: u32,
    op: u64,
}

/// Counts every poll of an `asyncio` lock future and, in the traced run,
/// records a span around it.
struct Timed<F> {
    inner: F,
    ctx: Ctx,
}

impl<F, T> Future for Timed<F>
where
    F: Future<Output = Result<T, LockError>> + Unpin,
{
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let Some(tracer) = &this.ctx.tracer else {
            let r = Pin::new(&mut this.inner).poll(cx);
            let mut c = this.ctx.counters.borrow_mut();
            c.pending_polls += u64::from(r.is_pending());
            return r;
        };
        let t0 = tracer.borrow().now();
        let r = Pin::new(&mut this.inner).poll(cx);
        let mut tr = tracer.borrow_mut();
        let t1 = tr.now();
        tr.leaf(Layer::Poll, t0, t1, this.ctx.parent, this.ctx.op);
        if matches!(r, Poll::Ready(Err(_))) {
            tr.note(Layer::DetectPoll, t1 - t0);
        }
        let mut c = this.ctx.counters.borrow_mut();
        c.pending_polls += u64::from(r.is_pending());
        r
    }
}

fn timed<F>(inner: F, ctx: &Ctx) -> Timed<F> {
    Timed {
        inner,
        ctx: ctx.clone(),
    }
}

/// One request on the immune locks: refused pairs back off and retry in
/// canonical order.
async fn request(
    plan: Plan,
    sites: Sites,
    res: Rc<Vec<Mutex<u64>>>,
    stats: Rc<Mutex<u64>>,
    mut ctx: Ctx,
) {
    let started = Instant::now();
    let span = ctx.tracer.as_ref().map(|t| {
        let mut t = t.borrow_mut();
        let now = t.now();
        t.open(Layer::Op, now, ctx.op, u32::MAX)
    });
    ctx.parent = span.map_or(u32::MAX, |s| s.id());
    let (first_site, second_site) = if plan.inverted {
        sites.inverted
    } else {
        sites.canon
    };
    let mut refusals = 0u64;
    let mut pair = None;
    {
        let g1 = timed(res[plan.first].lock_at(first_site), &ctx)
            .await
            .expect("an opening acquisition holds nothing and cannot close a cycle");
        for _ in 0..HOLD_YIELDS {
            yield_now().await;
        }
        match timed(res[plan.second].lock_at(second_site), &ctx).await {
            Ok(g2) => pair = Some((g1, g2)),
            Err(_) => {
                refusals += 1;
                drop(g1);
            }
        }
    }
    let (mut g1, mut g2) = match pair {
        Some(p) => p,
        None => loop {
            yield_now().await;
            let (lo, hi) = (plan.first.min(plan.second), plan.first.max(plan.second));
            let g1 = match timed(res[lo].lock_at(sites.retry.0), &ctx).await {
                Ok(g) => g,
                Err(_) => {
                    refusals += 1;
                    continue;
                }
            };
            match timed(res[hi].lock_at(sites.retry.1), &ctx).await {
                Ok(g2) => break (g1, g2),
                Err(_) => {
                    refusals += 1;
                    drop(g1);
                }
            }
        },
    };
    *g1 += 1;
    *g2 += 1;
    busy_work(WORK);
    drop(g2);
    drop(g1);
    let mut served = timed(stats.lock_at(sites.stats), &ctx)
        .await
        .expect("the fan-in lock is acquired holding nothing");
    *served += 1;
    drop(served);
    let mut c = ctx.counters.borrow_mut();
    c.latencies_ns.push(started.elapsed().as_nanos() as u64);
    c.refusals += refusals;
    c.refused_requests += u64::from(refusals > 0);
    if let (Some(t), Some(span)) = (&ctx.tracer, span) {
        let mut t = t.borrow_mut();
        let now = t.now();
        t.close(span, now);
    }
}

/// What one immune round did.
struct Round {
    setup: Duration,
    run: Duration,
    completed: usize,
    stuck: usize,
    polls: u64,
    counters: Counters,
    stats: Stats,
    signatures: usize,
    memory_bytes: usize,
    log_bytes: u64,
    replayed: usize,
    replay_s: f64,
    shard_count: usize,
    /// Protected counters: each resource, then the accounting lock.
    values: Option<Vec<u64>>,
}

fn immune_round(
    sites: Sites,
    plans: &[Plan],
    log: &Path,
    tracer: Option<Rc<RefCell<Tracer>>>,
) -> Round {
    let _ = std::fs::remove_file(log);
    let t0 = Instant::now();
    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .history_path(log)
        .log_sync(true)
        .build();
    let ex = Executor::new_in(&rt, WORKERS);
    let res = Rc::new(
        (0..RESOURCES)
            .map(|_| Mutex::new_in(&rt, 0u64))
            .collect::<Vec<_>>(),
    );
    let stats = Rc::new(Mutex::new_in(&rt, 0u64));
    let counters = Rc::new(RefCell::new(Counters::default()));
    for (i, plan) in plans.iter().enumerate() {
        let ctx = Ctx {
            tracer: tracer.clone(),
            counters: counters.clone(),
            parent: u32::MAX,
            op: i as u64,
        };
        ex.spawn_at(
            sites.spawn,
            request(*plan, sites, res.clone(), stats.clone(), ctx),
        );
    }
    let setup = t0.elapsed();
    let t1 = Instant::now();
    let report = ex.run();
    let run = t1.elapsed();

    let values = match (Rc::try_unwrap(res), Rc::try_unwrap(stats)) {
        (Ok(res), Ok(stats)) => {
            let mut v: Vec<u64> = res.into_iter().map(Mutex::into_inner).collect();
            v.push(stats.into_inner());
            Some(v)
        }
        _ => None,
    };
    let counters = std::mem::take(&mut *counters.borrow_mut());
    let t2 = Instant::now();
    let replayed = HistoryLog::new(log).replay().map_or(0, |r| r.history.len());
    let replay_s = t2.elapsed().as_secs_f64();
    Round {
        setup,
        run,
        completed: report.completed,
        stuck: report.stuck,
        polls: report.polls,
        counters,
        stats: rt.stats(),
        signatures: rt.history().len(),
        memory_bytes: rt.memory_footprint_bytes(),
        log_bytes: std::fs::metadata(log).map_or(0, |m| m.len()),
        replayed,
        replay_s,
        shard_count: rt.shard_count(),
        values,
    }
}

/// The bare twin: `BareMutex` with no engine; inverted requests take
/// their pair in canonical order, since bare locks would deadlock.
fn bare_round(sites: Sites, plans: &[Plan]) -> (Duration, usize, Option<Vec<u64>>) {
    let rt = DimmunixRuntime::builder()
        .config(dimmunix_core::Config::disabled())
        .build();
    let ex = Executor::new_in(&rt, WORKERS);
    let res = Rc::new(
        (0..RESOURCES)
            .map(|_| BareMutex::new(0u64))
            .collect::<Vec<_>>(),
    );
    let stats = Rc::new(BareMutex::new(0u64));
    for plan in plans {
        let (res, stats) = (res.clone(), stats.clone());
        let (lo, hi) = (plan.first.min(plan.second), plan.first.max(plan.second));
        ex.spawn_at(sites.spawn, async move {
            let mut g1 = res[lo].lock().await;
            for _ in 0..HOLD_YIELDS {
                yield_now().await;
            }
            let mut g2 = res[hi].lock().await;
            *g1 += 1;
            *g2 += 1;
            busy_work(WORK);
            drop(g2);
            drop(g1);
            *stats.lock().await += 1;
        });
    }
    let t = Instant::now();
    let report = ex.run();
    let run = t.elapsed();
    // Read the protected counters from one more task once the requests
    // have drained.
    let values = Rc::new(RefCell::new(None));
    if report.stuck == 0 {
        let out = values.clone();
        ex.spawn_at(sites.spawn, async move {
            let mut v = Vec::with_capacity(RESOURCES + 1);
            for m in res.iter() {
                v.push(*m.lock().await);
            }
            v.push(*stats.lock().await);
            *out.borrow_mut() = Some(v);
        });
        ex.run();
    }
    let values = values.borrow_mut().take();
    (run, report.completed, values)
}

pub fn run(seed: u64, seconds: f64, traced: bool, dir: &Path) -> (Outcome, Vec<Tracer>) {
    let mut rng = Rng::new(seed);
    let sites = generate_sites(&mut rng);
    let log = dir.join("server.history");

    let epoch = Instant::now();
    let tracer = traced.then(|| Rc::new(RefCell::new(Tracer::new(epoch, 0, seed))));
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut twin_secs = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut pair = 0usize;
    while pair < MIN_PAIRS || started.elapsed() < budget {
        // Each pair runs a fresh plan on both of its sides.
        let plans = generate_plans(&mut rng.fork());
        let expected = expected_writes(&plans);
        for step in 0..2 {
            let primary = (pair + step) % 2 == 0;
            if traced && primary {
                let r = immune_round(sites, &plans, &log, tracer.clone());
                check_round(&mut out, &r, &expected);
                traced_rounds.push(r);
            } else if primary || traced {
                let r = immune_round(sites, &plans, &log, None);
                check_round(&mut out, &r, &expected);
                if traced {
                    twin_secs.push(r.run.as_secs_f64());
                }
                rounds.push(r);
            } else {
                let (run, completed, values) = bare_round(sites, &plans);
                out.checks.expect(completed == TASKS, || {
                    format!("bare twin served {completed} of {TASKS} requests")
                });
                out.checks
                    .expect(values.as_deref() == Some(&expected[..]), || {
                        format!("bare twin counters {values:?} != writes {expected:?}")
                    });
                twin_secs.push(run.as_secs_f64());
            }
        }
        if let (true, Some(t), Some(u)) = (traced, traced_rounds.last(), rounds.last()) {
            // The traced and untraced sides ran the same plan: the engine
            // must have learned exactly the same.
            out.checks.expect(
                t.counters.refusals == u.counters.refusals && t.signatures == u.signatures,
                || {
                    format!(
                        "same plan, different counts: {} refusals / {} signatures traced vs {} / {}",
                        t.counters.refusals, t.signatures, u.counters.refusals, u.signatures
                    )
                },
            );
        }
        pair += 1;
    }
    let _ = std::fs::remove_file(&log);
    out.shard_count = Some(rounds[0].shard_count);

    if traced {
        let tr = Rc::try_unwrap(tracer.expect("traced"))
            .expect("every request future has been dropped")
            .into_inner();
        let requests = (TASKS * traced_rounds.len()) as u64;
        let mut stats = Stats::new();
        for r in &traced_rounds {
            stats.merge(&r.stats);
        }
        layers::core_engine(&mut out, &stats, requests);
        let per_round =
            |f: &dyn Fn(&Round) -> f64| median(&traced_rounds.iter().map(f).collect::<Vec<_>>());
        let m = &mut out.metrics;
        let traced_secs: Vec<f64> = traced_rounds.iter().map(|r| r.run.as_secs_f64()).collect();
        m.insert(
            "trace.overhead_ratio",
            median_ratio(&traced_secs, &twin_secs),
        );
        // Learning counts per round (each round learns from an empty log).
        m.insert(
            "core.detection.refusals",
            per_round(&|r| r.counters.refusals as f64),
        );
        m.insert(
            "core.history.signatures",
            per_round(&|r| r.signatures as f64),
        );
        m.insert("core.history.log_bytes", per_round(&|r| r.log_bytes as f64));
        m.insert("core.history.load_s", per_round(&|r| r.replay_s));
        m.insert(
            "core.history.detect_poll_ns_p50",
            layers::span_percentile(&tr, Layer::DetectPoll, 0.5),
        );
        m.insert(
            "asyncio.poll_ns_p50",
            layers::span_percentile(&tr, Layer::Poll, 0.5),
        );
        m.insert(
            "asyncio.poll_ns_p99",
            layers::span_percentile(&tr, Layer::Poll, 0.99),
        );
        let polls: u64 = traced_rounds.iter().map(|r| r.polls).sum();
        let pending: u64 = traced_rounds.iter().map(|r| r.counters.pending_polls).sum();
        m.insert("asyncio.polls_per_request", polls as f64 / requests as f64);
        m.insert(
            "asyncio.pending_polls_per_request",
            pending as f64 / requests as f64,
        );
        out.samples
            .insert("poll_spans", tr.samples(Layer::Poll).items().len() as u64);
        out.samples
            .insert("traced_rounds", traced_rounds.len() as u64);
        out.attempted = requests;
        (out, vec![tr])
    } else {
        for r in &rounds {
            e2e.round_ops.push(TASKS as f64);
            e2e.immune_secs.push(r.run.as_secs_f64());
            e2e.setup_secs.push(r.setup.as_secs_f64());
            e2e.memory_bytes.push(r.memory_bytes as f64);
            e2e.latencies_ns.push(r.counters.latencies_ns.clone());
            e2e.ops_attempted += TASKS as u64;
            e2e.ops_ok += r.completed as u64 - r.counters.refused_requests;
        }
        e2e.bare_secs = twin_secs;
        e2e.into_metrics(&mut out);
        (out, Vec::new())
    }
}

fn check_round(out: &mut Outcome, r: &Round, expected: &[u64]) {
    let c = &mut out.checks;
    c.expect(r.completed == TASKS && r.stuck == 0, || {
        format!(
            "served {} of {TASKS} requests, {} stuck",
            r.completed, r.stuck
        )
    });
    out.failed += (TASKS - r.completed) as u64;
    c.expect(r.values.as_deref() == Some(expected), || {
        format!("protected counters {:?} != writes {expected:?}", r.values)
    });
    c.expect(r.stats.acquisitions == r.stats.releases, || {
        format!(
            "Stats.acquisitions {} != Stats.releases {}",
            r.stats.acquisitions, r.stats.releases
        )
    });
    c.expect(r.replayed == r.signatures, || {
        format!(
            "log holds {} of {} learned signatures",
            r.replayed, r.signatures
        )
    });
}
