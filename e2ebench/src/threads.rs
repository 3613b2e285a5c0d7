//! The closed-loop runner shared by the two OS-thread workloads.
//!
//! Two threads (the calling thread and one spawned worker) run rounds of a
//! fixed number of ops each. Rounds come in interleaved pairs on the same
//! generated inputs, and the pair order alternates so neither side always
//! runs first:
//!
//! * untraced run: an immune round (`Immune*` locks, sampled op latency)
//!   paired with a bare round (`std::sync` locks);
//! * traced run: a traced round (the hook sequence called by hand with a
//!   span around each call) paired with an untraced immune round, whose
//!   ratio is the tracing overhead.
//!
//! The calling thread times each round between two barrier crossings.

use crate::layers;
use crate::report::{Checks, EndToEnd, Outcome};
use crate::trace::{Layer, Tracer};
use dimmunix_core::{LockId, Stats};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The OS threads that generate load.
pub const THREADS: usize = 2;
/// Interleaved round pairs measured at least, however short the run.
const MIN_PAIRS: usize = 3;

/// How a round runs its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Immune = 0,
    Bare = 1,
    Traced = 2,
    Stop = 3,
}

impl Mode {
    fn from_u8(v: u8) -> Mode {
        match v {
            0 => Mode::Immune,
            1 => Mode::Bare,
            2 => Mode::Traced,
            _ => Mode::Stop,
        }
    }
}

/// One closed-loop workload: per-thread cyclic op schedules and the three
/// ways to run an op.
pub trait ClosedLoop: Sync {
    /// Ops each thread runs per round.
    fn round_ops(&self) -> usize;
    fn schedule_len(&self, thread: usize) -> usize;
    fn sampled(&self, thread: usize, index: usize) -> bool;
    /// Runs op `index` of `thread`'s schedule on the immune locks; false if
    /// an acquisition was refused.
    fn immune(&self, thread: usize, index: usize) -> bool;
    /// Runs the same op on the bare `std::sync` twin locks.
    fn bare(&self, thread: usize, index: usize);
    /// Runs the same op on the traced pool, spanning every hook call.
    fn traced(&self, thread: usize, index: usize, tracer: &mut Tracer, op: u64) -> bool;
    /// Engine counters of the runtime the immune and traced pools share.
    fn stats(&self) -> Stats;
}

/// What the closed loop observed.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Round seconds of the measured mode (immune, or traced) …
    pub primary_secs: Vec<f64>,
    /// … and of its twin in the same pair (bare, or untraced immune).
    pub twin_secs: Vec<f64>,
    /// Ops run per mode per thread, for the counter checks.
    pub executed: [[u64; 3]; THREADS],
    /// Sampled op latencies of each immune round, both threads pooled.
    pub latencies_ns: Vec<Vec<u64>>,
    pub refused: u64,
    pub tracers: Vec<Tracer>,
    /// Section span time of each traced round, both threads summed.
    pub traced_span_ns: Vec<u128>,
    /// Time each thread spent in its op loop, per round of the measured
    /// mode and of its twin, both threads summed: the round time without
    /// the barrier waits of a thread that finished first.
    pub primary_busy_ns: Vec<u128>,
    pub twin_busy_ns: Vec<u128>,
    /// Engine counter deltas summed over the traced rounds only.
    pub traced_stats: Stats,
}

#[derive(Default)]
struct ThreadState {
    cursor: [usize; 3],
    executed: [u64; 3],
    latencies: Vec<Vec<u64>>,
    refused: u64,
    tracer: Option<Tracer>,
    round_span_ns: Vec<u128>,
    busy_ns: [Vec<u128>; 3],
}

fn run_round<W: ClosedLoop>(w: &W, thread: usize, mode: Mode, st: &mut ThreadState) {
    let len = w.schedule_len(thread);
    let m = mode as usize;
    if mode == Mode::Immune {
        st.latencies.push(Vec::new());
    }
    let spans_before = st.tracer.as_ref().map_or(0, Tracer::section_span_ns);
    let started = Instant::now();
    for _ in 0..w.round_ops() {
        let index = st.cursor[m] % len;
        st.cursor[m] += 1;
        let ok = match mode {
            Mode::Immune => {
                if w.sampled(thread, index) {
                    let t = Instant::now();
                    let ok = w.immune(thread, index);
                    let ns = t.elapsed().as_nanos() as u64;
                    st.latencies
                        .last_mut()
                        .expect("pushed at round start")
                        .push(ns);
                    ok
                } else {
                    w.immune(thread, index)
                }
            }
            Mode::Bare => {
                w.bare(thread, index);
                true
            }
            Mode::Traced => {
                let op = ((thread as u64) << 48) | st.executed[m];
                let tracer = st.tracer.as_mut().expect("traced rounds carry a tracer");
                w.traced(thread, index, tracer, op)
            }
            Mode::Stop => unreachable!("stop is never run"),
        };
        st.executed[m] += 1;
        if !ok {
            st.refused += 1;
        }
    }
    st.busy_ns[m].push(started.elapsed().as_nanos());
    if mode == Mode::Traced {
        let after = st.tracer.as_ref().map_or(0, Tracer::section_span_ns);
        st.round_span_ns.push(after - spans_before);
    }
}

/// Runs interleaved round pairs for `seconds` (at least [`MIN_PAIRS`]).
/// `traced` selects the traced run's pairing. `between_pairs` runs on the
/// calling thread after each pair, outside every timed round, while the
/// worker waits.
pub fn drive<W: ClosedLoop>(
    w: &W,
    seconds: f64,
    traced: bool,
    epoch: Instant,
    seed: u64,
    mut between_pairs: impl FnMut(),
) -> LoopResult {
    let (primary, twin) = if traced {
        (Mode::Traced, Mode::Immune)
    } else {
        (Mode::Immune, Mode::Bare)
    };
    let mode = AtomicU8::new(Mode::Stop as u8);
    let barrier = Barrier::new(THREADS);
    let new_state = |thread: usize| ThreadState {
        tracer: traced.then(|| Tracer::new(epoch, thread, seed ^ thread as u64)),
        ..ThreadState::default()
    };
    let mut result = LoopResult::default();

    let (main_state, worker_state) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let mut st = new_state(1);
            loop {
                barrier.wait();
                let m = Mode::from_u8(mode.load(Ordering::SeqCst));
                if m == Mode::Stop {
                    break;
                }
                run_round(w, 1, m, &mut st);
                barrier.wait();
            }
            st
        });

        let mut st = new_state(0);
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let mut pair = 0usize;
        while pair < MIN_PAIRS || started.elapsed() < budget {
            let order = if pair % 2 == 0 {
                [primary, twin]
            } else {
                [twin, primary]
            };
            for m in order {
                let before = (m == Mode::Traced).then(|| w.stats());
                mode.store(m as u8, Ordering::SeqCst);
                barrier.wait();
                let t = Instant::now();
                run_round(w, 0, m, &mut st);
                barrier.wait();
                let secs = t.elapsed().as_secs_f64();
                if let Some(before) = before {
                    layers::add_delta(&mut result.traced_stats, &w.stats(), &before);
                }
                if m == primary {
                    result.primary_secs.push(secs);
                } else {
                    result.twin_secs.push(secs);
                }
            }
            pair += 1;
            between_pairs();
        }
        mode.store(Mode::Stop as u8, Ordering::SeqCst);
        barrier.wait();
        let worker_state = worker.join().expect("the worker thread panicked");
        (st, worker_state)
    });

    for (thread, st) in [main_state, worker_state].into_iter().enumerate() {
        result.executed[thread] = st.executed;
        if result.latencies_ns.is_empty() {
            result.latencies_ns = st.latencies;
        } else {
            for (round, lat) in result.latencies_ns.iter_mut().zip(st.latencies) {
                round.extend(lat);
            }
        }
        result.refused += st.refused;
        result.tracers.extend(st.tracer);
        let [immune, bare, traced_busy] = st.busy_ns;
        let (primary_busy, twin_busy) = if traced {
            (traced_busy, immune)
        } else {
            (immune, bare)
        };
        add_rounds(&mut result.traced_span_ns, st.round_span_ns);
        add_rounds(&mut result.primary_busy_ns, primary_busy);
        add_rounds(&mut result.twin_busy_ns, twin_busy);
    }
    result
}

/// Adds one thread's per-round figures to the sums over threads.
fn add_rounds(acc: &mut Vec<u128>, thread: Vec<u128>) {
    if acc.is_empty() {
        *acc = thread;
    } else {
        for (round, ns) in acc.iter_mut().zip(thread) {
            *round += ns;
        }
    }
}

/// One immune section driven by hand: exactly the calls `ImmuneMutex::lock_at`
/// (or the `ImmuneRwLock` read/write paths) and its guard drop make, with
/// a span around each — `before_acquire[_shared]`, the bare lock,
/// `after_acquire`, then after `body` runs, `before_release` and the bare
/// unlock. Returns false, running nothing, if admission refused.
#[allow(clippy::too_many_arguments)]
pub fn traced_section<G>(
    tr: &mut Tracer,
    rt: &DimmunixRuntime,
    id: LockId,
    site: AcquisitionSite,
    shared: bool,
    parent: u32,
    op: u64,
    lock: impl FnOnce() -> G,
    body: impl FnOnce(&mut G, &mut Tracer) -> bool,
) -> bool {
    let t0 = tr.now();
    let admitted = if shared {
        rt.before_acquire_shared(id, site)
    } else {
        rt.before_acquire(id, site)
    };
    let t1 = tr.now();
    tr.leaf(Layer::Admit, t0, t1, parent, op);
    if admitted.is_err() {
        return false;
    }
    let mut guard = lock();
    let t2 = tr.now();
    tr.leaf(Layer::Substrate, t1, t2, parent, op);
    rt.after_acquire(id);
    let t3 = tr.now();
    tr.leaf(Layer::Acquired, t2, t3, parent, op);
    let ok = body(&mut guard, tr);
    let t4 = tr.now();
    rt.before_release(id);
    let t5 = tr.now();
    tr.leaf(Layer::Release, t4, t5, parent, op);
    drop(guard);
    let t6 = tr.now();
    tr.leaf(Layer::Unlock, t5, t6, parent, op);
    ok
}

/// Checks one pool's protected counters against the writes its ops made.
pub fn check_counters(checks: &mut Checks, pool: &str, observed: &[u64], expected: &[u64]) {
    checks.expect(observed == expected, || {
        format!("{pool}: protected counters {observed:?} != writes performed {expected:?}")
    });
}

/// Writes per lock made by running the first `n` ops of a cyclic schedule,
/// given the writes one op makes (`writes(index, &mut per_lock)`).
pub fn expected_writes(
    len: usize,
    n: u64,
    locks: usize,
    mut writes: impl FnMut(usize, &mut [u64]),
) -> Vec<u64> {
    let mut cycle = vec![0u64; locks];
    for i in 0..len {
        writes(i, &mut cycle);
    }
    let full = n / len as u64;
    let mut total: Vec<u64> = cycle.iter().map(|c| c * full).collect();
    for i in 0..(n % len as u64) as usize {
        writes(i, &mut total);
    }
    total
}

/// Fills `out` from a closed-loop result: the rt, core and reconciliation
/// metrics of the traced run, or the end-to-end metrics (with `e2e`
/// carrying the set-up times) of the untraced run.
pub fn report(
    out: &mut Outcome,
    result: &LoopResult,
    mut e2e: EndToEnd,
    round_ops: usize,
    memory_bytes: usize,
) {
    if let Some((first, rest)) = result.tracers.split_first() {
        let mut all = Tracer::new(Instant::now(), 0, 0);
        all.absorb_totals(first);
        for t in rest {
            all.absorb_totals(t);
        }
        let ops = result
            .executed
            .iter()
            .map(|e| e[Mode::Traced as usize])
            .sum();
        layers::rt_hooks(out, &all, ops);
        layers::core_engine(out, &result.traced_stats, ops);
        layers::reconcile(
            out,
            round_ops,
            &result.traced_span_ns,
            &result.primary_busy_ns,
            &result.twin_busy_ns,
            &result.primary_secs,
            &result.twin_secs,
        );
        out.attempted = ops;
    } else {
        let ops = (round_ops * THREADS) as f64;
        e2e.round_ops = vec![ops; result.primary_secs.len()];
        e2e.immune_secs = result.primary_secs.clone();
        e2e.bare_secs = result.twin_secs.clone();
        e2e.latencies_ns = result.latencies_ns.clone();
        e2e.ops_attempted = result
            .executed
            .iter()
            .map(|e| e[Mode::Immune as usize])
            .sum();
        e2e.ops_ok = e2e.ops_attempted - result.refused;
        e2e.memory_bytes = vec![memory_bytes as f64];
        e2e.into_metrics(out);
    }
    out.failed = result.refused;
}
