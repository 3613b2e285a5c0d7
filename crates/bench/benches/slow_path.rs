//! Per-hook ledger of the engine slow path: nanoseconds and heap
//! allocations per call of each runtime hook, for a nested two-lock section
//! whose outer site is in the history, with 1000 foreign antibodies
//! quarantined (the shape of e2ebench's `fleet_nested` inner loop, on one
//! thread so the figures are the hooks' own cost, free of contention).
//!
//! Both acquisitions take the all-shard request path: the outer one because
//! its site is in the history, the inner one because its owner already
//! holds a lock. Rows are printed for the thread pipeline
//! (`before_acquire` / `after_acquire` / `before_release`) and the task
//! pipeline (`task_begin_acquire` / `task_finish_acquire` /
//! `task_release`). Estimator: each hook call is timed on its own with
//! `Instant` (the mean timer cost, measured first, is subtracted); the
//! reported figure is the median over 7 passes of the per-pass mean.
//!
//! ```text
//! cargo bench -p dimmunix-bench --bench slow_path
//! ```

use dimmunix_core::{CallStack, Frame, History, Signature, SignatureKind, SignaturePair};
use dimmunix_exchange::Pack;
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ExchangeOptions, TaskAcquire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::Instant;

/// Counts every heap allocation (the bench is single-threaded).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const SHARDS: usize = 2;
const FOREIGN_ANTIBODIES: u32 = 1_000;
const WARM_UP: usize = 2_000;
const SECTIONS: usize = 50_000;
const PASSES: usize = 7;

const OUTER: AcquisitionSite = AcquisitionSite::new("ledger.outer", "ledger.rs", 10);
const INNER: AcquisitionSite = AcquisitionSite::new("ledger.inner", "ledger.rs", 20);

fn runtime(dir: &std::path::Path) -> Arc<DimmunixRuntime> {
    let stack = |scope: &str| CallStack::single(Frame::new(scope, "ledger.rs", 1));
    let mut history = History::new();
    history.add(Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(OUTER.to_call_stack(), INNER.to_call_stack()),
            SignaturePair::new(stack("ledger.partner"), stack("ledger.partner.inner")),
        ],
    ));
    let path = dir.join("foreign.pack");
    let mut pack = Pack::new("peer");
    for k in 0..FOREIGN_ANTIBODIES {
        let foreign = |side: u32| {
            let s = CallStack::single(Frame::new(format!("peer.s{k}.{side}"), "peer.rs", k));
            SignaturePair::new(s.clone(), s)
        };
        pack.add(
            Signature::new(SignatureKind::Deadlock, vec![foreign(0), foreign(1)]),
            1,
        );
    }
    pack.save(&path).expect("write the foreign pack");
    let rt = DimmunixRuntime::builder()
        .shards(SHARDS)
        .log_sync(false)
        .history(history)
        .exchange(ExchangeOptions::new("ledger").import(&path))
        .build();
    assert_eq!(
        rt.exchange_stats().unwrap().pending,
        u64::from(FOREIGN_ANTIBODIES)
    );
    rt
}

/// Per-hook totals over one pass: (calls, nanoseconds, allocations).
#[derive(Default, Clone, Copy)]
struct Hook {
    calls: u64,
    ns: u64,
    allocs: u64,
}

/// Times one hook call and charges it, timer cost subtracted.
fn timed(hook: &mut Hook, timer_ns: u64, f: impl FnOnce()) {
    let a0 = ALLOCATIONS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    f();
    let ns = t0.elapsed().as_nanos() as u64;
    hook.allocs += ALLOCATIONS.load(Ordering::Relaxed) - a0;
    hook.ns += ns.saturating_sub(timer_ns);
    hook.calls += 1;
}

fn timer_cost() -> u64 {
    let n = 200_000u64;
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Instant::now().elapsed());
    }
    t0.elapsed().as_nanos() as u64 / n
}

/// One section through three hooks: request, completion, release.
type Section<'a> = dyn FnMut(&mut [Hook; 3], u64) + 'a;

/// Runs warm-up then `PASSES` passes; returns per hook the median pass
/// mean in ns and the allocations per call over all passes.
fn ledger(section: &mut Section<'_>, timer_ns: u64) -> [(f64, f64); 3] {
    let mut scratch = [Hook::default(); 3];
    for _ in 0..WARM_UP {
        section(&mut scratch, timer_ns);
    }
    let mut means: [Vec<f64>; 3] = Default::default();
    let mut allocs = [0u64; 3];
    let mut calls = [0u64; 3];
    for _ in 0..PASSES {
        let mut hooks = [Hook::default(); 3];
        for _ in 0..SECTIONS {
            section(&mut hooks, timer_ns);
        }
        for (i, h) in hooks.iter().enumerate() {
            means[i].push(h.ns as f64 / h.calls as f64);
            allocs[i] += h.allocs;
            calls[i] += h.calls;
        }
    }
    std::array::from_fn(|i| {
        let m = &mut means[i];
        m.sort_by(f64::total_cmp);
        (m[m.len() / 2], allocs[i] as f64 / calls[i] as f64)
    })
}

struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

fn main() {
    let dir = std::env::temp_dir().join(format!("dimmunix-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let timer_ns = timer_cost();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "slow_path ledger: {SHARDS} shards, {FOREIGN_ANTIBODIES} quarantined antibodies, \
         {cpus} CPUs, timer {timer_ns} ns subtracted; median of {PASSES} pass means"
    );

    let rt = runtime(&dir);
    let (la, lb) = (rt.allocate_lock(), rt.allocate_lock());
    let thread_rows = ledger(
        &mut |h: &mut [Hook; 3], t| {
            timed(&mut h[0], t, || rt.before_acquire(la, OUTER).unwrap());
            timed(&mut h[1], t, || rt.after_acquire(la));
            timed(&mut h[0], t, || rt.before_acquire(lb, INNER).unwrap());
            timed(&mut h[1], t, || rt.after_acquire(lb));
            timed(&mut h[2], t, || rt.before_release(lb));
            timed(&mut h[2], t, || rt.before_release(la));
        },
        timer_ns,
    );
    assert_eq!(
        rt.stats().fast_admits,
        0,
        "every request takes the engine path"
    );

    let rt = runtime(&dir);
    let (la, lb) = (rt.allocate_lock(), rt.allocate_lock());
    let task = rt.register_task(None);
    let waker = Waker::from(Arc::new(NoopWake));
    let begin = |lock, site| {
        assert_eq!(
            rt.task_begin_acquire(task, lock, site, &waker),
            TaskAcquire::Granted
        );
    };
    let task_rows = ledger(
        &mut |h: &mut [Hook; 3], t| {
            timed(&mut h[0], t, || begin(la, OUTER));
            timed(&mut h[1], t, || rt.task_finish_acquire(task, la));
            timed(&mut h[0], t, || begin(lb, INNER));
            timed(&mut h[1], t, || rt.task_finish_acquire(task, lb));
            timed(&mut h[2], t, || rt.task_release(task, lb));
            timed(&mut h[2], t, || rt.task_release(task, la));
        },
        timer_ns,
    );
    std::fs::remove_dir_all(&dir).ok();

    let names = [
        ["before_acquire", "after_acquire", "before_release"],
        ["task_begin_acquire", "task_finish_acquire", "task_release"],
    ];
    for (rows, names) in [thread_rows, task_rows].iter().zip(names) {
        for ((ns, allocs), name) in rows.iter().zip(names) {
            println!("{name:<22} {ns:>9.1} ns/call {allocs:>6.2} allocs/call");
        }
    }
}
