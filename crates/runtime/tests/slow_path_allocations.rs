//! Allocation regression test for the engine slow path.
//!
//! A nested two-lock section at sites a history signature names takes the
//! all-shard request path on both acquisitions (the outer site is in the
//! history; the inner request comes from an owner that already holds a
//! lock), with quarantined foreign antibodies keeping the exchange gate on.
//! Once the per-site caches and the engines' reusable buffers are warm,
//! the completion and release hooks must not allocate at all, and a
//! request may allocate at most once (the vector of shard guards). The
//! thread pipeline and the task pipeline are both covered, at one shard and
//! at several.

use dimmunix_core::{CallStack, Frame, History, Signature, SignatureKind, SignaturePair};
use dimmunix_exchange::Pack;
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ExchangeOptions, TaskAcquire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use std::task::{Wake, Waker};

/// Counts the allocations made by the calling thread, so tests running in
/// parallel in this binary do not see each other's.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by `f` on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

const OUTER: AcquisitionSite = AcquisitionSite::new("alloc.outer", "alloc.rs", 10);
const INNER: AcquisitionSite = AcquisitionSite::new("alloc.inner", "alloc.rs", 20);
const WARM_UP: usize = 8;
const MEASURED: usize = 200;

/// A history naming both sites as outer positions, so each is in-history.
fn history() -> History {
    let other = |scope: &str| CallStack::single(Frame::new(scope, "alloc.rs", 30));
    let mut h = History::new();
    for (site, partner) in [(OUTER, "alloc.partner1"), (INNER, "alloc.partner2")] {
        h.add(Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(site.to_call_stack(), site.to_call_stack()),
                SignaturePair::new(other(partner), other(partner)),
            ],
        ));
    }
    h
}

/// A pack of foreign antibodies over sites this process never runs: they
/// stay quarantined, so every acquisition passes the exchange gate.
fn foreign_pack(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dimmunix-alloc-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("foreign.pack");
    let mut pack = Pack::new("peer");
    for k in 0..64u32 {
        let stack =
            |side: u32| CallStack::single(Frame::new(format!("peer.s{k}.{side}"), "peer.rs", k));
        pack.add(
            Signature::new(
                SignatureKind::Deadlock,
                vec![
                    SignaturePair::new(stack(0), stack(0)),
                    SignaturePair::new(stack(1), stack(1)),
                ],
            ),
            1,
        );
    }
    pack.save(&path).unwrap();
    path
}

fn runtime(shards: usize, name: &str) -> Arc<DimmunixRuntime> {
    let pack = foreign_pack(name);
    let rt = DimmunixRuntime::builder()
        .shards(shards)
        .history(history())
        .exchange(ExchangeOptions::new("alloc").import(&pack))
        .build();
    std::fs::remove_dir_all(pack.parent().unwrap()).ok();
    assert_eq!(rt.exchange_stats().unwrap().pending, 64);
    rt
}

/// Per-hook allocation totals over the measured sections.
#[derive(Default, Debug)]
struct HookAllocs {
    request: u64,
    complete: u64,
    release: u64,
}

impl HookAllocs {
    fn check(&self, pipeline: &str) {
        assert_eq!(
            self.complete, 0,
            "{pipeline}: completion hook allocated: {self:?}"
        );
        assert_eq!(
            self.release, 0,
            "{pipeline}: release hook allocated: {self:?}"
        );
        assert!(
            self.request <= 2 * MEASURED as u64,
            "{pipeline}: more than one allocation per request: {self:?}"
        );
    }
}

fn thread_pipeline(shards: usize) {
    let rt = runtime(shards, &format!("thread{shards}"));
    let (la, lb) = (rt.allocate_lock(), rt.allocate_lock());
    let mut totals = HookAllocs::default();
    for i in 0..WARM_UP + MEASURED {
        let mut hooks = HookAllocs::default();
        hooks.request += allocs_in(|| rt.before_acquire(la, OUTER).unwrap());
        hooks.complete += allocs_in(|| rt.after_acquire(la));
        hooks.request += allocs_in(|| rt.before_acquire(lb, INNER).unwrap());
        hooks.complete += allocs_in(|| rt.after_acquire(lb));
        hooks.release += allocs_in(|| rt.before_release(lb));
        hooks.release += allocs_in(|| rt.before_release(la));
        if i >= WARM_UP {
            totals.request += hooks.request;
            totals.complete += hooks.complete;
            totals.release += hooks.release;
        }
    }
    totals.check("thread pipeline");
    let stats = rt.stats();
    assert_eq!(stats.fast_admits, 0, "every request took the engine path");
    assert_eq!(stats.acquisitions, stats.releases);
}

struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

fn task_pipeline(shards: usize) {
    let rt = runtime(shards, &format!("task{shards}"));
    let (la, lb) = (rt.allocate_lock(), rt.allocate_lock());
    let waker = Waker::from(Arc::new(NoopWake));
    let task = rt.register_task(None);
    let begin = |lock, site| {
        let r = rt.task_begin_acquire(task, lock, site, &waker);
        assert_eq!(r, TaskAcquire::Granted);
    };
    let mut totals = HookAllocs::default();
    for i in 0..WARM_UP + MEASURED {
        let mut hooks = HookAllocs::default();
        hooks.request += allocs_in(|| begin(la, OUTER));
        hooks.complete += allocs_in(|| rt.task_finish_acquire(task, la));
        hooks.request += allocs_in(|| begin(lb, INNER));
        hooks.complete += allocs_in(|| rt.task_finish_acquire(task, lb));
        hooks.release += allocs_in(|| rt.task_release(task, lb));
        hooks.release += allocs_in(|| rt.task_release(task, la));
        if i >= WARM_UP {
            totals.request += hooks.request;
            totals.complete += hooks.complete;
            totals.release += hooks.release;
        }
    }
    totals.check("task pipeline");
    rt.retire_task(task);
    let stats = rt.stats();
    assert_eq!(stats.acquisitions, stats.releases);
}

#[test]
fn thread_slow_path_is_allocation_lean() {
    thread_pipeline(1);
    thread_pipeline(4);
}

#[test]
fn task_slow_path_is_allocation_lean() {
    task_pipeline(1);
    task_pipeline(4);
}
