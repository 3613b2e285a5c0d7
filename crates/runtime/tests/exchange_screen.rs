//! The lock-free exchange screen must never hide evidence.
//!
//! An acquisition at a site no quarantined antibody needs skips the
//! pending-set lock on a lock-free screen. These tests import a pack whose
//! antibody names two sites this process only reaches after 10 000
//! acquisitions at unrelated sites (behind a thousand other quarantined
//! antibodies), then check that the antibody still activates at its first
//! local evidence and parks the very first request that instantiates it —
//! on the thread pipeline and on the task pipeline.

use dimmunix_core::{CallStack, Frame, Signature, SignatureKind, SignaturePair};
use dimmunix_exchange::Pack;
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ExchangeOptions, TaskAcquire};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::Duration;

const UNRELATED_ACQUISITIONS: usize = 10_000;
const OTHER_ANTIBODIES: u32 = 1_000;

/// This process's build of the two sites the imported antibody names.
const SITE_X: AcquisitionSite = AcquisitionSite::new("screen.outerX", "screen.rs", 11);
const SITE_Y: AcquisitionSite = AcquisitionSite::new("screen.outerY", "screen.rs", 12);

const UNRELATED: [AcquisitionSite; 4] = [
    AcquisitionSite::new("screen.busy0", "busy.rs", 1),
    AcquisitionSite::new("screen.busy1", "busy.rs", 2),
    AcquisitionSite::new("screen.busy2", "busy.rs", 3),
    AcquisitionSite::new("screen.busy3", "busy.rs", 4),
];

fn pair(scope: impl Into<String>, file: &str, line: u32) -> SignaturePair {
    let stack = CallStack::single(Frame::new(scope, file, line));
    SignaturePair::new(stack.clone(), stack)
}

/// A pack exported by a differently compiled peer: the target antibody (at
/// shifted lines) plus a thousand antibodies for sites never run here.
fn pack(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dimmunix-screen-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.pack");
    let mut pack = Pack::new("peer");
    pack.add(
        Signature::new(
            SignatureKind::Deadlock,
            vec![
                pair("screen.outerX", "screen.rs", 911),
                pair("screen.outerY", "screen.rs", 912),
            ],
        ),
        1,
    );
    for k in 0..OTHER_ANTIBODIES {
        pack.add(
            Signature::new(
                SignatureKind::Deadlock,
                vec![
                    pair(format!("peer.s{k}.a"), "peer.rs", k),
                    pair(format!("peer.s{k}.b"), "peer.rs", k),
                ],
            ),
            1,
        );
    }
    pack.save(&path).unwrap();
    path
}

fn runtime(name: &str) -> Arc<DimmunixRuntime> {
    let path = pack(name);
    let rt = DimmunixRuntime::builder()
        .exchange(ExchangeOptions::new("local").import(&path))
        .build();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    let stats = rt.exchange_stats().unwrap();
    assert_eq!(stats.pending, u64::from(OTHER_ANTIBODIES) + 1);
    assert_eq!(stats.activated, 0);
    rt
}

#[test]
fn thread_pipeline_activates_a_late_antibody_and_parks_its_first_instance() {
    let rt = runtime("thread");
    let busy = rt.allocate_lock();
    for i in 0..UNRELATED_ACQUISITIONS {
        rt.before_acquire(busy, UNRELATED[i % UNRELATED.len()])
            .unwrap();
        rt.after_acquire(busy);
        rt.before_release(busy);
    }
    assert_eq!(rt.exchange_stats().unwrap().activated, 0);
    assert_eq!(rt.stats().yields, 0);

    let (lx, ly) = (rt.allocate_lock(), rt.allocate_lock());
    rt.before_acquire(lx, SITE_X).unwrap();
    rt.after_acquire(lx);
    assert_eq!(
        rt.exchange_stats().unwrap().activated,
        0,
        "one of the two sites is still unproven"
    );
    let rt2 = Arc::clone(&rt);
    let waiter = std::thread::spawn(move || {
        rt2.before_acquire(ly, SITE_Y).unwrap();
        rt2.after_acquire(ly);
        rt2.before_release(ly);
    });
    // The waiter's request is the first to instantiate the antibody: its
    // own observation activates it, and the same request parks.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while rt.stats().yields == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the waiter never parked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!waiter.is_finished(), "the waiter must still be parked");
    let stats = rt.exchange_stats().unwrap();
    assert_eq!(stats.activated, 1);
    assert_eq!(stats.pending, u64::from(OTHER_ANTIBODIES));
    rt.before_release(lx);
    waiter.join().unwrap();
    assert_eq!(rt.stats().deadlocks_detected, 0);
}

/// A waker that records that it fired.
struct Flag(AtomicBool);

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn task_pipeline_activates_a_late_antibody_and_parks_its_first_instance() {
    let rt = runtime("task");
    let flag = Arc::new(Flag(AtomicBool::new(false)));
    let waker = Waker::from(Arc::clone(&flag));
    let busy_task = rt.register_task(None);
    let busy = rt.allocate_lock();
    for i in 0..UNRELATED_ACQUISITIONS {
        let site = UNRELATED[i % UNRELATED.len()];
        assert_eq!(
            rt.task_begin_acquire(busy_task, busy, site, &waker),
            TaskAcquire::Granted
        );
        rt.task_finish_acquire(busy_task, busy);
        rt.task_release(busy_task, busy);
    }
    rt.retire_task(busy_task);
    assert_eq!(rt.exchange_stats().unwrap().activated, 0);

    let (holder, requester) = (rt.register_task(None), rt.register_task(None));
    let (lx, ly) = (rt.allocate_lock(), rt.allocate_lock());
    assert_eq!(
        rt.task_begin_acquire(holder, lx, SITE_X, &waker),
        TaskAcquire::Granted
    );
    rt.task_finish_acquire(holder, lx);
    assert_eq!(rt.exchange_stats().unwrap().activated, 0);

    // The first request that instantiates the antibody parks.
    let parked = rt.task_begin_acquire(requester, ly, SITE_Y, &waker);
    assert!(
        matches!(parked, TaskAcquire::Parked { .. }),
        "expected a park, got {parked:?}"
    );
    assert_eq!(rt.exchange_stats().unwrap().activated, 1);
    assert!(!flag.0.load(Ordering::SeqCst));

    // Releasing the blocking hold wakes it, and the retry is granted.
    rt.task_release(holder, lx);
    assert!(
        flag.0.load(Ordering::SeqCst),
        "the release must wake the parked task"
    );
    assert_eq!(
        rt.task_begin_acquire(requester, ly, SITE_Y, &waker),
        TaskAcquire::Granted
    );
    rt.task_finish_acquire(requester, ly);
    rt.task_release(requester, ly);
    rt.retire_task(holder);
    rt.retire_task(requester);
    let stats = rt.stats();
    assert_eq!(stats.yields, 1);
    assert_eq!(stats.deadlocks_detected, 0);
    assert_eq!(stats.acquisitions, stats.releases);
}
