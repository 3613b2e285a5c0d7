//! Wake-ups across owner kinds.
//!
//! OS threads and async tasks share one runtime, one history and one
//! release path: a thread's release must fire the waker of a task parked
//! by avoidance, and a task's release must bump the gate of a parked
//! thread. Both directions run here against one signature over two outer
//! sites. Every section must complete, no thread park may end on the gate's
//! safety timeout (`Stats::gate_timeouts`), and no task may be left stuck.

use dimmunix_core::{Signature, SignatureKind, SignaturePair};
use dimmunix_rt::asyncio::{yield_now, Executor, Mutex};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SITE_A: AcquisitionSite = AcquisitionSite::new("kinds.outerA", "kinds.rs", 1);
const SITE_B: AcquisitionSite = AcquisitionSite::new("kinds.outerB", "kinds.rs", 2);

fn runtime() -> Arc<DimmunixRuntime> {
    let pair =
        |site: AcquisitionSite| SignaturePair::new(site.to_call_stack(), site.to_call_stack());
    let rt = DimmunixRuntime::builder().build();
    rt.add_signature(Signature::new(
        SignatureKind::Deadlock,
        vec![pair(SITE_A), pair(SITE_B)],
    ));
    rt
}

#[test]
fn a_thread_release_wakes_a_parked_task() {
    let rt = runtime();
    let thread_lock = rt.allocate_lock();
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let rt2 = Arc::clone(&rt);
    let holder = std::thread::spawn(move || {
        rt2.before_acquire(thread_lock, SITE_A).unwrap();
        rt2.after_acquire(thread_lock);
        held_tx.send(()).unwrap();
        release_rx.recv().unwrap();
        rt2.before_release(thread_lock);
    });
    held_rx.recv().unwrap();

    let ex = Executor::new_in(&rt, 1);
    let task_lock = Rc::new(Mutex::new_in(&rt, 0u32));
    let m = Rc::clone(&task_lock);
    ex.spawn(async move {
        *m.lock_at(SITE_B).await.unwrap() += 1;
    });
    // The thread holds at one outer site, so the task's request at the
    // other instantiates the signature: the task parks on its waker.
    let report = ex.run();
    assert_eq!((report.completed, report.stuck), (0, 1));
    assert_eq!(rt.stats().yields, 1);

    // The thread's release fires the waker, so the task is ready again.
    release_tx.send(()).unwrap();
    holder.join().unwrap();
    let report = ex.run();
    assert_eq!((report.completed, report.stuck), (1, 0));
    let task_lock = Rc::try_unwrap(task_lock).expect("the task is done");
    assert_eq!(task_lock.into_inner(), 1);
    let stats = rt.stats();
    assert_eq!(stats.gate_timeouts, 0);
    assert_eq!(stats.deadlocks_detected, 0);
}

#[test]
fn a_task_release_bumps_a_parked_threads_gate() {
    let rt = runtime();
    let ex = Executor::new_in(&rt, 1);
    let task_lock = Rc::new(Mutex::new_in(&rt, ()));
    let thread_lock = rt.allocate_lock();
    let task_holds = Arc::new(AtomicBool::new(false));

    let (rt2, holds) = (Arc::clone(&rt), Arc::clone(&task_holds));
    let waiter = std::thread::spawn(move || {
        while !holds.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The task holds at one outer site: this request parks.
        rt2.before_acquire(thread_lock, SITE_B).unwrap();
        rt2.after_acquire(thread_lock);
        rt2.before_release(thread_lock);
    });

    let (rt3, m, holds) = (
        Arc::clone(&rt),
        Rc::clone(&task_lock),
        Arc::clone(&task_holds),
    );
    ex.spawn(async move {
        let guard = m.lock_at(SITE_A).await.unwrap();
        holds.store(true, Ordering::SeqCst);
        // Keep holding across awaits until the thread has parked, then
        // release: the release must bump the thread's gate.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt3.stats().yields == 0 {
            assert!(Instant::now() < deadline, "the thread never parked");
            yield_now().await;
        }
        drop(guard);
    });
    let report = ex.run();
    assert_eq!((report.completed, report.stuck), (1, 0));
    waiter.join().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.yields, 1);
    assert_eq!(
        stats.gate_timeouts, 0,
        "the task's release must wake the thread"
    );
    assert_eq!(stats.deadlocks_detected, 0);
}
