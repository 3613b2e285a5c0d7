//! The sharded Dimmunix engine: lock-id partitioning with a cross-shard
//! detection path.
//!
//! The paper serializes the three Dimmunix hooks behind one global VM lock
//! (§4), which is fine on a 2007 phone but makes every acquisition in a
//! heavily threaded process serialize through a single mutex. This module
//! splits the engine state into `N` shards keyed by lock id, so uncontended
//! acquisitions of locks on different shards never touch the same state:
//!
//! * **A shard owns the locks that hash to it**: their RAG lock nodes, the
//!   request/yield/pending-grant edges of threads whose outstanding request
//!   targets one of its locks, the position-queue entries created by grants
//!   of its locks, and its own [`Stats`] (rolled up on read).
//! * **Every shard reads one shared, immutable
//!   [`HistorySnapshot`](crate::HistorySnapshot)** — the history, the
//!   canonical outer-position table, and the
//!   [`SignatureIndex`](crate::SignatureIndex) exist once per process, not
//!   once per shard. A detection builds the successor snapshot
//!   (copy-on-write, epoch bumped), appends one record to the history log,
//!   and installs the new `Arc` into every shard under the all-shard lock
//!   ([`broadcast_signature`]); [`SignatureId`]s are globally consistent by
//!   construction because there is exactly one history. Each shard keeps a
//!   lazy link from its own interned positions to the snapshot's canonical
//!   outer ids, so the avoidance hot path still runs entirely inside the
//!   home shard.
//!
//! ## Fast path vs cross-shard path
//!
//! A request can be decided entirely inside its home shard
//! ([`try_request_local`]) when neither detection nor avoidance can possibly
//! need another shard's state:
//!
//! * the requester holds no lock on any shard (so no wait-for cycle can run
//!   through it — cycles need an edge *into* the requester, i.e. a lock it
//!   holds), and
//! * no history signature mentions the requesting position (so the
//!   avoidance instantiation check is vacuous — the common case, since
//!   deadlock histories touch few sites).
//!
//! Otherwise the request takes the cross-shard path
//! ([`request_cross_shard`]): the caller acquires **all shards in ascending
//! index order** (a total order, so two concurrent cross-shard requests
//! cannot deadlock the engine itself) and the decision is computed against
//! the merged view:
//!
//! * the merged wait-for relation is the concatenation of the per-shard
//!   relations (a thread's out-edges all live in the shard of its
//!   outstanding request, so concatenation introduces neither duplicates nor
//!   order changes);
//! * the merged occupancy of a signature's outer position is the union of
//!   every shard's local queue at that slot;
//! * hold-recency queries (`last_history_hold`) merge per-shard holds by the
//!   global acquisition sequence number stamped through
//!   [`Dimmunix::acquired_with_seq`];
//! * a lock's **owner set** (one entry per owner — several for a reader
//!   crowd) lives whole in the lock's home shard, so the merged view unions
//!   owner sets per lock trivially: the wait-for fan-out of a request (one
//!   edge per conflicting owner) is generated inside the shard that owns
//!   both the request edge and the lock node, and concatenation preserves
//!   it exactly.
//!
//! Detection results flow back through the owning shards: the signature is
//! appended to every replica, the yield/queue bookkeeping is written to the
//! shard that owns the affected lock, and counters/events land on the home
//! shard.
//!
//! ## Determinism and the single-shard oracle
//!
//! [`ShardedDimmunix`] is, like [`Dimmunix`], a deterministic state machine
//! with no interior locking; `dimmunix-rt` supplies the actual per-shard
//! mutexes. `ShardedDimmunix` with `shards = 1` routes *everything* through
//! one shard and is observably equivalent to a plain [`Dimmunix`], which is
//! what the property tests exploit: the same random workload is driven
//! through a monolithic engine and through sharded engines with several
//! shard counts, asserting identical outcomes, counters, and histories
//! (`tests/proptests.rs`).

use crate::avoidance::{instantiable_with_candidates, Instantiation};
use crate::callstack::CallStack;
use crate::config::Config;
use crate::engine::{Dimmunix, RequestOutcome};
use crate::events::EventKind;
use crate::fnv::FnvMap;
use crate::history::History;
use crate::position::PositionId;
use crate::rag::{find_cycle_in, AccessMode, CycleScratch, CycleStep, WaitEdge, YieldRecord};
use crate::signature::{Signature, SignatureKind, SignaturePair};
use crate::snapshot::HistorySnapshot;
use crate::stats::Stats;
use crate::{LockId, OwnerId, SignatureId};
use std::sync::Arc;

/// Upper bound on the number of shards (holds-per-shard bookkeeping is a
/// 64-bit mask).
pub const MAX_SHARDS: usize = 64;

/// Maps lock ids to shard indices.
///
/// The mapping is a Fibonacci multiplicative hash of the raw lock id, so
/// substrates that allocate sequential ids (like `dimmunix-rt`) spread their
/// locks evenly even when allocation patterns are strided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Creates a router over `shards` shards, clamped to `1..=MAX_SHARDS`.
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            shards: shards.clamp(1, MAX_SHARDS),
        }
    }

    /// Number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning `lock`.
    pub fn shard_of(&self, lock: LockId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mixed = lock.index().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // High bits of the product are the well-mixed ones.
        ((mixed >> 32) % self.shards as u64) as usize
    }
}

/// The fast-path eligibility predicate, shared by [`ShardedDimmunix`] and
/// the `dimmunix-rt` runtime so the two routing layers cannot drift.
///
/// A request may be decided inside its home shard alone iff the requester
/// holds no lock on any shard (`holds_mask == 0`), any leftover request
/// edge from an abandoned acquisition lives in the home shard itself, and
/// no park can involve the requester in a cycle (`any_parked == false` —
/// the caller must evaluate this under a lock that a parking operation
/// would also need, e.g. the home shard's mutex, so a concurrent park
/// cannot be missed). With `lock_free_admission` enabled the caller scopes
/// that third condition to yield records naming the requester in their
/// blocker list; the legacy condition is "no owner parked anywhere".
/// [`try_request_local`] documents why these conditions make the
/// shard-local decision identical to the monolithic one.
pub fn fast_path_eligible(
    holds_mask: u64,
    stale_shard: Option<usize>,
    any_parked: bool,
    home: usize,
) -> bool {
    holds_mask == 0 && stale_shard.map_or(true, |s| s == home) && !any_parked
}

/// The stale-request-edge transition after a request, shared by
/// [`ShardedDimmunix`] and the `dimmunix-rt` runtime.
///
/// `Yield` and `DeadlockDetected` leave the request edge (and, for yields,
/// the park record) behind in the home shard until the thread retries,
/// completes, or cancels; a grant's edge is consumed by the following
/// `acquired`; the reentrant fast path and a disabled engine touch no
/// edges, so the previous value stands.
pub fn stale_shard_after(
    outcome: &RequestOutcome,
    prev: Option<usize>,
    home: usize,
    disabled: bool,
) -> Option<usize> {
    if disabled {
        return prev;
    }
    match outcome {
        RequestOutcome::Yield { .. } | RequestOutcome::DeadlockDetected { .. } => Some(home),
        RequestOutcome::Granted => None,
        RequestOutcome::GrantedReentrant => prev,
    }
}

/// The stale-edge transition when an acquisition or cancellation touches
/// `home`: both consume the request edge the home shard was carrying, so a
/// stale marker pointing at `home` is cleared; a marker pointing elsewhere
/// is untouched (the consumed edge was a different one). Shared by
/// [`ShardedDimmunix`] and the `dimmunix-rt` runtime.
pub fn stale_shard_consumed(prev: Option<usize>, home: usize) -> Option<usize> {
    if prev == Some(home) {
        None
    } else {
        prev
    }
}

/// The holds-mask transition after an engine call on `shard` changed (or
/// may have changed) the thread's holds there: bit `shard` reflects whether
/// the shard's RAG still records any hold for the thread. Re-derived from
/// the RAG rather than counted, so the mask can never drift. Shared by
/// [`ShardedDimmunix`] and the `dimmunix-rt` runtime.
pub fn holds_mask_with(mask: u64, shard: usize, holds_here: bool) -> u64 {
    if holds_here {
        mask | (1 << shard)
    } else {
        mask & !(1 << shard)
    }
}

/// Outcome of the shard-local fast path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalDecision {
    /// The request was fully decided inside the home shard.
    Decided(RequestOutcome),
    /// The request may need another shard's state (the requesting position
    /// appears in the history); the caller must take the cross-shard path.
    /// No engine state was modified beyond interning the position.
    NeedsCrossShard,
}

/// Attempts to decide a request entirely inside its home shard.
///
/// Precondition (enforced by the callers, [`ShardedDimmunix`] and the
/// `dimmunix-rt` runtime): the requesting thread holds no lock on **any**
/// shard, has no outstanding request or yield record on a *different*
/// shard, and **no yield record on any shard names it as a blocker**
/// ([`Rag::lists_yield_blocker`](crate::Rag::lists_yield_blocker) is false
/// everywhere — a yield record's blocker list is a snapshot, so a
/// starvation cycle can run through a thread that holds no lock at all,
/// but only by traversing a yield edge that names it; the legacy gate
/// conservatively requires [`Rag::yield_count`](crate::Rag::yield_count)
/// to be zero everywhere instead). A hold-free requester has no other
/// possible in-edge, so under that precondition no wait-for cycle can pass
/// through it, and shard-local detection plus an empty per-position
/// signature list make the shard-local decision identical to the
/// monolithic one.
pub fn try_request_local(
    shard: &mut Dimmunix,
    t: impl Into<OwnerId>,
    l: LockId,
    stack: &CallStack,
    mode: AccessMode,
) -> LocalDecision {
    let t = t.into();
    if shard.config().is_disabled() {
        return LocalDecision::Decided(shard.request_mode(t, l, stack, mode));
    }
    let pos = shard.intern_position(stack);
    // A position mentioned by any signature carries a link to its canonical
    // outer id in the shared snapshot; the membership test is one `Option`
    // read of shard-local state.
    if shard
        .positions()
        .get(pos)
        .and_then(|p| p.history_ref())
        .is_some()
    {
        return LocalDecision::NeedsCrossShard;
    }
    LocalDecision::Decided(shard.request_at_mode(t, l, pos, mode))
}

/// One engine shard as the cross-shard request path sees it.
///
/// The decision runs directly over the caller's own shard slots — plain
/// engines in [`ShardedDimmunix`], mutex guards over the runtime's shard
/// cells — so no per-request vector of engine references is collected.
pub trait EngineSlot {
    /// The shard's engine.
    fn engine(&self) -> &Dimmunix;
    /// The shard's engine, mutably.
    fn engine_mut(&mut self) -> &mut Dimmunix;
}

impl EngineSlot for Dimmunix {
    fn engine(&self) -> &Dimmunix {
        self
    }

    fn engine_mut(&mut self) -> &mut Dimmunix {
        self
    }
}

impl<T: EngineSlot + ?Sized> EngineSlot for std::sync::MutexGuard<'_, T> {
    fn engine(&self) -> &Dimmunix {
        (**self).engine()
    }

    fn engine_mut(&mut self) -> &mut Dimmunix {
        (**self).engine_mut()
    }
}

/// Reusable buffers of one engine's request decisions: the wait-for cycle
/// search and the per-slot candidate lists of the instantiation check. A
/// request borrows its home shard's buffers, so once they have grown to the
/// workload's shape, deciding a request allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct RequestScratch {
    pub(crate) cycle: CycleScratch,
    pub(crate) candidates: Vec<Vec<OwnerId>>,
}

/// Decides a request against the full multi-shard view.
///
/// `shards` must contain **every** shard (the caller holds all of them, in
/// ascending index order when the shards live behind locks), `home` is the
/// index owning `l`, and `prev_request_shard` is the shard still carrying
/// the thread's previous request edge or yield record, if any (the request
/// edge moves to `home`, mirroring the monolithic engine's overwrite).
///
/// The decision logic mirrors [`Dimmunix::request_at`] step for step; only
/// the state accessors are merged across shards as described in the module
/// docs.
pub fn request_cross_shard<S: EngineSlot>(
    shards: &mut [S],
    router: &ShardRouter,
    t: impl Into<OwnerId>,
    l: LockId,
    stack: &CallStack,
    mode: AccessMode,
    prev_request_shard: Option<usize>,
) -> RequestOutcome {
    let t = t.into();
    let home = router.shard_of(l);
    let h = shards[home].engine_mut();
    let pos = h.intern_position(stack);

    h.tick();
    h.stats_mut().requests += 1;
    h.push_event(EventKind::Request {
        thread: t,
        lock: l,
        position: pos,
    });

    if h.config().is_disabled() {
        h.stats_mut().grants += 1;
        h.rag_mut().register_owner(t);
        h.rag_mut().register_lock(l);
        h.rag_mut().set_pending_grant(t, l, pos, mode);
        return RequestOutcome::Granted;
    }

    // If the thread is retrying after a yield, it is no longer parked; the
    // record lives in the shard that answered the yielded request.
    h.clear_yield_tracked(t);
    if let Some(prev) = prev_request_shard {
        if prev != home {
            shards[prev].engine_mut().clear_yield_tracked(t);
        }
    }

    // Reentrant fast path: a thread never deadlocks against itself on a
    // lock it already owns (in any mode).
    let h = shards[home].engine_mut();
    if h.rag().owns(l, t) {
        h.stats_mut().reentrant_grants += 1;
        h.push_event(EventKind::ReentrantGrant { thread: t, lock: l });
        return RequestOutcome::GrantedReentrant;
    }

    // The request edge moves to the home shard (the monolithic engine's
    // `set_request` overwrite, split across shards).
    if let Some(prev) = prev_request_shard {
        if prev != home {
            shards[prev].engine_mut().rag_mut().clear_request(t);
        }
    }
    let h = shards[home].engine_mut();
    h.rag_mut().set_request_mode(t, l, pos, mode);
    let mut scratch = std::mem::take(h.scratch_mut());
    let outcome = decide_cross_shard(shards, router, t, l, pos, mode, &mut scratch);
    *shards[home].engine_mut().scratch_mut() = scratch;
    outcome
}

/// Detection, avoidance and grant of a cross-shard request whose request
/// edge is already recorded at `pos` in the home shard.
fn decide_cross_shard<S: EngineSlot>(
    shards: &mut [S],
    router: &ShardRouter,
    t: OwnerId,
    l: LockId,
    pos: PositionId,
    mode: AccessMode,
    scratch: &mut RequestScratch,
) -> RequestOutcome {
    let home = router.shard_of(l);
    let config = shards[home].engine().config();
    let detection = config.detection;
    let avoidance = config.avoidance;
    let starvation_handling = config.starvation_handling;

    // --- Detection (merged wait-for relation) --------------------------
    if detection {
        let include_yields = starvation_handling;
        let detected = find_cycle_in(t, &mut scratch.cycle, |th, out| {
            merged_successors(shards, th, include_yields, out)
        })
        .then(|| classify_cycle_merged(shards, router, &scratch.cycle.path));
        if let Some(detected) = detected {
            let is_starvation = detected.involves_yield;
            let (sig_id, new) = broadcast_signature(shards, detected.signature.clone());
            if is_starvation {
                let h = shards[home].engine_mut();
                h.stats_mut().starvations_detected += 1;
                if new {
                    h.stats_mut().new_starvation_signatures += 1;
                }
                h.push_event(EventKind::StarvationDetected {
                    thread: t,
                    signature: sig_id,
                    new_signature: new,
                });
                // Resume every parked participant (§2.2): clear its yield
                // (wherever it lives) and schedule a wake-up.
                for th in &detected.owners {
                    if let Some(y) = clear_yield_any(shards, *th) {
                        let h = shards[home].engine_mut();
                        h.push_pending_wakeup(y.signature);
                        h.stats_mut().wakeups += 1;
                        h.push_event(EventKind::Wakeup {
                            signature: y.signature,
                        });
                    }
                }
                // Fall through: the requester itself is then treated by the
                // avoidance logic below.
            } else {
                let h = shards[home].engine_mut();
                h.stats_mut().deadlocks_detected += 1;
                if new {
                    h.stats_mut().new_deadlock_signatures += 1;
                }
                h.push_event(EventKind::DeadlockDetected {
                    thread: t,
                    signature: sig_id,
                    new_signature: new,
                });
                return RequestOutcome::DeadlockDetected {
                    signature: sig_id,
                    new_signature: new,
                    owners: detected.owners,
                };
            }
        }
    }

    // --- Avoidance (merged queue occupancy) ----------------------------
    if avoidance && !shards[home].engine().history().is_empty() {
        let h = shards[home].engine_mut();
        h.stats_mut().instantiation_checks += 1;
        let outer = h.positions().get(pos).and_then(|p| p.history_ref());
        let examined = outer.map_or(0, |o| h.signature_index().signatures_at(o).len() as u64);
        h.stats_mut().signatures_examined += examined;
        // The instantiation check and, when it matches, the starvation probe
        // read the same merged state.
        let inst = outer.and_then(|o| {
            find_instantiation_merged(shards, home, t, o, l, mode, &mut scratch.candidates)
        });
        if let Some(inst) = inst {
            let starvation_sig = (starvation_handling
                && would_starve_merged(shards, t, &inst.blockers))
            .then(|| starvation_signature_merged(shards, home, pos, &inst.blockers));
            let mut park = true;
            if let Some(sig) = starvation_sig {
                // Parking would itself create a wait-for cycle: record
                // the avoidance-induced deadlock and let the thread
                // proceed instead (§2.2).
                let (s_id, new) = broadcast_signature(shards, sig);
                let h = shards[home].engine_mut();
                h.stats_mut().starvations_detected += 1;
                if new {
                    h.stats_mut().new_starvation_signatures += 1;
                }
                h.push_event(EventKind::StarvationDetected {
                    thread: t,
                    signature: s_id,
                    new_signature: new,
                });
                park = false;
            }
            if park {
                let h = shards[home].engine_mut();
                h.stats_mut().yields += 1;
                h.set_yield_tracked(
                    t,
                    YieldRecord {
                        signature: inst.signature,
                        position: pos,
                        lock: l,
                        blockers: inst.blockers,
                    },
                );
                h.push_event(EventKind::Yield {
                    thread: t,
                    lock: l,
                    signature: inst.signature,
                });
                return RequestOutcome::Yield {
                    signature: inst.signature,
                };
            }
        }
    }

    // --- Grant ----------------------------------------------------------
    let h = shards[home].engine_mut();
    h.stats_mut().grants += 1;
    if let Some(p) = h.positions_mut().get_mut(pos) {
        p.queue_mut().push(t);
    }
    h.rag_mut().set_pending_grant(t, l, pos, mode);
    h.push_event(EventKind::Grant { thread: t, lock: l });
    RequestOutcome::Granted
}

// ----------------------------------------------------------------------
// Merged-view helpers
// ----------------------------------------------------------------------

/// Appends the merged wait-for successors of `t` to `out`: concatenation of
/// the per-shard relations. A thread's out-edges (its outstanding request
/// and its yield blockers) all live in the shard of its outstanding
/// request, so concatenation yields exactly the monolithic successor list.
fn merged_successors<S: EngineSlot>(
    shards: &[S],
    t: OwnerId,
    include_yields: bool,
    out: &mut Vec<(OwnerId, WaitEdge)>,
) {
    for s in shards {
        s.engine().rag().successors_into(t, include_yields, out);
    }
}

/// A position pinned to the shard whose table interned it.
type ShardPos = (usize, PositionId);

fn stack_at<S: EngineSlot>(shards: &[S], loc: Option<ShardPos>) -> CallStack {
    loc.and_then(|(s, p)| shards[s].engine().positions().get(p))
        .map(|p| p.stack().clone())
        .unwrap_or_default()
}

/// The shard and record of `t`'s outstanding request, if any.
fn requesting_any<S: EngineSlot>(shards: &[S], t: OwnerId) -> Option<(usize, LockId, PositionId)> {
    shards
        .iter()
        .enumerate()
        .find_map(|(i, s)| s.engine().rag().requesting(t).map(|(l, p)| (i, l, p)))
}

/// The shard and yield record of `t`, if it is parked by avoidance.
fn yielding_any<S: EngineSlot>(shards: &[S], t: OwnerId) -> Option<(usize, &YieldRecord)> {
    shards
        .iter()
        .enumerate()
        .find_map(|(i, s)| s.engine().rag().yielding(t).map(|y| (i, y)))
}

/// Clears `t`'s yield record in whichever shard carries it.
fn clear_yield_any<S: EngineSlot>(shards: &mut [S], t: OwnerId) -> Option<YieldRecord> {
    shards
        .iter_mut()
        .find_map(|s| s.engine_mut().clear_yield_tracked(t))
}

/// Latest lock held by `t` (by global acquisition sequence) whose
/// acquisition position is flagged as in-history — the merged equivalent of
/// `detection::last_history_hold`.
fn last_history_hold_merged<S: EngineSlot>(shards: &[S], t: OwnerId) -> Option<ShardPos> {
    shards
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            let s = s.engine();
            s.rag()
                .held_locks(t)
                .iter()
                .filter(|e| {
                    s.positions()
                        .get(e.pos)
                        .map(|d| d.in_history())
                        .unwrap_or(false)
                })
                .map(move |e| (e.seq, (i, e.pos)))
        })
        .max_by_key(|(seq, _)| *seq)
        .map(|(_, loc)| loc)
}

/// Latest lock held by `t` across all shards, by global acquisition
/// sequence — the merged equivalent of `held_locks(t).last()`.
fn last_hold_merged<S: EngineSlot>(shards: &[S], t: OwnerId) -> Option<ShardPos> {
    shards
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            s.engine()
                .rag()
                .held_locks(t)
                .iter()
                .map(move |e| (e.seq, (i, e.pos)))
        })
        .max_by_key(|(seq, _)| *seq)
        .map(|(_, loc)| loc)
}

/// The merged equivalent of [`classify_cycle`](crate::classify_cycle):
/// resolves positions through the shard that interned them and hold recency
/// through the global acquisition sequence.
fn classify_cycle_merged<S: EngineSlot>(
    shards: &[S],
    router: &ShardRouter,
    steps: &[CycleStep],
) -> crate::detection::DetectedCycle {
    let n = steps.len();
    let mut pairs = Vec::with_capacity(n);
    let mut involves_yield = false;
    let owners: Vec<OwnerId> = steps.iter().map(|s| s.owner).collect();

    for i in 0..n {
        let waited_on = steps[(i + 1) % n].owner;
        let inner: Option<ShardPos> = requesting_any(shards, waited_on)
            .map(|(s, _, p)| (s, p))
            .or_else(|| yielding_any(shards, waited_on).map(|(s, y)| (s, y.position)));
        let outer: Option<ShardPos> = match &steps[i].edge {
            WaitEdge::Lock(lock) => {
                // The waited-on thread is one owner among possibly several
                // (a reader crowd): the template position is *its* `acqPos`.
                let s = router.shard_of(*lock);
                shards[s]
                    .engine()
                    .rag()
                    .acq_pos_of(*lock, waited_on)
                    .map(|p| (s, p))
            }
            WaitEdge::Yield(_) => {
                involves_yield = true;
                last_history_hold_merged(shards, waited_on)
                    .or_else(|| last_hold_merged(shards, waited_on))
                    .or(inner)
            }
        };
        pairs.push(SignaturePair::new(
            stack_at(shards, outer),
            stack_at(shards, inner),
        ));
    }

    if steps.iter().any(|s| matches!(s.edge, WaitEdge::Yield(_))) {
        involves_yield = true;
    }

    let kind = if involves_yield {
        SignatureKind::Starvation
    } else {
        SignatureKind::Deadlock
    };
    crate::detection::DetectedCycle {
        owners,
        involves_yield,
        signature: Signature::new(kind, pairs),
    }
}

/// The merged instantiation check, in the shared snapshot's canonical
/// outer-position namespace (`outer` is the requesting position's canonical
/// id): candidate threads per outer slot are the union of every shard's
/// local queue at that slot (queue entries for one program location are
/// distributed across the shards whose locks were granted there). All
/// shards read the same snapshot `Arc`, so canonical ids are the common
/// coordinate system across shards by construction.
///
/// `lock` and `mode` are the requested lock and access mode. When the
/// request is [`AccessMode::Shared`], a thread whose only occupancy of a
/// slot is its own **shared hold of the same lock** is *not* a blocker:
/// the requester would join that thread's reader crowd, and two shared
/// holders of one lock cannot block each other, so the mutual-wait pattern
/// the signature predicts cannot run through that pair. Without this
/// carve-out every reader joining a crowd at a history position would be
/// parked against its own crowd-mates — a spurious (fail-safe) refusal.
///
/// `candidates` is the caller's reusable buffer of per-slot candidate
/// lists. The monolithic engine's avoidance check is the one-shard call
/// (`home = 0`) — one implementation, so the single-engine and sharded
/// decisions cannot drift.
pub(crate) fn find_instantiation_merged<S: EngineSlot>(
    shards: &[S],
    home: usize,
    thread: OwnerId,
    outer: PositionId,
    lock: LockId,
    mode: AccessMode,
    candidates: &mut Vec<Vec<OwnerId>>,
) -> Option<Instantiation> {
    let snapshot = shards[home].engine().history_snapshot();
    'sigs: for &sig in snapshot.index().signatures_at(outer) {
        let slots = snapshot.index().outer_positions_of(sig);
        // An injective assignment of k slots touches at most k - 1 distinct
        // owners besides the pre-assigned requester, so a deterministic
        // prefix of k candidates per slot decides the matching exactly (any
        // slot offering ≥ k non-requester candidates can always be covered
        // last); the cap keeps each check O(arity²) however many thousands
        // of tasks crowd the position.
        let cap = slots.len();
        if candidates.len() < cap {
            candidates.resize_with(cap, Vec::new);
        }
        for (k, slot) in slots.iter().enumerate() {
            let set = &mut candidates[k];
            set.clear();
            for s in shards {
                let s = s.engine();
                let Some(pid) = s.local_position_of_outer(*slot) else {
                    continue;
                };
                let Some(p) = s.positions().get(pid) else {
                    continue;
                };
                // Crowd-mates (shared mode: owners whose only occupancy
                // of this slot is a shared hold of the requested lock)
                // are not adversaries and must not consume the cap.
                set.extend(
                    p.queue()
                        .distinct_owners_where(|c| {
                            c != thread
                                && !(mode.is_shared() && crowd_mate_occupancy(s, p, c, lock, pid))
                        })
                        .take(cap),
                );
            }
            if shards.len() > 1 {
                // Union of per-shard prefixes: the smallest `cap`
                // survivors are present in the merged prefix too.
                set.sort_unstable();
                set.dedup();
                set.truncate(cap);
            }
            if set.is_empty() && *slot != outer {
                // An unoccupied slot is only coverable by the pre-assigned
                // requester, and the requester stands at `outer`: this
                // signature cannot instantiate, whatever the other slots
                // hold. Bail before paying for the rest of the build and
                // the matching — the common case at a popular outer
                // position, where most co-indexed signatures have at least
                // one cold slot.
                continue 'sigs;
            }
        }
        let r = instantiable_with_candidates(slots, &candidates[..cap], thread, outer);
        if let Some(blockers) = r {
            // The one shared match point of the monolithic and sharded
            // request paths: refresh the antibody's eviction generation so
            // a signature that is actively steering schedules never counts
            // as stale.
            snapshot.note_matched(sig);
            return Some(Instantiation {
                signature: sig,
                blockers,
            });
        }
    }
    None
}

/// True if every occupancy of position `pid` (whose data `p` the caller
/// already holds) by thread `c` in shard `s` is explained by a shared hold
/// of `lock` itself — i.e. `c` covers the slot only as a member of the
/// reader crowd the requester is about to join. The owner-entry probe runs
/// first so the O(queue) occupancy count is paid only for actual
/// crowd-mates, never for ordinary candidates.
fn crowd_mate_occupancy(
    s: &Dimmunix,
    p: &crate::Position,
    c: OwnerId,
    lock: LockId,
    pid: PositionId,
) -> bool {
    let crowd = s
        .rag()
        .owner_entry(lock, c)
        .map(|o| usize::from(o.mode.is_shared() && o.pos == pid))
        .unwrap_or(0);
    crowd > 0 && p.queue().count(c) <= crowd
}

/// Merged equivalent of the engine's `would_starve`: true if parking `t`
/// would close a wait-for cycle through one of its blockers.
fn would_starve_merged<S: EngineSlot>(shards: &[S], t: OwnerId, blockers: &[OwnerId]) -> bool {
    let mut stack: Vec<OwnerId> = blockers.to_vec();
    let mut visited: Vec<OwnerId> = Vec::new();
    let mut edges = Vec::new();
    while let Some(current) = stack.pop() {
        if current == t {
            return true;
        }
        if visited.contains(&current) {
            continue;
        }
        visited.push(current);
        edges.clear();
        merged_successors(shards, current, true, &mut edges);
        stack.extend(edges.iter().map(|(next, _)| *next));
    }
    false
}

/// Merged equivalent of the engine's `starvation_signature`.
fn starvation_signature_merged<S: EngineSlot>(
    shards: &[S],
    home: usize,
    pos: PositionId,
    blockers: &[OwnerId],
) -> Signature {
    let mut pairs = Vec::with_capacity(1 + blockers.len());
    let requester_stack = stack_at(shards, Some((home, pos)));
    pairs.push(SignaturePair::new(requester_stack.clone(), requester_stack));
    for b in blockers {
        let requesting = requesting_any(shards, *b).map(|(s, _, p)| (s, p));
        let outer = last_history_hold_merged(shards, *b)
            .or_else(|| last_hold_merged(shards, *b))
            .or(requesting);
        let inner = requesting.or(outer);
        pairs.push(SignaturePair::new(
            stack_at(shards, outer),
            stack_at(shards, inner),
        ));
    }
    Signature::new(SignatureKind::Starvation, pairs)
}

/// Appends `sig` to the shared history and installs the successor snapshot
/// into every shard. The append itself — snapshot construction plus one
/// history-log record — happens exactly once, on the first shard; the
/// remaining shards only swap their `Arc` and reconcile their local
/// position links. `shards` must contain every shard, held under the
/// all-shard lock (ascending order) when the shards live behind mutexes.
///
/// Exposed so substrates that wrap shards in their own mutexes
/// (`dimmunix-rt`) install antibodies through the identical code path.
pub fn broadcast_signature<S: EngineSlot>(shards: &mut [S], sig: Signature) -> (SignatureId, bool) {
    let (first, rest) = shards.split_first_mut().expect("at least one shard");
    let first = first.engine_mut();
    let (id, new) = first.insert_signature(sig);
    if new {
        let snapshot = Arc::clone(first.history_snapshot());
        for s in rest.iter_mut() {
            s.engine_mut().install_snapshot(Arc::clone(&snapshot));
        }
    }
    debug_assert!(
        shards.windows(2).all(|w| Arc::ptr_eq(
            w[0].engine().history_snapshot(),
            w[1].engine().history_snapshot()
        )),
        "shards must share one history snapshot"
    );
    (id, new)
}

// ----------------------------------------------------------------------
// The deterministic sharded engine
// ----------------------------------------------------------------------

/// Per-thread routing bookkeeping kept outside the shards.
#[derive(Debug, Clone, Copy, Default)]
struct OwnerRoute {
    /// Bit `s` set while the thread holds at least one lock on shard `s`.
    holds_mask: u64,
    /// Shard still carrying the thread's request edge or yield record from a
    /// request that was answered with `Yield` or `DeadlockDetected` (the
    /// substrate may never complete those acquisitions).
    stale_shard: Option<usize>,
}

/// A sharded, deterministic Dimmunix engine.
///
/// Semantically a [`Dimmunix`] whose state is partitioned by lock id across
/// `N` internal shards (see the module docs for the ownership model). Like
/// the monolithic engine it contains no interior locking: `dimmunix-rt`
/// wraps each shard in its own mutex, while tests and simulators drive this
/// type directly and rely on its determinism.
///
/// ```
/// use dimmunix_core::{CallStack, Config, Frame, LockId, ShardedDimmunix, OwnerId};
///
/// let mut engine = ShardedDimmunix::new(Config::default(), 8);
/// let t = OwnerId::thread(1);
/// let l = LockId::new(1);
/// let site = CallStack::single(Frame::new("worker", "app.rs", 42));
/// assert!(engine.request(t, l, &site).is_granted());
/// engine.acquired(t, l);
/// let _wake = engine.released(t, l);
/// assert_eq!(engine.stats().grants, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedDimmunix {
    shards: Vec<Dimmunix>,
    router: ShardRouter,
    /// Global acquisition counter stamped into every shard's RAG holds.
    next_seq: u64,
    owner_routes: FnvMap<OwnerId, OwnerRoute>,
}

impl ShardedDimmunix {
    /// Creates a sharded engine with `shards` shards (clamped to
    /// `1..=`[`MAX_SHARDS`]). If the configuration names a history log, it
    /// is replayed once and the resulting snapshot is shared by every
    /// shard.
    pub fn new(config: Config, shards: usize) -> Self {
        let first = Dimmunix::new(config.clone());
        Self::from_first(config, shards, first)
    }

    /// Creates a sharded engine with an explicit starting history. The
    /// snapshot is bulk-built once and shared by every shard.
    pub fn with_history(config: Config, shards: usize, history: History) -> Self {
        let first = Dimmunix::with_history(config.clone(), history);
        Self::from_first(config, shards, first)
    }

    /// Completes construction from the first shard: the remaining shards
    /// receive clones of its snapshot `Arc`, never their own copy.
    fn from_first(config: Config, shards: usize, mut first: Dimmunix) -> Self {
        let router = ShardRouter::new(shards);
        let snapshot = Arc::clone(first.history_snapshot());
        // One stack interner serves every shard: a site hot on several
        // shards is resident once, not once per shard.
        let interner = Arc::new(crate::StackInterner::new());
        first.share_stack_interner(Arc::clone(&interner));
        let mut engines = Vec::with_capacity(router.shard_count());
        engines.push(first);
        for _ in 1..router.shard_count() {
            let mut shard = Dimmunix::with_snapshot(config.clone(), Arc::clone(&snapshot));
            shard.share_stack_interner(Arc::clone(&interner));
            engines.push(shard);
        }
        ShardedDimmunix {
            shards: engines,
            router,
            next_seq: 1,
            owner_routes: FnvMap::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lock-id router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shard owning `lock`.
    pub fn shard_of(&self, lock: LockId) -> usize {
        self.router.shard_of(lock)
    }

    /// Read access to one shard (tests and diagnostics).
    pub fn shard(&self, index: usize) -> &Dimmunix {
        &self.shards[index]
    }

    /// Diagnostics of the history-log recovery performed at construction
    /// (the replay happens once, on the first shard; see
    /// [`Dimmunix::recovery_report`]). `None` when no log replay happened.
    pub fn recovery_report(&self) -> Option<&crate::RecoveryReport> {
        self.shards[0].recovery_report()
    }

    /// The engine configuration (identical across shards).
    pub fn config(&self) -> &Config {
        self.shards[0].config()
    }

    /// The deadlock history (read from the shared snapshot).
    pub fn history(&self) -> &History {
        self.shards[0].history()
    }

    /// The shared history snapshot all shards read.
    pub fn history_snapshot(&self) -> &Arc<HistorySnapshot> {
        self.shards[0].history_snapshot()
    }

    /// Rolled-up activity counters: the sum of every shard's [`Stats`].
    pub fn stats(&self) -> Stats {
        Stats::merged(self.shards.iter().map(|s| s.stats()))
    }

    /// Estimated resident memory added by the sharded engine, in bytes.
    /// The shared history snapshot is charged **once**; each shard adds
    /// only its local state (positions, RAG, outer links), so the figure
    /// stays essentially flat as the shard count grows.
    pub fn memory_footprint_bytes(&self) -> usize {
        self.history_snapshot().memory_footprint_bytes()
            + self
                .shards
                .iter()
                .map(|s| s.local_memory_footprint_bytes())
                .sum::<usize>()
    }

    /// Registers an owner (thread or task) on every shard. Idempotent.
    pub fn register_owner(&mut self, t: impl Into<OwnerId>) {
        let t = t.into();
        for s in &mut self.shards {
            s.register_owner(t);
        }
    }

    /// Unregisters a terminated owner on every shard, force-releasing
    /// anything it still held; returns the merged wake-up list.
    pub fn unregister_owner(&mut self, t: impl Into<OwnerId>) -> Vec<SignatureId> {
        let t = t.into();
        let mut wake = Vec::new();
        for s in &mut self.shards {
            wake.extend(s.unregister_owner(t));
        }
        wake.sort_unstable_by_key(|s| s.index());
        wake.dedup();
        self.owner_routes.remove(&t);
        wake
    }

    /// Registers a lock on its home shard. Idempotent.
    pub fn register_lock(&mut self, l: LockId) {
        let home = self.router.shard_of(l);
        self.shards[home].register_lock(l);
    }

    /// Unregisters a lock from its home shard.
    pub fn unregister_lock(&mut self, l: LockId) {
        let home = self.router.shard_of(l);
        self.shards[home].unregister_lock(l);
    }

    /// Adds a signature to the shared history and installs the successor
    /// snapshot into every shard; returns its id and whether it was new.
    pub fn add_signature(&mut self, sig: Signature) -> (SignatureId, bool) {
        broadcast_signature(&mut self.shards, sig)
    }

    /// Called before a monitor (exclusive) acquisition; see
    /// [`Dimmunix::request`].
    ///
    /// Requests that cannot touch another shard's state are decided inside
    /// the home shard; the rest take the cross-shard snapshot path.
    pub fn request(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        stack: &CallStack,
    ) -> RequestOutcome {
        self.request_mode(t, l, stack, AccessMode::Exclusive)
    }

    /// Called before an acquisition in the given access mode; see
    /// [`Dimmunix::request_mode`].
    pub fn request_mode(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        stack: &CallStack,
        mode: AccessMode,
    ) -> RequestOutcome {
        let t = t.into();
        let home = self.router.shard_of(l);
        let route = self.owner_routes.entry(t).or_default();
        let stale = route.stale_shard;
        // Scoped degradation: with the lock-free admission path enabled, a
        // parked owner only degrades requests its yield record could actually
        // involve in a cycle — those naming `t` in a blocker list (a yield
        // edge is the only possible in-edge to a hold-free requester, so any
        // cycle through `t` must traverse one). Everyone else stays on the
        // shard-local fast path. The legacy gate degrades on *any* park.
        let any_parked = if self.shards[home].config().lock_free_admission {
            self.shards
                .iter()
                .any(|s| s.rag().yield_count() > 0 && s.rag().lists_yield_blocker(t))
        } else {
            self.shards.iter().any(|s| s.rag().yield_count() > 0)
        };
        let fast_ok = fast_path_eligible(route.holds_mask, stale, any_parked, home);

        let outcome = if fast_ok {
            match try_request_local(&mut self.shards[home], t, l, stack, mode) {
                LocalDecision::Decided(outcome) => outcome,
                LocalDecision::NeedsCrossShard => {
                    request_cross_shard(&mut self.shards, &self.router, t, l, stack, mode, stale)
                }
            }
        } else {
            request_cross_shard(&mut self.shards, &self.router, t, l, stack, mode, stale)
        };

        let disabled = self.shards[home].config().is_disabled();
        let route = self.owner_routes.entry(t).or_default();
        route.stale_shard = stale_shard_after(&outcome, stale, home, disabled);
        outcome
    }

    /// Called right after the monitor acquisition succeeded; see
    /// [`Dimmunix::acquired`]. Stamps the hold with the engine-global
    /// acquisition sequence.
    pub fn acquired(&mut self, t: impl Into<OwnerId>, l: LockId) {
        let t = t.into();
        let home = self.router.shard_of(l);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[home].acquired_with_seq(t, l, seq);
        self.refresh_route(t, home);
        let route = self.owner_routes.entry(t).or_default();
        // The acquisition consumed the home shard's request edge.
        route.stale_shard = stale_shard_consumed(route.stale_shard, home);
    }

    /// Called right before the monitor is released; see
    /// [`Dimmunix::released`].
    pub fn released(&mut self, t: impl Into<OwnerId>, l: LockId) -> Vec<SignatureId> {
        let mut wake = Vec::new();
        self.released_into(t, l, &mut wake);
        wake
    }

    /// Allocation-free release path; see [`Dimmunix::released_into`].
    pub fn released_into(&mut self, t: impl Into<OwnerId>, l: LockId, wake: &mut Vec<SignatureId>) {
        let t = t.into();
        let home = self.router.shard_of(l);
        self.shards[home].released_into(t, l, wake);
        self.refresh_route(t, home);
    }

    /// Abandons a granted-but-never-completed acquisition; see
    /// [`Dimmunix::cancel_request`].
    pub fn cancel_request(&mut self, t: impl Into<OwnerId>, l: LockId) {
        let t = t.into();
        let home = self.router.shard_of(l);
        self.shards[home].cancel_request(t, l);
        let route = self.owner_routes.entry(t).or_default();
        route.stale_shard = stale_shard_consumed(route.stale_shard, home);
    }

    /// Drains wake-ups scheduled outside the release path (starvation
    /// resolution) from every shard; see
    /// [`Dimmunix::take_pending_wakeups`].
    pub fn take_pending_wakeups(&mut self) -> Vec<SignatureId> {
        let mut out = Vec::new();
        for s in &mut self.shards {
            out.extend(s.take_pending_wakeups());
        }
        out
    }

    /// Rewrites the configured history log to exactly the shared history
    /// (compaction); see [`Dimmunix::save_history`]. Normal operation
    /// appends single records instead.
    ///
    /// # Errors
    /// Returns an error if no path is configured or the write fails.
    pub fn save_history(&self) -> crate::error::Result<()> {
        self.shards[0].save_history()
    }

    /// Re-derives the thread's holds-mask bit for `shard` from that shard's
    /// RAG (exact, so the fast-path precondition can never drift).
    fn refresh_route(&mut self, t: OwnerId, shard: usize) {
        let holds = !self.shards[shard].rag().held_locks(t).is_empty();
        let route = self.owner_routes.entry(t).or_default();
        route.holds_mask = holds_mask_with(route.holds_mask, shard, holds);
    }
}
