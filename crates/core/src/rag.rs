//! The resource allocation graph (RAG).
//!
//! Dimmunix maintains the synchronization state of the process in a RAG
//! (§2.2): lock nodes point to the owners holding them (annotated with the
//! call stack of each acquisition, `acqPos`), and owner nodes point to the
//! lock they are currently requesting (annotated with the requesting call
//! stack). A cycle through a requesting owner means a deadlock is about to
//! occur. Owners parked by the avoidance module add *yield* edges towards
//! the owners blocking the matched signature; cycles through yield edges are
//! avoidance-induced deadlocks (starvation).
//!
//! The graph is keyed by [`OwnerId`], not raw thread ids: the paper's
//! thread-keyed RAG is the `OwnerId::Thread` instantiation, and async
//! substrates feed `OwnerId::Task` identities so cycles among tasks
//! multiplexed onto a small worker pool stay visible. The engine never
//! inspects which arm an owner is — every query below is owner-agnostic.
//!
//! ## Multi-owner lock nodes
//!
//! The paper's RAG models Java monitors: one owner per lock. This graph
//! generalizes the lock node to a **set of owners**, each with its own
//! acquisition position, [`AccessMode`], and recursion depth, so
//! reader–writer locks are represented exactly: every reader of a crowd
//! holds its own edge, a writer blocked behind the crowd waits on *all*
//! current readers (the wait-for successors fan out per owner), and
//! releasing one owner leaves the others untouched. Mutexes and monitors
//! are the one-owner special case ([`AccessMode::Exclusive`]), for which
//! every query below degenerates to the paper's single-owner semantics.

use crate::fnv::FnvMap;
use crate::position::PositionId;
use crate::{LockId, OwnerId, SignatureId};

/// How an owner holds (or requests) a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Mutual exclusion: a mutex, a monitor, or the write side of an rwlock.
    Exclusive,
    /// Shared access: the read side of an rwlock. Shared holders of the same
    /// lock do not block each other.
    Shared,
}

impl AccessMode {
    /// True if a holder in `self` mode blocks (or is blocked by) a holder or
    /// requester in `other` mode on the same lock. Only shared/shared is
    /// compatible.
    pub fn conflicts_with(self, other: AccessMode) -> bool {
        !(self == AccessMode::Shared && other == AccessMode::Shared)
    }

    /// True for [`AccessMode::Shared`].
    pub fn is_shared(self) -> bool {
        self == AccessMode::Shared
    }
}

/// Why an owner is waiting on another owner in the wait-for relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitEdge {
    /// The owner requests this lock, held by the successor owner.
    Lock(LockId),
    /// The owner was parked by avoidance and waits for the successor owner
    /// (one of the blockers of the matched signature) to make progress.
    Yield(SignatureId),
}

/// Record attached to an owner parked by the avoidance module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YieldRecord {
    /// The history signature whose instantiation is being avoided.
    pub signature: SignatureId,
    /// The position the parked owner was requesting at.
    pub position: PositionId,
    /// The lock the parked owner wanted to acquire.
    pub lock: LockId,
    /// The other owners currently covering the signature's outer positions.
    pub blockers: Vec<OwnerId>,
}

/// One lock currently held by an owner: the lock, its acquisition position
/// (`acqPos`), its access mode, and the acquisition sequence number.
///
/// The sequence number is what keeps "latest hold" queries meaningful when
/// the engine state is sharded by lock id: each shard's RAG only sees the
/// holds of its own locks, so a merged view re-establishes the global
/// acquisition order by sorting on `seq` (the sharded engine feeds every
/// shard from one monotonic counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldEntry {
    /// The held lock.
    pub lock: LockId,
    /// Call-stack position of the acquisition.
    pub pos: PositionId,
    /// Whether the hold is exclusive or shared.
    pub mode: AccessMode,
    /// Monotonic acquisition sequence number (engine-global in the sharded
    /// configuration, per-RAG otherwise).
    pub seq: u64,
}

/// An outstanding lock request: the lock, the requesting position, and the
/// requested access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RequestEdge {
    lock: LockId,
    pos: PositionId,
    mode: AccessMode,
}

/// Per-owner RAG node (a thread's or task's synchronization state).
#[derive(Debug, Clone, Default)]
pub struct OwnerNode {
    /// Outstanding lock request, if any, with the requesting position.
    requesting: Option<RequestEdge>,
    /// Locks currently held, in acquisition order, with their `acqPos`.
    held: Vec<HeldEntry>,
    /// Present while the owner is parked by avoidance.
    yielding: Option<YieldRecord>,
    /// Request approved by the last `request` grant, consumed by `acquire`.
    pending_grant: Option<RequestEdge>,
}

/// One owner of a lock: the holding owner, the call-stack position of its
/// acquisition (`acqPos` in §3.2), its access mode, and its own recursion
/// depth (Java monitors are reentrant; each owner re-enters independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockOwner {
    /// The holding owner (thread or task).
    pub owner: OwnerId,
    /// Call-stack position of this owner's acquisition.
    pub pos: PositionId,
    /// Whether this owner holds the lock exclusively or shared.
    pub mode: AccessMode,
    /// This owner's reentrant acquisition depth.
    pub recursion: u32,
}

/// Per-lock RAG node: the set of current owners. Exclusive holds have one
/// owner; a reader crowd has one owner entry per reader.
#[derive(Debug, Clone, Default)]
pub struct LockNode {
    owners: Vec<LockOwner>,
}

/// One step of a wait-for cycle: `owner` waits on the *next* entry's owner
/// through `edge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleStep {
    /// The waiting owner.
    pub owner: OwnerId,
    /// Why it waits on the next owner in the cycle.
    pub edge: WaitEdge,
}

/// The resource allocation graph.
#[derive(Debug, Clone, Default)]
pub struct Rag {
    owners_map: FnvMap<OwnerId, OwnerNode>,
    locks: FnvMap<LockId, LockNode>,
    /// Fallback acquisition counter used when the caller does not supply a
    /// sequence number (single-engine configuration).
    next_seq: u64,
    /// Number of owners currently parked by avoidance (with a yield
    /// record). The sharded engine's fast path is only sound while this is
    /// zero on every shard: a yield record's blocker list is a snapshot, so
    /// a wait-for cycle can run through an owner that holds no lock at all.
    yield_records: usize,
}

impl Rag {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the graph in place, keeping the map allocations warm. Used
    /// by the schedule explorer's engine-reuse reset: a simulated run
    /// touches a handful of owners and locks, so retaining capacity across
    /// hundreds of thousands of runs avoids re-growing the tables each time.
    pub fn clear(&mut self) {
        self.owners_map.clear();
        self.locks.clear();
        self.next_seq = 0;
        self.yield_records = 0;
    }

    /// Number of registered owners.
    pub fn owner_count(&self) -> usize {
        self.owners_map.len()
    }

    /// Number of registered locks.
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }

    /// Registers an owner node (idempotent).
    pub fn register_owner(&mut self, t: OwnerId) {
        self.owners_map.entry(t).or_default();
    }

    /// Removes an owner node, returning the locks it still held (with their
    /// acquisition positions) so the caller can clean up position queues.
    pub fn unregister_owner(&mut self, t: OwnerId) -> Vec<HeldEntry> {
        let node = self.owners_map.remove(&t).unwrap_or_default();
        if node.yielding.is_some() {
            self.yield_records -= 1;
        }
        for entry in &node.held {
            if let Some(l) = self.locks.get_mut(&entry.lock) {
                l.owners.retain(|o| o.owner != t);
            }
        }
        node.held
    }

    /// Registers a lock node (idempotent). This is the analogue of inflating
    /// a thin lock into a fat `Monitor` that can carry a RAG node (§4).
    pub fn register_lock(&mut self, l: LockId) {
        self.locks.entry(l).or_default();
    }

    /// Removes a lock node (e.g. the monitor object was garbage collected).
    pub fn unregister_lock(&mut self, l: LockId) -> Option<LockNode> {
        self.locks.remove(&l)
    }

    /// True if the owner is registered.
    pub fn has_owner(&self, t: OwnerId) -> bool {
        self.owners_map.contains_key(&t)
    }

    /// True if the lock is registered.
    pub fn has_lock(&self, l: LockId) -> bool {
        self.locks.contains_key(&l)
    }

    /// The *sole* owner of `l`, if it has exactly one. This is the
    /// single-owner view mutex/monitor substrates reason with; a reader
    /// crowd (several owners) answers `None` — use [`owners`](Rag::owners)
    /// for the full set.
    pub fn owner(&self, l: LockId) -> Option<OwnerId> {
        match self.owners(l) {
            [single] => Some(single.owner),
            _ => None,
        }
    }

    /// Every current owner of `l`, in acquisition order (empty if the lock
    /// is unregistered or free).
    pub fn owners(&self, l: LockId) -> &[LockOwner] {
        self.locks
            .get(&l)
            .map(|n| n.owners.as_slice())
            .unwrap_or(&[])
    }

    /// True if `t` is among the current owners of `l` (any mode).
    pub fn owns(&self, l: LockId, t: OwnerId) -> bool {
        self.owner_entry(l, t).is_some()
    }

    /// The owner entry of `t` on `l`, if `t` currently holds it.
    pub fn owner_entry(&self, l: LockId, t: OwnerId) -> Option<&LockOwner> {
        self.owners(l).iter().find(|o| o.owner == t)
    }

    /// Acquisition position (`acqPos`) of `t`'s hold on `l`. With
    /// multi-owner lock nodes the template position of a cycle edge comes
    /// from the owner *actually on the cycle*, not from an arbitrary
    /// representative.
    pub fn acq_pos_of(&self, l: LockId, t: OwnerId) -> Option<PositionId> {
        self.owner_entry(l, t).map(|o| o.pos)
    }

    /// Reentrant acquisition depth of `t`'s hold on `l` (0 if `t` does not
    /// hold it).
    pub fn recursion_of(&self, l: LockId, t: OwnerId) -> u32 {
        self.owner_entry(l, t).map(|o| o.recursion).unwrap_or(0)
    }

    /// Locks held by `t` with their acquisition positions, in acquisition
    /// order (ascending [`HeldEntry::seq`]).
    pub fn held_locks(&self, t: OwnerId) -> &[HeldEntry] {
        self.owners_map
            .get(&t)
            .map(|n| n.held.as_slice())
            .unwrap_or(&[])
    }

    /// The lock and position `t` is currently requesting, if any.
    pub fn requesting(&self, t: OwnerId) -> Option<(LockId, PositionId)> {
        self.owners_map
            .get(&t)
            .and_then(|n| n.requesting)
            .map(|r| (r.lock, r.pos))
    }

    /// The access mode of `t`'s outstanding request, if any.
    pub fn requesting_mode(&self, t: OwnerId) -> Option<AccessMode> {
        self.owners_map
            .get(&t)
            .and_then(|n| n.requesting)
            .map(|r| r.mode)
    }

    /// The yield record of `t`, if it is parked by avoidance.
    pub fn yielding(&self, t: OwnerId) -> Option<&YieldRecord> {
        self.owners_map.get(&t).and_then(|n| n.yielding.as_ref())
    }

    /// Live yield records, keyed by their parked owner (unordered).
    pub fn yield_records(&self) -> impl Iterator<Item = (OwnerId, &YieldRecord)> {
        self.owners_map
            .iter()
            .filter_map(|(t, n)| n.yielding.as_ref().map(|y| (*t, y)))
    }

    /// True if any live yield record names `t` among its blockers, i.e. a
    /// yield edge points *at* `t` in the wait-for relation. Together with
    /// "t holds no lock" (no request edge can point at it either) this
    /// proves no cycle can run through `t` — the soundness condition of the
    /// scoped-degradation admission gate.
    pub fn lists_yield_blocker(&self, t: OwnerId) -> bool {
        self.yield_records().any(|(_, y)| y.blockers.contains(&t))
    }

    /// Owners currently parked by avoidance.
    pub fn yielding_owners(&self) -> Vec<OwnerId> {
        let mut v: Vec<OwnerId> = self
            .owners_map
            .iter()
            .filter(|(_, n)| n.yielding.is_some())
            .map(|(t, _)| *t)
            .collect();
        v.sort_unstable();
        v
    }

    /// Records that `t` requests `l` at position `pos`, exclusively.
    pub fn set_request(&mut self, t: OwnerId, l: LockId, pos: PositionId) {
        self.set_request_mode(t, l, pos, AccessMode::Exclusive);
    }

    /// Records that `t` requests `l` at position `pos` in `mode`.
    pub fn set_request_mode(&mut self, t: OwnerId, l: LockId, pos: PositionId, mode: AccessMode) {
        self.register_owner(t);
        self.register_lock(l);
        if let Some(n) = self.owners_map.get_mut(&t) {
            n.requesting = Some(RequestEdge { lock: l, pos, mode });
        }
    }

    /// Clears the outstanding request of `t`.
    pub fn clear_request(&mut self, t: OwnerId) {
        if let Some(n) = self.owners_map.get_mut(&t) {
            n.requesting = None;
        }
    }

    /// Marks owner `t` as parked by avoidance.
    pub fn set_yield(&mut self, t: OwnerId, record: YieldRecord) {
        self.register_owner(t);
        if let Some(n) = self.owners_map.get_mut(&t) {
            if n.yielding.is_none() {
                self.yield_records += 1;
            }
            n.yielding = Some(record);
        }
    }

    /// Clears the parked state of `t`; returns the record if one was set.
    pub fn clear_yield(&mut self, t: OwnerId) -> Option<YieldRecord> {
        let taken = self.owners_map.get_mut(&t).and_then(|n| n.yielding.take());
        if taken.is_some() {
            self.yield_records -= 1;
        }
        taken
    }

    /// Number of owners currently parked by avoidance in this graph.
    pub fn yield_count(&self) -> usize {
        self.yield_records
    }

    /// Stores the position and mode approved by a grant, consumed by
    /// [`acquire`].
    ///
    /// [`acquire`]: Rag::acquire
    pub fn set_pending_grant(&mut self, t: OwnerId, l: LockId, pos: PositionId, mode: AccessMode) {
        self.register_owner(t);
        if let Some(n) = self.owners_map.get_mut(&t) {
            n.pending_grant = Some(RequestEdge { lock: l, pos, mode });
        }
    }

    /// The lock, position, and mode approved by the last grant for `t`, if
    /// any.
    pub fn pending_grant(&self, t: OwnerId) -> Option<(LockId, PositionId, AccessMode)> {
        self.owners_map
            .get(&t)
            .and_then(|n| n.pending_grant)
            .map(|g| (g.lock, g.pos, g.mode))
    }

    /// Removes and returns the pending grant of `t`, if any.
    pub fn take_pending_grant(&mut self, t: OwnerId) -> Option<(LockId, PositionId, AccessMode)> {
        self.owners_map
            .get_mut(&t)
            .and_then(|n| n.pending_grant.take())
            .map(|g| (g.lock, g.pos, g.mode))
    }

    /// Records that `t` acquired `l` at position `pos` (first, non-recursive
    /// acquisition, exclusive): adds the hold edge and an owner entry,
    /// clears the request. The acquisition is stamped from this RAG's own
    /// monotonic counter.
    pub fn acquire(&mut self, t: OwnerId, l: LockId, pos: PositionId) {
        let seq = self.next_seq;
        self.acquire_with_seq(t, l, pos, seq);
    }

    /// [`acquire`](Rag::acquire) with an explicit acquisition sequence
    /// number. The sharded engine calls this with a globally monotonic
    /// counter so holds distributed over several shard RAGs can be merged
    /// back into acquisition order.
    pub fn acquire_with_seq(&mut self, t: OwnerId, l: LockId, pos: PositionId, seq: u64) {
        self.acquire_mode_with_seq(t, l, pos, AccessMode::Exclusive, seq);
    }

    /// [`acquire_with_seq`](Rag::acquire_with_seq) with an explicit access
    /// mode: the owner entry joins the lock's owner set (a shared
    /// acquisition joins the existing reader crowd; an exclusive one is the
    /// sole owner in a well-behaved substrate).
    pub fn acquire_mode_with_seq(
        &mut self,
        t: OwnerId,
        l: LockId,
        pos: PositionId,
        mode: AccessMode,
        seq: u64,
    ) {
        self.next_seq = self.next_seq.max(seq).saturating_add(1);
        self.register_owner(t);
        self.register_lock(l);
        if let Some(n) = self.owners_map.get_mut(&t) {
            n.requesting = None;
            n.pending_grant = None;
            n.held.push(HeldEntry {
                lock: l,
                pos,
                mode,
                seq,
            });
        }
        if let Some(ln) = self.locks.get_mut(&l) {
            debug_assert!(
                ln.owners.iter().all(|o| o.owner != t),
                "first acquisition of an already-owned lock; use acquire_recursive"
            );
            ln.owners.push(LockOwner {
                owner: t,
                pos,
                mode,
                recursion: 1,
            });
        }
    }

    /// The sequence number the next un-stamped [`acquire`](Rag::acquire)
    /// would use.
    pub fn next_acquire_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records a recursive (reentrant) acquisition of a lock `t` already
    /// owns (any mode): bumps `t`'s own recursion depth; other owners are
    /// untouched.
    pub fn acquire_recursive(&mut self, t: OwnerId, l: LockId) {
        if let Some(n) = self.owners_map.get_mut(&t) {
            n.requesting = None;
            n.pending_grant = None;
        }
        if let Some(ln) = self.locks.get_mut(&l) {
            let owner = ln.owners.iter_mut().find(|o| o.owner == t);
            debug_assert!(owner.is_some(), "recursive acquisition by a non-owner");
            if let Some(o) = owner {
                o.recursion = o.recursion.saturating_add(1);
            }
        }
    }

    /// Records that `t` releases `l`: removes `t`'s own owner entry, leaving
    /// any co-owners (the rest of a reader crowd) in place. For recursive
    /// acquisitions the entry is only removed when `t`'s recursion count
    /// drops to zero; the return value is `t`'s acquisition position when
    /// its hold is actually released, or `None` for a nested exit or a
    /// release of a lock `t` does not own.
    pub fn release(&mut self, t: OwnerId, l: LockId) -> Option<PositionId> {
        let ln = self.locks.get_mut(&l)?;
        let idx = ln.owners.iter().position(|o| o.owner == t)?;
        if ln.owners[idx].recursion > 1 {
            ln.owners[idx].recursion -= 1;
            return None;
        }
        let pos = ln.owners.remove(idx).pos;
        if let Some(n) = self.owners_map.get_mut(&t) {
            if let Some(idx) = n.held.iter().rposition(|e| e.lock == l) {
                n.held.remove(idx);
            }
        }
        Some(pos)
    }

    /// Successor owners of `t` in the wait-for relation, together with the
    /// edge kind. A request fans out to **every** owner whose mode conflicts
    /// with the requested one: a writer blocked behind a reader crowd waits
    /// on all of its readers, while a reader joining the crowd waits on no
    /// one. `include_yields` selects whether avoidance-parked owners
    /// contribute edges (needed for starvation detection).
    pub fn successors(&self, t: OwnerId, include_yields: bool) -> Vec<(OwnerId, WaitEdge)> {
        let mut out = Vec::new();
        self.successors_into(t, include_yields, &mut out);
        out
    }

    /// [`successors`](Rag::successors) appended to a caller-owned buffer,
    /// so the detection search reuses one edge buffer across all nodes.
    pub fn successors_into(
        &self,
        t: OwnerId,
        include_yields: bool,
        out: &mut Vec<(OwnerId, WaitEdge)>,
    ) {
        let Some(node) = self.owners_map.get(&t) else {
            return;
        };
        if let Some(edge) = node.requesting {
            for owner in self.owners(edge.lock) {
                if owner.owner != t && edge.mode.conflicts_with(owner.mode) {
                    out.push((owner.owner, WaitEdge::Lock(edge.lock)));
                }
            }
        }
        if include_yields {
            if let Some(y) = &node.yielding {
                for b in &y.blockers {
                    if *b != t {
                        out.push((*b, WaitEdge::Yield(y.signature)));
                    }
                }
            }
        }
    }

    /// Searches for a wait-for cycle containing `start`.
    ///
    /// Returns the cycle as an ordered list of steps: entry `i` waits on the
    /// owner of entry `(i + 1) % len` through the given edge. Returns `None`
    /// if `start` is not part of any cycle.
    pub fn find_cycle_from(&self, start: OwnerId, include_yields: bool) -> Option<Vec<CycleStep>> {
        let mut scratch = CycleScratch::default();
        find_cycle_in(start, &mut scratch, |t, out| {
            self.successors_into(t, include_yields, out)
        })
        .then_some(scratch.path)
    }

    /// Estimated resident memory of the graph in bytes.
    pub fn memory_footprint_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for n in self.owners_map.values() {
            total += std::mem::size_of::<OwnerId>() + std::mem::size_of::<OwnerNode>();
            total += n.held.capacity() * std::mem::size_of::<HeldEntry>();
            if let Some(y) = &n.yielding {
                total += y.blockers.capacity() * std::mem::size_of::<OwnerId>();
            }
        }
        for n in self.locks.values() {
            total += std::mem::size_of::<LockId>() + std::mem::size_of::<LockNode>();
            total += n.owners.capacity() * std::mem::size_of::<LockOwner>();
        }
        total
    }
}

/// Reusable buffers of the wait-for cycle search, so an engine that keeps
/// one searches without allocating once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub(crate) struct CycleScratch {
    /// The cycle found by the last successful search.
    pub(crate) path: Vec<CycleStep>,
    on_path: Vec<OwnerId>,
    visited: Vec<OwnerId>,
    /// Successor edges of every node on the search stack, concatenated.
    edges: Vec<(OwnerId, WaitEdge)>,
    frames: Vec<DfsFrame>,
}

/// One node on the search stack: its owner and its slice of `edges`.
#[derive(Debug, Clone, Copy)]
struct DfsFrame {
    owner: OwnerId,
    start: usize,
    end: usize,
    cursor: usize,
}

/// Depth-first search for a wait-for cycle through `start`, leaving the
/// cycle in `scratch.path` and returning whether one was found.
///
/// The successor function abstracts the graph away: [`Rag::find_cycle_from`]
/// searches one RAG, the sharded engine a function that concatenates the
/// successor edges of every shard's RAG — exactly the wait-for relation a
/// single monolithic RAG would contain (an owner's out-edges all live in the
/// shard that handled its outstanding request). Entry `i` of
/// the path waits on the owner of entry `(i + 1) % len` through its edge.
/// `successors(t, out)` appends `t`'s out-edges to `out`.
///
/// Iterative, over one flat edge buffer, but visits nodes and edges in
/// exactly the order of the textbook recursion (each node's successors are
/// listed once, when the search enters it), so the cycle it reports is the
/// recursive search's cycle. Out-degree per owner is 1 (the requested
/// lock's holders) plus the blockers of a yield record, so the graph is
/// tiny in practice.
pub(crate) fn find_cycle_in<F>(
    start: OwnerId,
    scratch: &mut CycleScratch,
    mut successors: F,
) -> bool
where
    F: FnMut(OwnerId, &mut Vec<(OwnerId, WaitEdge)>),
{
    let CycleScratch {
        path,
        on_path,
        visited,
        edges,
        frames,
    } = scratch;
    path.clear();
    on_path.clear();
    visited.clear();
    edges.clear();
    frames.clear();
    let mut enter = |owner: OwnerId,
                     edges: &mut Vec<(OwnerId, WaitEdge)>,
                     frames: &mut Vec<DfsFrame>,
                     on_path: &mut Vec<OwnerId>| {
        on_path.push(owner);
        let start = edges.len();
        successors(owner, edges);
        frames.push(DfsFrame {
            owner,
            start,
            end: edges.len(),
            cursor: start,
        });
    };
    enter(start, edges, frames, on_path);
    while let Some(frame) = frames.last_mut() {
        let current = frame.owner;
        if frame.cursor == frame.end {
            // Every successor explored: the node is a dead end.
            edges.truncate(frame.start);
            frames.pop();
            on_path.pop();
            visited.push(current);
            if frames.is_empty() {
                return false;
            }
            path.pop();
            continue;
        }
        let (next, edge) = edges[frame.cursor];
        frame.cursor += 1;
        if next == start {
            // A self-loop on `start` itself is ignored (reentrant
            // acquisitions never produce one); any other edge back to
            // `start` closes the cycle.
            if !path.is_empty() || current != start {
                path.push(CycleStep {
                    owner: current,
                    edge,
                });
                return true;
            }
            continue;
        }
        if on_path.contains(&next) || visited.contains(&next) {
            continue;
        }
        path.push(CycleStep {
            owner: current,
            edge,
        });
        enter(next, edges, frames, on_path);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> OwnerId {
        OwnerId::thread(i)
    }
    fn l(i: u64) -> LockId {
        LockId::new(i)
    }
    fn p(i: u32) -> PositionId {
        PositionId::new(i)
    }

    #[test]
    fn acquire_release_updates_ownership() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        assert_eq!(rag.owner(l(1)), Some(t(1)));
        assert_eq!(rag.acq_pos_of(l(1), t(1)), Some(p(0)));
        assert_eq!(rag.held_locks(t(1)).len(), 1);
        assert_eq!(rag.release(t(1), l(1)), Some(p(0)));
        assert_eq!(rag.owner(l(1)), None);
        assert!(rag.held_locks(t(1)).is_empty());
    }

    #[test]
    fn recursive_acquisition_releases_only_at_depth_zero() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.acquire_recursive(t(1), l(1));
        assert_eq!(rag.recursion_of(l(1), t(1)), 2);
        assert_eq!(rag.release(t(1), l(1)), None);
        assert_eq!(rag.owner(l(1)), Some(t(1)));
        assert_eq!(rag.release(t(1), l(1)), Some(p(0)));
        assert_eq!(rag.owner(l(1)), None);
    }

    #[test]
    fn shared_owners_coexist_and_release_individually() {
        let mut rag = Rag::new();
        rag.acquire_mode_with_seq(t(1), l(1), p(1), AccessMode::Shared, 1);
        rag.acquire_mode_with_seq(t(2), l(1), p(2), AccessMode::Shared, 2);
        assert_eq!(rag.owners(l(1)).len(), 2);
        // Two owners: no *sole* owner.
        assert_eq!(rag.owner(l(1)), None);
        assert!(rag.owns(l(1), t(1)));
        assert!(rag.owns(l(1), t(2)));
        // Each owner keeps its own acquisition position.
        assert_eq!(rag.acq_pos_of(l(1), t(1)), Some(p(1)));
        assert_eq!(rag.acq_pos_of(l(1), t(2)), Some(p(2)));
        // Releasing one leaves the other's hold (and position) intact.
        assert_eq!(rag.release(t(1), l(1)), Some(p(1)));
        assert_eq!(rag.owner(l(1)), Some(t(2)));
        assert_eq!(rag.acq_pos_of(l(1), t(2)), Some(p(2)));
        assert_eq!(rag.release(t(2), l(1)), Some(p(2)));
        assert!(rag.owners(l(1)).is_empty());
    }

    #[test]
    fn writer_request_fans_out_to_every_reader() {
        let mut rag = Rag::new();
        rag.acquire_mode_with_seq(t(1), l(1), p(1), AccessMode::Shared, 1);
        rag.acquire_mode_with_seq(t(2), l(1), p(2), AccessMode::Shared, 2);
        // A writer waits on *all* current readers...
        rag.set_request_mode(t(3), l(1), p(3), AccessMode::Exclusive);
        let succ: Vec<OwnerId> = rag
            .successors(t(3), false)
            .iter()
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(succ, vec![t(1), t(2)]);
        // ...while a reader joining the crowd waits on no one.
        rag.set_request_mode(t(4), l(1), p(4), AccessMode::Shared);
        assert!(rag.successors(t(4), false).is_empty());
        // A reader blocked behind an exclusive owner does wait.
        let mut rag2 = Rag::new();
        rag2.acquire(t(1), l(1), p(0));
        rag2.set_request_mode(t(2), l(1), p(1), AccessMode::Shared);
        assert_eq!(rag2.successors(t(2), false).len(), 1);
    }

    #[test]
    fn cycle_through_one_reader_of_a_crowd_is_found() {
        let mut rag = Rag::new();
        // r1 and r2 share lock 1; t3 owns lock 2 and requests lock 1
        // (exclusive); r2 requests lock 2. Cycle: t3 -> r2 -> t3, through
        // the non-first reader.
        rag.acquire_mode_with_seq(t(1), l(1), p(1), AccessMode::Shared, 1);
        rag.acquire_mode_with_seq(t(2), l(1), p(2), AccessMode::Shared, 2);
        rag.acquire(t(3), l(2), p(3));
        rag.set_request_mode(t(3), l(1), p(4), AccessMode::Exclusive);
        assert!(rag.find_cycle_from(t(3), false).is_none());
        rag.set_request_mode(t(2), l(2), p(5), AccessMode::Shared);
        let cycle = rag.find_cycle_from(t(2), false).expect("cycle");
        let threads: Vec<OwnerId> = cycle.iter().map(|s| s.owner).collect();
        assert!(threads.contains(&t(2)) && threads.contains(&t(3)));
        assert!(!threads.contains(&t(1)), "t1 is not on the cycle");
    }

    #[test]
    fn access_mode_conflicts() {
        use AccessMode::*;
        assert!(Exclusive.conflicts_with(Exclusive));
        assert!(Exclusive.conflicts_with(Shared));
        assert!(Shared.conflicts_with(Exclusive));
        assert!(!Shared.conflicts_with(Shared));
        assert!(Shared.is_shared() && !Exclusive.is_shared());
    }

    #[test]
    fn release_by_non_owner_is_ignored() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        assert_eq!(rag.release(t(2), l(1)), None);
        assert_eq!(rag.owner(l(1)), Some(t(1)));
    }

    #[test]
    fn two_thread_cycle_is_found() {
        let mut rag = Rag::new();
        // t1 holds l1, t2 holds l2, t1 requests l2, t2 requests l1.
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.set_request(t(1), l(2), p(2));
        assert!(rag.find_cycle_from(t(1), false).is_none());
        rag.set_request(t(2), l(1), p(3));
        let cycle = rag.find_cycle_from(t(2), false).expect("cycle");
        assert_eq!(cycle.len(), 2);
        let threads: Vec<OwnerId> = cycle.iter().map(|s| s.owner).collect();
        assert!(threads.contains(&t(1)));
        assert!(threads.contains(&t(2)));
    }

    #[test]
    fn three_thread_cycle_is_found() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.acquire(t(3), l(3), p(2));
        rag.set_request(t(1), l(2), p(3));
        rag.set_request(t(2), l(3), p(4));
        rag.set_request(t(3), l(1), p(5));
        let cycle = rag.find_cycle_from(t(3), false).expect("cycle");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn no_cycle_for_chain() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.set_request(t(2), l(1), p(2));
        assert!(rag.find_cycle_from(t(2), false).is_none());
    }

    #[test]
    fn yield_edges_participate_only_when_requested() {
        let mut rag = Rag::new();
        // t1 holds l1 and requests l2 owned by t2; t2 is parked yielding on t1.
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.set_request(t(1), l(2), p(2));
        rag.set_request(t(2), l(3), p(3));
        rag.register_lock(l(3));
        rag.set_yield(
            t(2),
            YieldRecord {
                signature: SignatureId::new(0),
                position: p(3),
                lock: l(3),
                blockers: vec![t(1)],
            },
        );
        assert!(rag.find_cycle_from(t(1), false).is_none());
        let cycle = rag.find_cycle_from(t(1), true).expect("starvation cycle");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.iter().any(|s| matches!(s.edge, WaitEdge::Yield(_))));
    }

    #[test]
    fn unregister_thread_frees_owned_locks() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(1), l(2), p(1));
        let held = rag.unregister_owner(t(1));
        assert_eq!(held.len(), 2);
        assert_eq!(rag.owner(l(1)), None);
        assert_eq!(rag.owner(l(2)), None);
        assert!(!rag.has_owner(t(1)));
    }

    #[test]
    fn pending_grant_roundtrip() {
        let mut rag = Rag::new();
        rag.set_pending_grant(t(1), l(5), p(7), AccessMode::Shared);
        assert_eq!(
            rag.pending_grant(t(1)),
            Some((l(5), p(7), AccessMode::Shared))
        );
        rag.acquire(t(1), l(5), p(7));
        assert_eq!(rag.pending_grant(t(1)), None);
    }

    #[test]
    fn successors_skip_self_edges() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.set_request(t(1), l(1), p(1));
        assert!(rag.successors(t(1), true).is_empty());
    }

    /// The textbook recursive search the iterative one replaced, kept as
    /// its oracle: both must report the same cycle, edge for edge.
    fn recursive_oracle(
        start: OwnerId,
        succ: &dyn Fn(OwnerId) -> Vec<(OwnerId, WaitEdge)>,
    ) -> Option<Vec<CycleStep>> {
        fn dfs(
            current: OwnerId,
            target: OwnerId,
            succ: &dyn Fn(OwnerId) -> Vec<(OwnerId, WaitEdge)>,
            path: &mut Vec<CycleStep>,
            on_path: &mut Vec<OwnerId>,
            visited: &mut Vec<OwnerId>,
        ) -> bool {
            on_path.push(current);
            for (next, edge) in succ(current) {
                if next == target && (!path.is_empty() || current != target) {
                    path.push(CycleStep {
                        owner: current,
                        edge,
                    });
                    on_path.pop();
                    return true;
                }
                if next == target || on_path.contains(&next) || visited.contains(&next) {
                    continue;
                }
                path.push(CycleStep {
                    owner: current,
                    edge,
                });
                if dfs(next, target, succ, path, on_path, visited) {
                    on_path.pop();
                    return true;
                }
                path.pop();
            }
            on_path.pop();
            visited.push(current);
            false
        }
        let mut path = Vec::new();
        dfs(
            start,
            start,
            succ,
            &mut path,
            &mut Vec::new(),
            &mut Vec::new(),
        )
        .then_some(path)
    }

    #[test]
    fn iterative_search_matches_the_recursive_oracle() {
        // Seeded random wait-for graphs, dense enough that most starts sit on
        // several cycles, so the *order* of exploration decides the answer.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut scratch = CycleScratch::default();
        for _ in 0..2000 {
            let nodes = 2 + next(7);
            let graph: Vec<Vec<(OwnerId, WaitEdge)>> = (0..nodes)
                .map(|_| {
                    (0..next(4))
                        .map(|e| {
                            let edge = if next(3) == 0 {
                                WaitEdge::Yield(SignatureId::new(e as usize))
                            } else {
                                WaitEdge::Lock(l(e))
                            };
                            (t(next(nodes)), edge)
                        })
                        .collect()
                })
                .collect();
            let succ = |o: OwnerId| match o {
                OwnerId::Thread(id) => graph[id.index() as usize].clone(),
                OwnerId::Task(_) => Vec::new(),
            };
            for start in 0..nodes {
                let found = find_cycle_in(t(start), &mut scratch, |o, out| out.extend(succ(o)));
                let expected = recursive_oracle(t(start), &succ);
                assert_eq!(found.then(|| scratch.path.clone()), expected);
            }
        }
    }

    #[test]
    fn memory_footprint_grows() {
        let mut rag = Rag::new();
        let base = rag.memory_footprint_bytes();
        for i in 0..32 {
            rag.acquire(t(i), l(i), p(0));
        }
        assert!(rag.memory_footprint_bytes() > base);
    }
}
