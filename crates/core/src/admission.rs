//! Lock-free admission summary.
//!
//! The sharded engine's fast path still serializes every acquisition on the
//! home-shard mutex, and one avoidance park degrades *every* request in the
//! process to the ordered all-shard path. This module is the atomic summary
//! that lets the runtime admit the overwhelmingly common case — a thread
//! holding nothing, acquiring at a position no signature mentions, with no
//! parked owner naming it as a blocker — with **zero shard locks**: a
//! seqlock-style epoch read over a few cache lines.
//!
//! ## What the summary may prove
//!
//! An [`AdmissionSummary`] conservatively over-approximates two facts about
//! the engine state:
//!
//! - **"this site is in no signature"** — a Bloom bitset over the
//!   [`SiteKey`]s of every outer position the history has ever contained.
//!   Bits are only ever set (never cleared), so a *clear* probe proves the
//!   site never appeared in any signature: the avoidance check at this
//!   position is vacuous, and a grant here cannot occupy a slot another
//!   thread's instantiation check would look at.
//! - **"no parked owner waits on me"** — striped reference counts over the
//!   blocker lists of all live yield records. A zero stripe proves no yield
//!   edge points at this owner. Combined with the caller's guarantee that
//!   it holds no lock (so no request edge points at it either), the owner
//!   has **no in-edge in the wait-for relation**, and no deadlock cycle can
//!   run through it — granting is exactly what the monolithic oracle would
//!   decide.
//!
//! The converse direction is *not* proven: a set Bloom bit or a non-zero
//! stripe may be a collision or a stale blocker snapshot. Any doubt routes
//! the request to the locked engine path, which remains the
//! property-tested oracle.
//!
//! ## What the summary may NOT prove
//!
//! A fast-admitted hold is **invisible to the engine** until the owner's
//! next slow-path request publishes it (see the runtime's
//! publish-on-slow-path). If a signature naming the admitted site is
//! inserted *after* the epoch-validated read, the in-section owner does not
//! occupy the new signature's avoidance slot, so another thread may be
//! admitted where strict slot accounting would have parked it. This is
//! fail-safe, not unsound: avoidance in Dimmunix is best-effort by design
//! (the paper's own avoidance races with detection), and the detection
//! backstop still fires on the real cycle because every multi-hold owner is
//! fully published before its closing request. The seqlock epoch narrows
//! the window to installs that overlap the read itself.
//!
//! ## Memory ordering
//!
//! Writers (history installs absorbing new outer positions into the Bloom
//! set) run under the engine's all-shard lock order, so there is at most
//! one writer at a time; the epoch is bumped to odd before mutating and
//! back to even after (`AcqRel`), and readers reject any read that saw an
//! odd epoch or different epochs before/after. Yield-record bookkeeping
//! (blocker stripes, park counts) is *not* epoch-fenced: each component
//! read is individually conservative — stripe increments only happen for
//! owners that hold or occupy something (never a fast-path candidate), and
//! a stale decrement can only send the reader to the slow path. All data
//! loads use `Acquire`, all stores `Release`, so a reader that observes the
//! second (even, equal) epoch load also observes every Bloom bit the
//! writer published before it.

use crate::callstack::SiteKey;
use crate::rag::YieldRecord;
use crate::sharded::MAX_SHARDS;
use crate::snapshot::HistorySnapshot;
use crate::OwnerId;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Number of 64-bit words in the Bloom bitset (4096 bits).
const BLOOM_WORDS: usize = 64;
/// Number of blocker reference-count stripes.
const BLOCKER_STRIPES: usize = 256;

/// Outcome of a lock-free admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The epoch-validated read proved the request irrelevant to every
    /// signature and every parked owner: acquire without consulting the
    /// engine. `degraded` is true when the admission succeeded while some
    /// owner was parked elsewhere in the process — the scoped-degradation
    /// win the global `parked` flag used to forfeit.
    Admit {
        /// True if some owner was parked somewhere at admission time.
        degraded: bool,
    },
    /// Doubt (Bloom hit, blocker stripe hit, or a racing history install):
    /// take the locked engine path.
    Fallback,
}

/// Process-wide atomic summary backing the lock-free admission path.
///
/// One instance is shared by every shard engine of a runtime (attached via
/// [`Dimmunix::attach_admission_summary`]); the engines keep it current as
/// a side effect of their (locked) state transitions, and the runtime reads
/// it without locks. See the module docs for the exact guarantees.
///
/// [`Dimmunix::attach_admission_summary`]: crate::engine::Dimmunix::attach_admission_summary
pub struct AdmissionSummary {
    /// Seqlock epoch: odd while a history install is being absorbed.
    epoch: AtomicU64,
    /// Set-only Bloom bitset over the site keys of all history outer
    /// positions, past and present.
    bloom: [AtomicU64; BLOOM_WORDS],
    /// Striped refcounts of owners named in live yield records' blockers.
    blockers: [AtomicU32; BLOCKER_STRIPES],
    /// Owners currently parked by avoidance, per shard.
    parked_per_shard: [AtomicU32; MAX_SHARDS],
    /// Owners currently parked by avoidance, process-wide.
    parked_total: AtomicU64,
    /// Outer-table prefix already folded into the Bloom set (outer ids are
    /// append-only, so absorption is incremental and idempotent).
    absorbed_outers: AtomicU64,
    // Metric counters (see `Stats` for their rendered form).
    fast_admits: AtomicU64,
    slow_fallbacks: AtomicU64,
    degradation_scope_hits: AtomicU64,
    fast_acquires: AtomicU64,
    fast_releases: AtomicU64,
    fast_cancels: AtomicU64,
    published: AtomicU64,
}

impl Default for AdmissionSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl AdmissionSummary {
    /// Creates an empty summary (empty Bloom set, no parked owners).
    pub fn new() -> Self {
        AdmissionSummary {
            epoch: AtomicU64::new(0),
            bloom: std::array::from_fn(|_| AtomicU64::new(0)),
            blockers: std::array::from_fn(|_| AtomicU32::new(0)),
            parked_per_shard: std::array::from_fn(|_| AtomicU32::new(0)),
            parked_total: AtomicU64::new(0),
            absorbed_outers: AtomicU64::new(0),
            fast_admits: AtomicU64::new(0),
            slow_fallbacks: AtomicU64::new(0),
            degradation_scope_hits: AtomicU64::new(0),
            fast_acquires: AtomicU64::new(0),
            fast_releases: AtomicU64::new(0),
            fast_cancels: AtomicU64::new(0),
            published: AtomicU64::new(0),
        }
    }

    fn blocker_stripe(owner: OwnerId) -> usize {
        // Keep thread and task identity spaces apart before striping.
        let raw = match owner {
            OwnerId::Thread(t) => t.index() << 1,
            OwnerId::Task(t) => (t.index() << 1) | 1,
        };
        (raw.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % BLOCKER_STRIPES
    }

    /// True if `key` *may* be the site of a history outer position. A
    /// `false` answer is definitive: no signature ever mentioned the site.
    pub fn site_may_be_in_history(&self, key: SiteKey) -> bool {
        key.bloom_probes(BLOOM_WORDS)
            .iter()
            .all(|&(word, mask)| self.bloom[word].load(Ordering::Acquire) & mask != 0)
    }

    /// True if `owner` *may* be named as a blocker by a live yield record.
    /// A `false` answer is definitive at the instant of the load: no yield
    /// edge points at the owner.
    pub fn is_blocker(&self, owner: OwnerId) -> bool {
        self.blockers[Self::blocker_stripe(owner)].load(Ordering::Acquire) != 0
    }

    /// Owners currently parked by avoidance, process-wide.
    pub fn parked_total(&self) -> u64 {
        self.parked_total.load(Ordering::Acquire)
    }

    /// Owners currently parked by avoidance on `shard`.
    pub fn parked_on_shard(&self, shard: usize) -> u64 {
        self.parked_per_shard
            .get(shard)
            .map(|c| c.load(Ordering::Acquire) as u64)
            .unwrap_or(0)
    }

    /// The epoch-validated lock-free admission check: admits iff a
    /// consistent read proves `key` is in no signature and no parked owner
    /// waits on `owner`. Counts [`Stats::fast_admits`],
    /// [`Stats::slow_fallbacks`], and [`Stats::degradation_scope_hits`] as
    /// a side effect.
    ///
    /// The caller must guarantee that `owner` holds no lock and occupies no
    /// position queue (the runtime's `holds_mask == 0`, no fast-held lock,
    /// no outstanding request); that is what upgrades "no yield edge" into
    /// "no in-edge at all, no cycle can run through this owner".
    ///
    /// [`Stats::fast_admits`]: crate::Stats::fast_admits
    /// [`Stats::slow_fallbacks`]: crate::Stats::slow_fallbacks
    /// [`Stats::degradation_scope_hits`]: crate::Stats::degradation_scope_hits
    pub fn try_admit(&self, key: SiteKey, owner: OwnerId) -> Admission {
        for _ in 0..2 {
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 1 {
                // A history install is absorbing; retry once, then fall back.
                continue;
            }
            if self.site_may_be_in_history(key) || self.is_blocker(owner) {
                self.slow_fallbacks.fetch_add(1, Ordering::Relaxed);
                return Admission::Fallback;
            }
            let degraded = self.parked_total() > 0;
            let after = self.epoch.load(Ordering::Acquire);
            if before == after {
                self.fast_admits.fetch_add(1, Ordering::Relaxed);
                if degraded {
                    self.degradation_scope_hits.fetch_add(1, Ordering::Relaxed);
                }
                return Admission::Admit { degraded };
            }
        }
        self.slow_fallbacks.fetch_add(1, Ordering::Relaxed);
        Admission::Fallback
    }

    /// Folds any not-yet-absorbed outer positions of `snapshot` into the
    /// Bloom set. Idempotent and incremental: outer ids are append-only, so
    /// a broadcast install over N shards does the scan once and N-1 O(1)
    /// skips. Must not run concurrently with itself (callers hold the
    /// engine's all-shard lock order, or are single-threaded).
    pub fn absorb_snapshot(&self, snapshot: &HistorySnapshot) {
        let len = snapshot.outer_len() as u64;
        let start = self.absorbed_outers.load(Ordering::Acquire);
        if start >= len {
            return;
        }
        self.epoch.fetch_add(1, Ordering::AcqRel); // odd: writer active
        let outers = snapshot.outer_table();
        for id in start..len {
            if let Some(stack) = outers.stack(crate::position::PositionId::new(id as u32)) {
                for (word, mask) in stack.site_key().bloom_probes(BLOOM_WORDS) {
                    self.bloom[word].fetch_or(mask, Ordering::Release);
                }
            }
        }
        self.absorbed_outers.store(len, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel); // even: quiescent
    }

    /// Records that an owner parked on `shard` with `record`'s blockers.
    pub(crate) fn note_yield(&self, record: &YieldRecord, shard: usize) {
        for b in &record.blockers {
            self.blockers[Self::blocker_stripe(*b)].fetch_add(1, Ordering::Release);
        }
        if let Some(c) = self.parked_per_shard.get(shard) {
            c.fetch_add(1, Ordering::Release);
        }
        self.parked_total.fetch_add(1, Ordering::Release);
    }

    /// Reverses [`note_yield`](Self::note_yield) for a cleared record.
    pub(crate) fn note_yield_cleared(&self, record: &YieldRecord, shard: usize) {
        for b in &record.blockers {
            self.blockers[Self::blocker_stripe(*b)].fetch_sub(1, Ordering::Release);
        }
        if let Some(c) = self.parked_per_shard.get(shard) {
            c.fetch_sub(1, Ordering::Release);
        }
        self.parked_total.fetch_sub(1, Ordering::Release);
    }

    /// Counts an engine-invisible acquisition completed on the fast path.
    pub fn note_fast_acquire(&self) {
        self.fast_acquires.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an engine-invisible release completed on the fast path.
    pub fn note_fast_release(&self) {
        self.fast_releases.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a cancelled fast-path admission (e.g. a failed `try_lock`).
    pub fn note_fast_cancel(&self) {
        self.fast_cancels.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a fast-held lock published into the engine by a slow-path
    /// request (its request/grant/acquisition are then counted by the
    /// engine, so aggregation subtracts `published` once from each).
    pub fn note_published(&self) {
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Fast-path admissions granted without any shard lock.
    pub fn fast_admits(&self) -> u64 {
        self.fast_admits.load(Ordering::Relaxed)
    }

    /// Fast-path-eligible attempts that failed validation and fell back.
    pub fn slow_fallbacks(&self) -> u64 {
        self.slow_fallbacks.load(Ordering::Relaxed)
    }

    /// Fast admissions that succeeded while some owner was parked elsewhere
    /// (requests the old global `parked` flag would have degraded).
    pub fn degradation_scope_hits(&self) -> u64 {
        self.degradation_scope_hits.load(Ordering::Relaxed)
    }

    /// Engine-invisible acquisitions completed on the fast path.
    pub fn fast_acquires(&self) -> u64 {
        self.fast_acquires.load(Ordering::Relaxed)
    }

    /// Engine-invisible releases completed on the fast path.
    pub fn fast_releases(&self) -> u64 {
        self.fast_releases.load(Ordering::Relaxed)
    }

    /// Cancelled fast-path admissions.
    pub fn fast_cancels(&self) -> u64 {
        self.fast_cancels.load(Ordering::Relaxed)
    }

    /// Fast-held locks later published into the engine by a slow-path
    /// request.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for AdmissionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionSummary")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("parked_total", &self.parked_total())
            .field(
                "absorbed_outers",
                &self.absorbed_outers.load(Ordering::Relaxed),
            )
            .field("fast_admits", &self.fast_admits())
            .field("slow_fallbacks", &self.slow_fallbacks())
            .field("degradation_scope_hits", &self.degradation_scope_hits())
            .field("published", &self.published())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LockId;
    use crate::SignatureId;

    fn record(blockers: Vec<OwnerId>) -> YieldRecord {
        YieldRecord {
            signature: SignatureId::new(0),
            position: crate::position::PositionId::new(0),
            lock: LockId::new(0),
            blockers,
        }
    }

    #[test]
    fn empty_summary_admits_everyone() {
        let s = AdmissionSummary::new();
        assert_eq!(
            s.try_admit(SiteKey::new(42), OwnerId::thread(1)),
            Admission::Admit { degraded: false }
        );
        assert_eq!(s.fast_admits(), 1);
        assert_eq!(s.slow_fallbacks(), 0);
    }

    #[test]
    fn blocker_refcounts_gate_and_release() {
        let s = AdmissionSummary::new();
        let t1 = OwnerId::thread(1);
        let rec = record(vec![t1]);
        s.note_yield(&rec, 0);
        assert!(s.is_blocker(t1));
        assert_eq!(s.parked_total(), 1);
        assert_eq!(s.parked_on_shard(0), 1);
        assert_eq!(s.try_admit(SiteKey::new(7), t1), Admission::Fallback);
        assert_eq!(s.slow_fallbacks(), 1);
        // A *different* owner is still admitted — scoped degradation.
        match s.try_admit(SiteKey::new(7), OwnerId::thread(999)) {
            Admission::Admit { degraded } => assert!(degraded),
            other => panic!("expected scoped admit, got {other:?}"),
        }
        assert_eq!(s.degradation_scope_hits(), 1);
        s.note_yield_cleared(&rec, 0);
        assert!(!s.is_blocker(t1));
        assert_eq!(s.parked_total(), 0);
    }

    #[test]
    fn thread_and_task_spaces_do_not_collide_via_identity() {
        let s = AdmissionSummary::new();
        let rec = record(vec![OwnerId::thread(5)]);
        s.note_yield(&rec, 0);
        // The stripe is a hash, so a task *may* collide, but the identical
        // raw index must not collide by construction of the pre-mix.
        assert_ne!(
            AdmissionSummary::blocker_stripe(OwnerId::thread(5)),
            AdmissionSummary::blocker_stripe(OwnerId::task(5)),
        );
        s.note_yield_cleared(&rec, 0);
    }

    #[test]
    fn absorbed_sites_fall_back_and_absorption_is_idempotent() {
        use crate::history::History;
        use crate::signature::{Signature, SignatureKind, SignaturePair};
        use crate::{CallStack, Frame};

        let stack = CallStack::single(Frame::new("m1", "f.rs", 1));
        let inner = CallStack::single(Frame::new("m2", "f.rs", 2));
        let sig = Signature::new(
            SignatureKind::Deadlock,
            vec![SignaturePair::new(stack.clone(), inner)],
        );
        let mut history = History::new();
        history.add(sig);
        let snap = HistorySnapshot::build(history, 1);

        let s = AdmissionSummary::new();
        assert!(!s.site_may_be_in_history(stack.site_key()));
        s.absorb_snapshot(&snap);
        assert!(s.site_may_be_in_history(stack.site_key()));
        assert_eq!(
            s.try_admit(stack.site_key(), OwnerId::thread(1)),
            Admission::Fallback
        );
        let epoch_after = s.epoch.load(Ordering::Relaxed);
        s.absorb_snapshot(&snap); // no new outers: O(1) skip, no epoch bump
        assert_eq!(s.epoch.load(Ordering::Relaxed), epoch_after);
        assert_eq!(epoch_after % 2, 0, "epoch must end even");
    }
}
