//! Runtime counters kept by the engine.
//!
//! These back the evaluation harness: synchronization throughput (Table 1 and
//! the §5 microbenchmark), avoidance activity, and memory accounting.

use std::fmt;

/// Monotonic counters describing one engine instance's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Calls to `request` (one per monitorenter attempt).
    pub requests: u64,
    /// Requests approved immediately or after retries.
    pub grants: u64,
    /// Recursive (reentrant) acquisitions granted on the fast path.
    pub reentrant_grants: u64,
    /// `acquired` notifications.
    pub acquisitions: u64,
    /// `released` notifications that actually released the monitor.
    pub releases: u64,
    /// `acquired` notifications that deepened an already-held monitor
    /// (recursive re-entries). These increment `acquisitions` but their
    /// matching exits do not increment `releases`, so at quiescence the
    /// reentrant balance identity holds:
    /// `acquisitions - nested_reentries == releases` (`>=` while owners are
    /// mid-critical-section or were force-released by `unregister_owner`).
    /// See [`Stats::reentrant_balance`].
    pub nested_reentries: u64,
    /// Requests answered with a yield (the thread had to park).
    pub yields: u64,
    /// Distinct times a real deadlock cycle was detected.
    pub deadlocks_detected: u64,
    /// New deadlock signatures added to the history.
    pub new_deadlock_signatures: u64,
    /// Avoidance-induced deadlocks (starvation) detected.
    pub starvations_detected: u64,
    /// New starvation signatures added to the history.
    pub new_starvation_signatures: u64,
    /// Instantiation checks performed by the avoidance module.
    pub instantiation_checks: u64,
    /// Candidate signatures actually examined across all instantiation
    /// checks. With the inverted avoidance index this stays near zero on
    /// deadlock-free workloads (only signatures indexed at the requesting
    /// position are touched); a linear scan would grow it by |history| per
    /// check.
    pub signatures_examined: u64,
    /// Wake-ups issued on the release path (threads resumed from signature
    /// condition variables).
    pub wakeups: u64,
    /// Antibodies retired by generation-based eviction at `max_signatures`
    /// (never matched within the configured eviction window). Zero under
    /// the paper-faithful `refuse_at_capacity` configuration.
    pub signatures_evicted: u64,
    /// New antibodies refused because the history was at `max_signatures`
    /// under the paper-faithful `refuse_at_capacity` configuration. Zero
    /// under the default eviction configuration.
    pub history_full_refusals: u64,
    /// Acquisitions admitted by the lock-free admission path (an
    /// epoch-validated read over the
    /// [`AdmissionSummary`](crate::AdmissionSummary), no shard lock taken).
    /// Always zero in the core engines — the runtime layer folds the
    /// summary's counters into its aggregate view.
    pub fast_admits: u64,
    /// Fast-path-eligible attempts that failed the lock-free validation
    /// (Bloom hit, blocker-stripe hit, or a racing history install) and
    /// fell back to the locked engine path. Zero in the core engines.
    pub slow_fallbacks: u64,
    /// Fast admissions granted *while some owner was parked* elsewhere in
    /// the process — requests the old global `parked` flag would have
    /// degraded to the all-shard path but scoped degradation kept fast.
    /// Zero in the core engines.
    pub degradation_scope_hits: u64,
    /// Avoidance parks of OS threads that ended on the runtime's 50 ms
    /// safety timeout rather than on a wake-up. Every release that can end
    /// a park wakes its gate, so on a healthy runtime this stays zero; a
    /// rising count means lost wake-ups. Zero in the core engines.
    pub gate_timeouts: u64,
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total synchronizations completed (acquire/release pairs observed).
    pub fn synchronizations(&self) -> u64 {
        self.acquisitions
    }

    /// The reentrant balance: top-level acquisitions not yet matched by a
    /// release (`acquisitions - nested_reentries - releases`). Zero at
    /// quiescence when every owner released what it acquired; positive while
    /// monitors are held (or after `unregister_owner` force-released holds
    /// without a `released` notification). The engine debug-asserts this
    /// never goes negative.
    pub fn reentrant_balance(&self) -> i64 {
        (self.acquisitions - self.nested_reentries) as i64 - self.releases as i64
    }

    /// Fraction of requests that had to yield (a rough false-positive proxy:
    /// on deadlock-free runs every yield is conservative serialization).
    pub fn yield_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.yields as f64 / self.requests as f64
        }
    }

    /// Rolls a collection of counters (per-shard, or per-process) up into
    /// one aggregate view. The sharded engine keeps one `Stats` per shard so
    /// the hot path never contends on a shared counter; observers read the
    /// sum.
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a Stats>) -> Stats {
        let mut total = Stats::new();
        for s in stats {
            total.merge(s);
        }
        total
    }

    /// Adds another set of counters to this one (used to aggregate
    /// per-process stats into platform-wide numbers).
    pub fn merge(&mut self, other: &Stats) {
        self.requests += other.requests;
        self.grants += other.grants;
        self.reentrant_grants += other.reentrant_grants;
        self.acquisitions += other.acquisitions;
        self.releases += other.releases;
        self.nested_reentries += other.nested_reentries;
        self.yields += other.yields;
        self.deadlocks_detected += other.deadlocks_detected;
        self.new_deadlock_signatures += other.new_deadlock_signatures;
        self.starvations_detected += other.starvations_detected;
        self.new_starvation_signatures += other.new_starvation_signatures;
        self.instantiation_checks += other.instantiation_checks;
        self.signatures_examined += other.signatures_examined;
        self.wakeups += other.wakeups;
        self.signatures_evicted += other.signatures_evicted;
        self.history_full_refusals += other.history_full_refusals;
        self.fast_admits += other.fast_admits;
        self.slow_fallbacks += other.slow_fallbacks;
        self.degradation_scope_hits += other.degradation_scope_hits;
        self.gate_timeouts += other.gate_timeouts;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} grants={} reentrant={} acquisitions={} releases={} reentries={} \
             yields={} deadlocks={} (new sigs {}) starvations={} (new sigs {}) checks={} \
             examined={} wakeups={} evicted={} refusals={} fast_admits={} slow_fallbacks={} \
             degradation_scope_hits={} gate_timeouts={}",
            self.requests,
            self.grants,
            self.reentrant_grants,
            self.acquisitions,
            self.releases,
            self.nested_reentries,
            self.yields,
            self.deadlocks_detected,
            self.new_deadlock_signatures,
            self.starvations_detected,
            self.new_starvation_signatures,
            self.instantiation_checks,
            self.signatures_examined,
            self.wakeups,
            self.signatures_evicted,
            self.history_full_refusals,
            self.fast_admits,
            self.slow_fallbacks,
            self.degradation_scope_hits,
            self.gate_timeouts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_counters() {
        let mut a = Stats {
            requests: 1,
            grants: 2,
            reentrant_grants: 3,
            acquisitions: 4,
            releases: 5,
            nested_reentries: 1,
            yields: 6,
            deadlocks_detected: 7,
            new_deadlock_signatures: 8,
            starvations_detected: 9,
            new_starvation_signatures: 10,
            instantiation_checks: 11,
            signatures_examined: 13,
            wakeups: 12,
            signatures_evicted: 14,
            history_full_refusals: 15,
            fast_admits: 16,
            slow_fallbacks: 17,
            degradation_scope_hits: 18,
            gate_timeouts: 19,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.requests, 2);
        assert_eq!(a.wakeups, 24);
        assert_eq!(a.signatures_examined, 26);
        assert_eq!(a.synchronizations(), 8);
        assert_eq!(a.nested_reentries, 2);
        assert_eq!(a.signatures_evicted, 28);
        assert_eq!(a.history_full_refusals, 30);
        assert_eq!(a.fast_admits, 32);
        assert_eq!(a.slow_fallbacks, 34);
        assert_eq!(a.degradation_scope_hits, 36);
        assert_eq!(a.gate_timeouts, 38);
    }

    #[test]
    fn reentrant_balance_tracks_outstanding_holds() {
        let s = Stats {
            acquisitions: 10,
            nested_reentries: 3,
            releases: 7,
            ..Stats::new()
        };
        // 10 acquisitions, 3 of which were recursive re-entries whose exits
        // never reach `releases`: at quiescence 10 - 3 == 7.
        assert_eq!(s.reentrant_balance(), 0);
        let held = Stats {
            acquisitions: 5,
            nested_reentries: 1,
            releases: 2,
            ..Stats::new()
        };
        assert_eq!(held.reentrant_balance(), 2);
    }

    #[test]
    fn yield_rate_handles_zero_requests() {
        assert_eq!(Stats::new().yield_rate(), 0.0);
        let s = Stats {
            requests: 10,
            yields: 5,
            ..Stats::new()
        };
        assert!((s.yield_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(Stats::new().to_string().contains("requests=0"));
    }
}
