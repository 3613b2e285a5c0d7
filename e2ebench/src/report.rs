//! Metric names and units, the end-to-end estimators, output checks, and
//! the result line.

use crate::stats::{median, median_ratio, percentile};
use std::collections::BTreeMap;

/// End-to-end metrics, in `BENCHMARK.json` order: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_ops_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("overhead_vs_bare", "x"),
    ("ops_ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("immune_memory_mb", "MB"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("rt.admit_ns_p50", "ns"),
    ("rt.admit_ns_p99", "ns"),
    ("rt.acquired_ns_p50", "ns"),
    ("rt.release_ns_p50", "ns"),
    ("rt.release_ns_p99", "ns"),
    ("rt.calls_per_op", "calls/op"),
    ("substrate.wait_ns_p50", "ns"),
    ("substrate.wait_ns_p99", "ns"),
    ("core.admission.fast_admit_ratio", "ratio"),
    ("core.admission.fast_admits", "count"),
    ("core.admission.slow_fallbacks", "count"),
    ("core.admission.degradation_scope_hits", "count"),
    ("core.engine.requests", "count"),
    ("core.engine.acceptance_ratio", "ratio"),
    ("core.avoidance.yields_per_kop", "count/kop"),
    ("core.avoidance.wakeups", "count"),
    ("core.avoidance.instantiation_checks", "count"),
    (
        "core.avoidance.signatures_examined_per_request",
        "count/req",
    ),
    ("core.detection.deadlocks_detected", "count"),
    ("core.detection.refusals", "count"),
    ("core.history.signatures", "count"),
    ("core.history.log_bytes", "bytes"),
    ("core.history.load_s", "s"),
    ("core.history.detect_poll_ns_p50", "ns"),
    ("exchange.import_s", "s"),
    ("exchange.imported", "count"),
    ("exchange.pending", "count"),
    ("exchange.activated", "count"),
    ("asyncio.poll_ns_p50", "ns"),
    ("asyncio.poll_ns_p99", "ns"),
    ("asyncio.polls_per_request", "polls/req"),
    ("asyncio.pending_polls_per_request", "polls/req"),
    ("dalvik.fork_us_p50", "us"),
    ("dalvik.run_us_p50", "us"),
    ("dalvik.host_ns_per_step", "ns"),
    ("dalvik.steps_per_sync", "steps/sync"),
    ("android.frozen_launches", "count"),
    ("android.reboots", "count"),
    ("trace.overhead_ratio", "x"),
    ("trace.span_sum_ns_per_op", "ns"),
    ("trace.untraced_op_ns", "ns"),
    ("trace.traced_op_ns", "ns"),
    ("trace.reconcile_residual_ns", "ns"),
];

/// Latency samples a round needs for its own p99 (ten samples beyond it).
const PER_ROUND_SAMPLES: usize = 1000;

/// Output checks of one run. A failed check fails the run: no numbers are
/// printed.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentile metrics, for the host stamp.
    pub samples: BTreeMap<&'static str, u64>,
    /// The runtime's resolved shard count; `None` where no runtime runs.
    pub shard_count: Option<usize>,
    pub checks: Checks,
}

/// Raw end-to-end observations, reduced by [`EndToEnd::into_metrics`].
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Ops and wall seconds of each immune round.
    pub round_ops: Vec<f64>,
    pub immune_secs: Vec<f64>,
    /// Wall seconds of the bare twin of each immune round (same inputs).
    pub bare_secs: Vec<f64>,
    /// Sampled op latencies of each round, ns.
    pub latencies_ns: Vec<Vec<u64>>,
    pub ops_ok: u64,
    pub ops_attempted: u64,
    pub setup_secs: Vec<f64>,
    pub memory_bytes: Vec<f64>,
    /// When set, throughput and latency come from this share of the
    /// rounds, fewest seconds per op first: throughput is the median of
    /// their own rates, and each latency percentile is taken per round and
    /// then the median over them, however few samples a round has. For
    /// short rounds of a fixed amount of work, this keeps the rounds the
    /// host did not slow down, so the figures do not follow how much of a
    /// run it spent slowed. `None` times every round: throughput is the ops
    /// over their summed wall time.
    pub fastest_rounds: Option<f64>,
}

/// Share of the set-ups, fastest first, that set-up time is the median of.
/// Every set-up in a run does the same amount of work, so their
/// spread is the host's alone; over all set-ups the median followed how
/// much of a run the host spent slowed down (up to 40% between two sets
/// of runs minutes apart, on a 2-vCPU VM).
const FASTEST_SETUPS: f64 = 0.1;

/// Indices of the `share` of `n` items with the smallest `key`, at least
/// three (or all, when fewer).
fn fastest(n: usize, share: f64, key: impl Fn(usize) -> f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| key(a).total_cmp(&key(b)));
    idx.truncate(((share * n as f64).round() as usize).clamp(3.min(n), n));
    idx
}

impl EndToEnd {
    pub fn into_metrics(self, out: &mut Outcome) {
        let rounds = self.immune_secs.len();
        let per_op = |i: usize| self.immune_secs[i] / self.round_ops[i].max(1.0);
        let timed = match self.fastest_rounds {
            Some(share) => fastest(rounds, share, per_op),
            None => (0..rounds).collect(),
        };
        let m = &mut out.metrics;
        let throughput = if self.fastest_rounds.is_some() {
            let rates: Vec<f64> = timed.iter().map(|&i| 1.0 / per_op(i).max(1e-15)).collect();
            median(&rates)
        } else {
            // Ops over the summed wall time: host speed drifts within a run,
            // and the ratio weighs every stretch by its length where a
            // median of per-round rates would pick one.
            let ops: f64 = self.round_ops.iter().sum();
            let secs: f64 = self.immune_secs.iter().sum();
            ops / secs.max(1e-12)
        };
        m.insert("throughput_ops_s", throughput);
        // Per-round percentiles, then their median across the timed rounds,
        // when every round has enough samples for ten beyond its p99 (or
        // always, with `fastest_rounds`); otherwise one percentile over all
        // samples pooled.
        let latencies: Vec<&Vec<u64>> = timed.iter().map(|&i| &self.latencies_ns[i]).collect();
        let per_round =
            self.fastest_rounds.is_some() || latencies.iter().all(|r| r.len() >= PER_ROUND_SAMPLES);
        let latency = |q: f64| {
            if per_round {
                let each: Vec<f64> = latencies.iter().map(|r| percentile(r, q)).collect();
                median(&each)
            } else {
                let pooled: Vec<u64> = latencies.iter().flat_map(|r| r.iter().copied()).collect();
                percentile(&pooled, q)
            }
        };
        m.insert("op_p50_us", latency(0.50) / 1e3);
        m.insert("op_p99_us", latency(0.99) / 1e3);
        m.insert(
            "overhead_vs_bare",
            median_ratio(&self.immune_secs, &self.bare_secs),
        );
        m.insert(
            "ops_ok_ratio",
            self.ops_ok as f64 / self.ops_attempted.max(1) as f64,
        );
        let setups: Vec<f64> = fastest(self.setup_secs.len(), FASTEST_SETUPS, |i| {
            self.setup_secs[i]
        })
        .into_iter()
        .map(|i| self.setup_secs[i])
        .collect();
        m.insert("setup_s", median(&setups));
        m.insert(
            "immune_memory_mb",
            median(&self.memory_bytes) / (1024.0 * 1024.0),
        );
        let samples: usize = latencies.iter().map(|r| r.len()).sum();
        out.samples.insert("op_latency", samples as u64);
        out.samples
            .insert("op_latency_per_round", u64::from(per_round));
        out.samples.insert("rounds", rounds as u64);
        out.samples.insert("timed_rounds", timed.len() as u64);
        out.samples.insert("setups", self.setup_secs.len() as u64);
        out.samples.insert("timed_setups", setups.len() as u64);
        out.attempted = self.ops_attempted;
    }
}

/// Formats a finite number with all its digits (JSON has no NaN).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics named
/// in `table`, each with its unit.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::fastest;

    #[test]
    fn fastest_keeps_the_smallest_share_and_at_least_three() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 0.5];
        let key = |i: usize| v[i];
        let mut got = fastest(v.len(), 0.1, key);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 9]);
        assert_eq!(fastest(v.len(), 0.5, key).len(), 5);
        assert_eq!(fastest(2, 0.1, key).len(), 2);
        assert!(fastest(0, 0.1, key).is_empty());
    }
}
