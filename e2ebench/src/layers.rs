//! Per-layer metrics derived from the traced run's spans and the engine
//! counters read before and after it.

use crate::report::Outcome;
use crate::stats::{median, median_ratio, percentile};
use crate::trace::{Layer, Tracer};
use dimmunix_core::Stats;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentile of a layer's sampled span durations.
pub fn span_percentile(tr: &Tracer, layer: Layer, q: f64) -> f64 {
    percentile(tr.samples(layer).items(), q)
}

/// `rt` hook and std-substrate metrics for `ops` traced ops.
pub fn rt_hooks(out: &mut Outcome, tr: &Tracer, ops: u64) {
    let m = &mut out.metrics;
    m.insert("rt.admit_ns_p50", span_percentile(tr, Layer::Admit, 0.5));
    m.insert("rt.admit_ns_p99", span_percentile(tr, Layer::Admit, 0.99));
    m.insert(
        "rt.acquired_ns_p50",
        span_percentile(tr, Layer::Acquired, 0.5),
    );
    m.insert(
        "rt.release_ns_p50",
        span_percentile(tr, Layer::Release, 0.5),
    );
    m.insert(
        "rt.release_ns_p99",
        span_percentile(tr, Layer::Release, 0.99),
    );
    let calls = tr.count(Layer::Admit) + tr.count(Layer::Acquired) + tr.count(Layer::Release);
    m.insert("rt.calls_per_op", ratio(calls as f64, ops as f64));
    m.insert(
        "substrate.wait_ns_p50",
        span_percentile(tr, Layer::Substrate, 0.5),
    );
    m.insert(
        "substrate.wait_ns_p99",
        span_percentile(tr, Layer::Substrate, 0.99),
    );
    out.samples.insert(
        "rt.admit_spans",
        tr.samples(Layer::Admit).items().len() as u64,
    );
    out.samples.insert(
        "substrate_spans",
        tr.samples(Layer::Substrate).items().len() as u64,
    );
}

/// `core` admission, engine and avoidance metrics from counter deltas.
pub fn core_engine(out: &mut Outcome, s: &Stats, ops: u64) {
    let m = &mut out.metrics;
    let requests = s.requests as f64;
    m.insert(
        "core.admission.fast_admit_ratio",
        ratio(s.fast_admits as f64, requests),
    );
    m.insert("core.admission.fast_admits", s.fast_admits as f64);
    m.insert("core.admission.slow_fallbacks", s.slow_fallbacks as f64);
    m.insert(
        "core.admission.degradation_scope_hits",
        s.degradation_scope_hits as f64,
    );
    m.insert("core.engine.requests", requests);
    m.insert(
        "core.engine.acceptance_ratio",
        ratio((s.grants + s.reentrant_grants) as f64, requests),
    );
    m.insert(
        "core.avoidance.yields_per_kop",
        ratio(s.yields as f64 * 1000.0, ops as f64),
    );
    m.insert("core.avoidance.wakeups", s.wakeups as f64);
    m.insert(
        "core.avoidance.instantiation_checks",
        s.instantiation_checks as f64,
    );
    m.insert(
        "core.avoidance.signatures_examined_per_request",
        ratio(s.signatures_examined as f64, requests),
    );
    m.insert(
        "core.detection.deadlocks_detected",
        s.deadlocks_detected as f64,
    );
}

/// Tracing overhead and the reconciliation of span self times with the
/// untraced op time, for the thread workloads. Every span the benchmark
/// records under an op is a leaf, so a layer's self time is its span's
/// duration. Per round, the span sum per op is the traced round's span
/// time over its ops, and the traced and untraced op times are the
/// threads' op-loop time over their ops (a round's wall time would also
/// count the barrier wait of a thread the host let finish first). The
/// medians over rounds are compared. The check: the span sum lies within
/// the tracing overhead of the untraced op time, widened by twice the
/// standard error of that overhead (from the spread of the paired round
/// differences), so host noise in a short run is not read as a failure to
/// reconcile. The reported overhead ratio is of round wall times, like
/// every other round ratio.
pub fn reconcile(
    out: &mut Outcome,
    round_ops: usize,
    traced_span_ns: &[u128],
    traced_busy_ns: &[u128],
    untraced_busy_ns: &[u128],
    traced_secs: &[f64],
    untraced_secs: &[f64],
) {
    let ops = (round_ops * crate::threads::THREADS) as f64;
    let per_op = |ns: &[u128]| ns.iter().map(|n| *n as f64 / ops).collect::<Vec<f64>>();
    let (traced, untraced) = (per_op(traced_busy_ns), per_op(untraced_busy_ns));
    let traced_op = median(&traced);
    let untraced_op = median(&untraced);
    let span_sum = median(&per_op(traced_span_ns));
    let residual = untraced_op - span_sum;
    let overhead_ns = traced_op - untraced_op;
    let diffs: Vec<f64> = traced.iter().zip(&untraced).map(|(t, u)| t - u).collect();
    let centre = median(&diffs);
    let deviations: Vec<f64> = diffs.iter().map(|d| (d - centre).abs()).collect();
    // Median absolute deviation, scaled to a standard deviation.
    let std_error = 1.4826 * median(&deviations) / (diffs.len().max(1) as f64).sqrt();
    let tolerance = overhead_ns.abs() + 2.0 * std_error;
    let reconciled = residual.abs() <= tolerance;
    let m = &mut out.metrics;
    m.insert(
        "trace.overhead_ratio",
        median_ratio(traced_secs, untraced_secs),
    );
    m.insert("trace.span_sum_ns_per_op", span_sum);
    m.insert("trace.untraced_op_ns", untraced_op);
    m.insert("trace.traced_op_ns", traced_op);
    m.insert("trace.reconcile_residual_ns", residual);
    out.checks.expect(reconciled, || {
        format!(
            "span sum {span_sum:.0} ns/op does not reconcile with the untraced op time \
             {untraced_op:.0} ns within the tracing overhead {overhead_ns:.0} ns \
             (tolerance {tolerance:.0} ns)"
        )
    });
}

/// Adds `after - before` of every counter the per-layer metrics read.
pub fn add_delta(acc: &mut Stats, after: &Stats, before: &Stats) {
    acc.requests += after.requests - before.requests;
    acc.grants += after.grants - before.grants;
    acc.reentrant_grants += after.reentrant_grants - before.reentrant_grants;
    acc.acquisitions += after.acquisitions - before.acquisitions;
    acc.releases += after.releases - before.releases;
    acc.yields += after.yields - before.yields;
    acc.wakeups += after.wakeups - before.wakeups;
    acc.deadlocks_detected += after.deadlocks_detected - before.deadlocks_detected;
    acc.instantiation_checks += after.instantiation_checks - before.instantiation_checks;
    acc.signatures_examined += after.signatures_examined - before.signatures_examined;
    acc.fast_admits += after.fast_admits - before.fast_admits;
    acc.slow_fallbacks += after.slow_fallbacks - before.slow_fallbacks;
    acc.degradation_scope_hits += after.degradation_scope_hits - before.degradation_scope_hits;
}
