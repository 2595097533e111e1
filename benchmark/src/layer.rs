//! Per-layer figures from a traced run's spans.

use crate::measure::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// For each `(metric, span, divisor)`: the median self time of the spans
/// named `span`, divided by `divisor` (1e3 for µs, 1e6 for ms).
pub fn spans(layers: &mut Layers, tr: &Tracer, table: &[(&'static str, &str, f64)]) {
    let selfs = tr.self_ns();
    for &(metric, span, div) in table {
        if let Some(m) = selfs.get(span).and_then(|v| median(v)) {
            layers.insert(metric, m / div);
        }
    }
}

/// Median over operations (op id ≥ 1) of the per-operation total of
/// the spans named `name`, in nanoseconds.
pub fn per_op_median_ns(tr: &Tracer, name: &str) -> f64 {
    let per_op: Vec<f64> = tr
        .per_op_ns(name)
        .into_iter()
        .filter(|(op, _)| *op >= 1)
        .map(|(_, v)| v)
        .collect();
    median(&per_op).unwrap_or(0.0)
}

/// The traced end-to-end operation median and what the stage medians
/// leave of it, and what the medians of the fit's timed public calls
/// (`fit_stages`, spans of operation 0) leave of the median fit.
pub fn residuals(
    layers: &mut Layers,
    tr: &Tracer,
    op_span: &str,
    stages: &[&str],
    fit_s: &[f64],
    fit_stages: &[&str],
) {
    let p50 = median(&tr.durations(op_span)).unwrap_or(f64::NAN);
    let explained: f64 = stages.iter().map(|s| per_op_median_ns(tr, s)).sum();
    layers.insert("trace.p50_ms", p50 / 1e6);
    layers.insert("trace.p50_residual_ms", (p50 - explained) / 1e6);
    let fit_explained: f64 = fit_stages
        .iter()
        .map(|name| {
            let v: Vec<f64> = tr
                .spans()
                .iter()
                .filter(|s| s.op == 0 && s.name == *name)
                .map(|s| s.dur_ns())
                .collect();
            median(&v).unwrap_or(0.0)
        })
        .sum();
    let fit = median(fit_s).unwrap_or(f64::NAN) * 1e9;
    layers.insert("trace.fit_residual_ms", (fit - fit_explained) / 1e6);
}
