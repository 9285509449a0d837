//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; the smoke test checks that the two agree.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// Timed figures other than `setup_s` are scaled to the machine's
/// nominal speed ([`crate::speed`]).
pub const END_TO_END: [(&str, &str); 9] = [
    ("compile_geomean_ms", "ms"),
    ("scenarios_per_s", "1/s"),
    ("model_cycles_geomean", "cycles"),
    ("code_bytes", "bytes"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("ir.parse_ms", "ms"),
    ("deps.analyze_ms", "ms"),
    ("pipeline.driver_ms", "ms"),
    ("pipeline.legality_ms", "ms"),
    ("pipeline.objectives_ms", "ms"),
    ("pipeline.ilp_solve_ms", "ms"),
    ("pipeline.fast_path_ms", "ms"),
    ("pipeline.postprocess_ms", "ms"),
    ("codegen.emit_ms", "ms"),
    ("ir.parse_share", "%"),
    ("deps.analyze_share", "%"),
    ("pipeline.driver_share", "%"),
    ("pipeline.legality_share", "%"),
    ("pipeline.objectives_share", "%"),
    ("pipeline.ilp_solve_share", "%"),
    ("pipeline.fast_path_share", "%"),
    ("pipeline.postprocess_share", "%"),
    ("codegen.emit_share", "%"),
    ("deps.dependences", "count"),
    ("farkas.eliminate_ms", "ms"),
    ("farkas.replay_ms", "ms"),
    ("farkas.hit_rate", "%"),
    ("math.bb_nodes", "count"),
    ("math.lp_stages", "count"),
    ("math.fractional_stages", "count"),
    ("math.dual_pivots", "count"),
    ("math.phase1_ms", "ms"),
    ("math.pin_eq_ms", "ms"),
    ("fastpath.dims", "count"),
    ("fastpath.fallbacks", "count"),
    ("codegen.loops", "count"),
    ("codegen.guards", "count"),
    ("server.read_ms", "ms"),
    ("server.admission_ms", "ms"),
    ("server.solve_ms", "ms"),
    ("server.serialize_ms", "ms"),
    ("server.write_ms", "ms"),
    ("service.batch_size_mean", "requests"),
    ("pool.queue_wait_ms", "ms"),
    ("registry.hit_rate", "%"),
    ("registry.misses", "count"),
    ("persist.append_ms", "ms"),
    ("persist.fsync_ms", "ms"),
    ("persist.appends", "count"),
    ("client.lag_ms", "ms"),
    ("client.backlog", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.samples", "count"),
    ("latency.samples", "count"),
    ("speed.reference_ms", "ms"),
];

/// A run's outcome: the gate's counts plus named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (compiles, requests).
    pub attempted: u64,
    /// Operations the gate failed.
    pub failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Sets metric `name` (a name from [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// The result line for the declared `set` of metrics: one JSON
    /// object with `correct`, `attempted`, `failed` and `metrics`.
    /// Metrics of the set that the run did not measure read 0.
    pub fn result_line(&self, set: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let number = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {number}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of the declared `set`.
    pub fn table(&self, set: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in set {
            let value = self.get(name).unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<28} {value:>16.4} {unit}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        let line = o.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"code_bytes\": {\"value\": 0.0, \"unit\": \"bytes\"}"));
        assert!(polytops_core::json::parse(&line).is_ok());
    }
}
