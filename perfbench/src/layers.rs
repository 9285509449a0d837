//! Per-layer attribution: self times of the spans the program records
//! (plus the benchmark's own `compile`/`parse`/`schedule`/`emit` spans
//! around its calls into each layer), grouped into the repository's
//! layers.

use std::collections::BTreeMap;

use polytops_core::json::Json;

/// A completed span, from the offline recorder or a daemon `trace` op.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique per recorder).
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Stage name.
    pub name: String,
    /// Start, nanoseconds on the recorder's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the recorder's clock.
    pub end_ns: u64,
}

impl From<&polytops_obs::SpanRecord> for Span {
    fn from(s: &polytops_obs::SpanRecord) -> Span {
        Span {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        }
    }
}

/// Stage layers of one compile, in pipeline order: (span names whose
/// self time the layer owns, metric stem).
///
/// The benchmark's `schedule` span wraps `schedule_with_options`; the
/// engine's `pipeline` span starts after its dependence analysis, so the
/// `schedule` span's self time is `deps::analyze` (plus engine set-up).
pub const COMPILE_LAYERS: [(&[&str], &str); 9] = [
    (&["parse"], "ir.parse"),
    (&["schedule"], "deps.analyze"),
    (&["pipeline", "dimension"], "pipeline.driver"),
    (&["legality"], "pipeline.legality"),
    (&["objectives"], "pipeline.objectives"),
    (&["ilp_solve"], "pipeline.ilp_solve"),
    (&["fast_path"], "pipeline.fast_path"),
    (&["postprocess"], "pipeline.postprocess"),
    (&["emit"], "codegen.emit"),
];

/// Request-lifecycle stages of `polytopsd` (metric stem = `server.<name>`).
pub const SERVER_STAGES: [&str; 5] = ["read", "admission", "solve", "serialize", "write"];

/// Self time per span name, in nanoseconds: each span's duration minus
/// the part of it that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|k| {
                k.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name.clone()).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Total duration per span name, in nanoseconds.
pub fn durations(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += s.end_ns - s.start_ns;
    }
    out
}

/// Sum of self times over a set of span names.
pub fn layer_ns(self_ns: &BTreeMap<String, u64>, names: &[&str]) -> u64 {
    names
        .iter()
        .map(|n| self_ns.get(*n).copied().unwrap_or(0))
        .sum()
}

/// The spans of a daemon `trace` op response: `(trace id, spans)`, or
/// `None` when the response carries no trace.
pub fn spans_from_trace_response(line: &str) -> Option<(u64, Vec<Span>)> {
    let parsed = polytops_core::json::parse(line).ok()?;
    let trace = parsed.as_object()?.get("trace")?.as_object()?;
    let id = trace.get("id")?.as_int()? as u64;
    let int = |s: &Json, key: &str| s.as_object()?.get(key)?.as_int().map(|v| v as u64);
    let spans = trace
        .get("spans")?
        .as_array()?
        .iter()
        .map(|s| {
            let start_ns = int(s, "start_ns")?;
            Some(Span {
                id: int(s, "id")?,
                parent: int(s, "parent")?,
                name: s.as_object()?.get("name")?.as_str()?.to_string(),
                start_ns,
                end_ns: start_ns + int(s, "dur_ns")?,
            })
        })
        .collect::<Option<Vec<Span>>>()?;
    Some((id, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "compile", 0, 100),
            span(2, 1, "parse", 10, 20),
            span(3, 1, "schedule", 20, 90),
            span(4, 3, "pipeline", 30, 80),
            span(5, 4, "ilp_solve", 40, 60),
            span(6, 4, "ilp_solve", 50, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st["compile"], 20);
        assert_eq!(st["schedule"], 20);
        assert_eq!(st["pipeline"], 20);
        assert_eq!(st["ilp_solve"], 40);
        assert_eq!(durations(&spans)["ilp_solve"], 40);
    }
}
