//! The correctness gate. It runs outside every timed region, counts each
//! failure against the operations attempted, and never aborts a run.

use polytops_core::json::{self, Json};
use polytops_deps::{schedule_respects_dependence, Dependence};
use polytops_ir::Schedule;

/// The independent legality oracle: the schedule orders every
/// dependence's source before its destination.
pub fn certify(deps: &[Dependence], schedule: &Schedule) -> bool {
    deps.iter().all(|d| {
        schedule_respects_dependence(d, schedule.stmt(d.src).rows(), schedule.stmt(d.dst).rows())
    })
}

/// What one offline compile produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The schedule.
    pub schedule: Schedule,
    /// The C that `emit_c` produced from it.
    pub code: String,
}

/// Gate state of one offline scenario: every output the scenario
/// produced, each distinct one certified once. Equal outputs share a
/// verdict, so certifying the distinct ones covers every compile.
#[derive(Debug, Default)]
pub struct ScenarioGate {
    /// Distinct outputs with the number of compiles that produced each.
    outputs: Vec<(Compiled, u64)>,
    /// Compiles that failed outright (parse, schedule or codegen error).
    errors: u64,
}

impl ScenarioGate {
    /// Records one compile's outcome.
    pub fn record(&mut self, outcome: Result<Compiled, String>) {
        match outcome {
            Err(_) => self.errors += 1,
            Ok(out) => match self.outputs.iter_mut().find(|(o, _)| *o == out) {
                Some((_, n)) => *n += 1,
                None => self.outputs.push((out, 1)),
            },
        }
    }

    /// The first output recorded, if any compile succeeded.
    pub fn first(&self) -> Option<&Compiled> {
        self.outputs.first().map(|(o, _)| o)
    }

    /// Compiles recorded so far.
    pub fn attempted(&self) -> u64 {
        self.errors + self.outputs.iter().map(|(_, n)| n).sum::<u64>()
    }

    /// Failed compiles: errors plus every compile whose schedule the
    /// oracle rejects.
    pub fn failures(&self, deps: &[Dependence]) -> u64 {
        self.errors
            + self
                .outputs
                .iter()
                .filter(|(o, _)| !certify(deps, &o.schedule))
                .map(|(_, n)| n)
                .sum::<u64>()
    }
}

/// Checks one daemon response line against the offline engine's
/// `results` for the same request (compact JSON). `None` is a response
/// that never arrived.
pub fn check_response(line: Option<&str>, expected_results: &str) -> Result<(), String> {
    let line = line.ok_or("no response")?;
    let parsed = json::parse(line)?;
    let obj = parsed.as_object().ok_or("response is not an object")?;
    if obj.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error response: {line}"));
    }
    let results = obj.get("results").ok_or("response has no results")?;
    if results.compact() != expected_results {
        return Err("results differ from the offline engine".to_string());
    }
    Ok(())
}
