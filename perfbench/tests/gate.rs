//! Negative tests of the correctness gate: a deliberately illegal
//! schedule and corrupted daemon responses must be counted as failures,
//! and nothing else may be.

use polytops_codegen::emit_c;
use polytops_core::json::Json;
use polytops_core::{presets, schedule};
use polytops_deps::analyze;
use polytops_ir::{print_scop, StmtId};
use polytops_server::protocol::{self, Request};
use polytops_workloads::{requests, stencil_chain};

use perfbench::gate::{certify, check_response, Compiled, ScenarioGate};

#[test]
fn an_illegal_schedule_is_exactly_one_failure() {
    let scop = stencil_chain();
    let deps = analyze(&scop);
    let legal = schedule(&scop, &presets::pluto()).expect("stencil_chain schedules");
    assert!(certify(&deps, &legal));

    // Run the chain backwards: φ = -i reads A[i-1] before writing it.
    let mut illegal = legal.clone();
    let rows = illegal.stmt(StmtId(0)).rows().to_vec();
    for (i, mut row) in rows.into_iter().enumerate() {
        row[0] = -row[0];
        illegal.stmt_mut(StmtId(0)).set_row(i, row);
    }
    assert!(!certify(&deps, &illegal));

    let compiled = |schedule: polytops_ir::Schedule| Compiled {
        code: emit_c(&scop, &schedule).expect("codegen"),
        schedule,
    };
    let mut gate = ScenarioGate::default();
    for _ in 0..3 {
        gate.record(Ok(compiled(legal.clone())));
    }
    gate.record(Ok(compiled(illegal)));
    gate.record(Err("emit_c failed".to_string()));
    assert_eq!(gate.attempted(), 5);
    assert_eq!(
        gate.failures(&deps),
        2,
        "the illegal schedule and the error"
    );
}

#[test]
fn corrupted_and_missing_responses_are_exactly_the_failures() {
    let line = requests::request_line("r0", "stencil_chain", &stencil_chain(), &["pluto"]);
    let Ok(Request::Schedule(req)) = protocol::parse_request(&line) else {
        panic!("generated request parses");
    };
    let results = protocol::offline_results(&req);
    let expected = results.compact();
    let response = |results: Json| {
        protocol::schedule_response(&req.id, results, Json::Array(Vec::new()), true, 0)
    };
    let good = response(results.clone());
    let corrupted = good.replacen("\"certified\":true", "\"certified\":false", 1);
    assert_ne!(good, corrupted);
    let error = protocol::error_response(&req.id, "shutting down");

    let lines = [
        Some(good.as_str()),
        Some(corrupted.as_str()),
        Some(good.as_str()),
        None,
        Some(error.as_str()),
        Some("{\"id\":\"r0\",\"ok\":tru"),
    ];
    let failed: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| check_response(**l, &expected).is_err())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed, vec![1, 3, 4, 5]);
    // The request text itself is what the daemon would receive.
    assert!(line.contains(&Json::Str(print_scop(&stencil_chain())).compact()));
}
