//! Smoke test: a tiny run of every workload, untraced and traced, must
//! print every metric `BENCHMARK.json` declares for that mode, each
//! finite and with the declared unit, and pass the correctness gate.

use std::process::Command;

use polytops_core::json::{self, Json};

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let bench = json::parse(&text).expect("BENCHMARK.json parses");
    bench.as_object().expect("object")[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = json::parse(&std::fs::read_to_string(path).expect("readable")).expect("parses");
    bench.as_object().expect("object")["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| {
            w.as_object().expect("workload")["name"]
                .as_str()
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--smoke")
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

#[test]
fn every_declared_metric_is_emitted_finite_with_its_unit() {
    assert_eq!(workloads(), perfbench::WORKLOADS);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
        let code: Vec<&str> = perfbench::declared(&perfbench::Args {
            trace: trace == "1",
            ..perfbench::Args::parse(&["--workload".into(), "sweep".into()]).expect("args")
        })
        .iter()
        .map(|(n, _)| *n)
        .collect();
        assert_eq!(
            names, code,
            "{section}: BENCHMARK.json and the code disagree"
        );
        for workload in perfbench::WORKLOADS {
            let result = run(workload, trace);
            let result = result.as_object().expect("result object");
            assert_eq!(result["correct"], Json::Bool(true), "{workload}");
            assert_eq!(result["failed"], Json::Int(0), "{workload}");
            assert!(result["attempted"].as_int().expect("attempted") >= 1);
            let metrics = result["metrics"].as_object().expect("metrics");
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload}: exactly the declared set"
            );
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .and_then(Json::as_object)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                assert_eq!(
                    m["unit"].as_str(),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
                if trace == "0" {
                    assert!(
                        value.unwrap_or(0.0) > 0.0,
                        "{workload}: {name} must not be 0"
                    );
                }
            }
        }
    }
}
