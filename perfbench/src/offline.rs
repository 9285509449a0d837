//! The offline compile workloads, `sweep` and `tile`: a single caller
//! compiles scenarios cold (`parse_scop` → `schedule_with_options` →
//! `emit_c`) in a closed loop, round-robin over the scenario set.

use std::sync::Arc;
use std::time::{Duration, Instant};

use polytops_codegen::{emit_c, generate, stats as codegen_stats};
use polytops_core::tune::{score_schedule, MachineModel};
use polytops_core::{schedule_with_options, EngineOptions, PipelineStats};
use polytops_deps::{analyze, Dependence};
use polytops_ir::{parse_scop, Scop};
use polytops_obs::{ChromeEvent, Recorder};

use crate::gate::{Compiled, ScenarioGate};
use crate::inputs::{self, Scenario};
use crate::layers::{self, Span, COMPILE_LAYERS};
use crate::report::Outcome;
use crate::speed::Probe;
use crate::stats::{geomean, hd_quantile, median};
use crate::Args;

/// Parameter value at which the cost model prices schedules.
pub const PARAM_ESTIMATE: i64 = 256;

/// A compile slower than this misses the latency limit of `goodput_rps`.
/// The slowest scenario (`heat_2d` tiled with wavefront) takes about
/// 1 s on a 2-core VM; the limit sits well clear of it so goodput only
/// moves when a compile fails or becomes pathologically slow.
const LIMIT: Duration = Duration::from_secs(5);

/// Compiles one scenario cold, the way a one-shot compiler would.
pub fn compile(s: &Scenario, options: &EngineOptions) -> Result<Compiled, String> {
    let scop = parse_scop(&s.text).map_err(|e| e.to_string())?;
    let (schedule, _) =
        schedule_with_options(&scop, &s.config, options).map_err(|e| e.to_string())?;
    let code = emit_c(&scop, &schedule).map_err(|e| e.to_string())?;
    Ok(Compiled { schedule, code })
}

/// [`compile`] under a root span `compile`, with child spans around the
/// call into each layer; the engine's own spans nest under `schedule`.
fn compile_traced(
    s: &Scenario,
    recorder: &Arc<Recorder>,
) -> (Result<Compiled, String>, PipelineStats, u64) {
    let root = recorder.root_span("compile");
    let trace = root.trace_id();
    let mut stats = PipelineStats::default();
    let outcome = (|| {
        let span = root.child("parse");
        let scop = parse_scop(&s.text).map_err(|e| e.to_string())?;
        span.finish();
        let span = root.child("schedule");
        let options = EngineOptions {
            trace: span.link(),
            ..EngineOptions::default()
        };
        let (schedule, run_stats) =
            schedule_with_options(&scop, &s.config, &options).map_err(|e| e.to_string())?;
        span.finish();
        stats = run_stats;
        let span = root.child("emit");
        let code = emit_c(&scop, &schedule).map_err(|e| e.to_string())?;
        span.finish();
        Ok(Compiled { schedule, code })
    })();
    root.finish();
    (outcome, stats, trace)
}

/// The scenario set of an offline workload.
fn scenarios(args: &Args) -> Vec<Scenario> {
    match args.workload.as_str() {
        "tile" => inputs::tile_scenarios(args.seed, args.smoke),
        _ => inputs::sweep_scenarios(args.seed, args.smoke),
    }
}

/// Set-up: input generation plus a warm-up compile of every kernel under
/// its alphabetically first configuration, so lazy state settles before
/// timing whatever order the seed chose (the outputs join the gate).
/// Returns the scenarios and the set-up's duration.
fn set_up(args: &Args, gates: &mut Vec<ScenarioGate>) -> (Vec<Scenario>, f64) {
    let mut probe = Probe::default();
    probe.burst();
    let t0 = Instant::now();
    let set = scenarios(args);
    gates.resize_with(set.len(), ScenarioGate::default);
    let kernel = |s: &Scenario| s.name.split('/').next().unwrap_or_default().to_string();
    for (i, s) in set.iter().enumerate() {
        let first = set
            .iter()
            .filter(|o| kernel(o) == kernel(s))
            .all(|o| o.name >= s.name);
        if first {
            gates[i].record(compile(s, &EngineOptions::default()));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    probe.burst();
    (set, secs * probe.factor())
}

/// One compile's scop and dependences, for the gate and the model.
struct Checked {
    scop: Scop,
    deps: Vec<Dependence>,
}

/// Runs the gate over every scenario and adds its counts to `out`.
fn gate_all(set: &[Scenario], gates: &[ScenarioGate], out: &mut Outcome) -> Vec<Option<Checked>> {
    set.iter()
        .zip(gates)
        .map(|(s, gate)| {
            out.attempted += gate.attempted();
            match parse_scop(&s.text) {
                Ok(scop) => {
                    let deps = analyze(&scop);
                    out.failed += gate.failures(&deps);
                    Some(Checked { scop, deps })
                }
                Err(_) => {
                    out.failed += gate.attempted();
                    None
                }
            }
        })
        .collect()
}

/// Exact output metrics: model cycles of the schedules and bytes of C.
fn output_metrics(gates: &[ScenarioGate], checked: &[Option<Checked>], out: &mut Outcome) {
    let machine = MachineModel::default();
    let mut cycles = Vec::new();
    let mut bytes = 0usize;
    for (gate, c) in gates.iter().zip(checked) {
        if let (Some(first), Some(c)) = (gate.first(), c) {
            let (_, score) = score_schedule(&c.scop, &first.schedule, &machine, PARAM_ESTIMATE);
            cycles.push((-score).max(1) as f64);
            bytes += first.code.len();
        }
    }
    out.set("model_cycles_geomean", geomean(&cycles));
    out.set("code_bytes", bytes as f64);
}

/// Runs an offline workload untraced and reports the end-to-end metrics.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut gates = Vec::new();
    let mut setups = Vec::new();
    let mut set = Vec::new();
    for _ in 0..args.setup_reps() {
        let (s, secs) = set_up(args, &mut gates);
        set = s;
        setups.push(secs);
    }

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); set.len()];
    let mut all: Vec<f64> = Vec::new();
    let mut good = 0usize;
    let mut probe = Probe::default();
    probe.burst();
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut raw_s = 0.0;
    'rounds: loop {
        for (i, s) in set.iter().enumerate() {
            if start.elapsed() >= deadline && times.iter().all(|t| !t.is_empty()) {
                break 'rounds;
            }
            let from_s = probe.now_s();
            let t0 = Instant::now();
            let outcome = compile(s, &EngineOptions::default());
            let dt = t0.elapsed();
            let to_s = probe.now_s();
            probe.burst();
            good += usize::from(outcome.is_ok() && dt <= LIMIT);
            gates[i].record(outcome);
            raw_s += dt.as_secs_f64();
            // Scaled by the reference timed just before and after.
            let ms = dt.as_secs_f64() * 1e3 * probe.factor_between(from_s - 0.01, to_s + 0.01);
            times[i].push(ms);
            all.push(ms);
        }
    }
    // The caller is busy only while compiling: throughput excludes the
    // gate's bookkeeping and the speed probes between compiles.
    let busy_s = all.iter().sum::<f64>() / 1e3;

    let checked = gate_all(&set, &gates, &mut out);
    let medians: Vec<f64> = times.iter().map(|t| hd_quantile(t, 0.5)).collect();
    out.set("compile_geomean_ms", geomean(&medians));
    out.set("scenarios_per_s", all.len() as f64 / busy_s);
    // Latency quantiles weigh every scenario alike: complete rounds only.
    let complete = &all[..all.len() / set.len() * set.len()];
    out.set("latency_p50_ms", hd_quantile(complete, 0.5));
    out.set("latency_p90_ms", hd_quantile(complete, 0.9));
    // Compiles the gate later failed are few (zero on a correct tree);
    // remove them from the good count so goodput is never flattered.
    let good = good.saturating_sub(out.failed as usize);
    out.set("goodput_rps", good as f64 / busy_s);
    out.set(
        "peak_rss_mb",
        crate::stats::peak_rss_mb("self").unwrap_or(0.0),
    );
    out.set("setup_s", median(&setups));
    output_metrics(&gates, &checked, &mut out);
    println!(
        "{}: {} scenarios, {} timed compiles ({} per scenario at least), {raw_s:.2} s busy \
         ({busy_s:.2} s at nominal speed), {} set-up passes; median reference {:.4} ms",
        args.workload,
        set.len(),
        all.len(),
        times.iter().map(Vec::len).min().unwrap_or(0),
        setups.len(),
        probe.reference_ms(),
    );
    out
}

/// Totals over the traced passes of a run.
#[derive(Default)]
struct LayerTotals {
    compiles: u64,
    total_ns: u64,
    layer_ns: Vec<u64>,
    stats: PipelineStats,
    hist_ns: [u64; 4],
}

const HISTOGRAMS: [&str; 4] = [
    "farkas.eliminate_ns",
    "farkas.replay_ns",
    "simplex.phase1_ns",
    "simplex.pin_eq_ns",
];

/// Runs an offline workload with traced and untraced passes interleaved
/// and reports the per-layer metrics. On `sweep` the first traced pass
/// is also written as a Chrome trace.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut gates = Vec::new();
    let (set, _) = set_up(args, &mut gates);

    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); set.len()];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); set.len()];
    let mut totals = LayerTotals {
        layer_ns: vec![0; COMPILE_LAYERS.len()],
        ..LayerTotals::default()
    };
    let mut traced_passes = 0u64;
    let mut probe = Probe::default();
    probe.burst();
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < 2 || start.elapsed() < deadline {
        let is_traced = pass % 2 == 1;
        let recorder = Recorder::with_capacity(true, 1 << 16);
        let mut pass_spans: Vec<Span> = Vec::new();
        let mut chrome: Vec<ChromeEvent> = Vec::new();
        for (i, s) in set.iter().enumerate() {
            let from_s = probe.now_s();
            let t0 = Instant::now();
            if is_traced {
                let (outcome, stats, trace) = compile_traced(s, &recorder);
                traced[i].push(t0.elapsed().as_secs_f64() * 1e3);
                gates[i].record(outcome);
                let records = recorder.spans_for(trace);
                if traced_passes == 0 && args.workload == "sweep" {
                    chrome.extend(records.iter().map(ChromeEvent::from));
                }
                pass_spans.extend(records.iter().map(Span::from));
                totals.stats.farkas_hits += stats.farkas_hits;
                totals.stats.farkas_misses += stats.farkas_misses;
                totals.stats.fast_path_dims += stats.fast_path_dims;
                totals.stats.fast_path_fallbacks += stats.fast_path_fallbacks;
                totals.stats.ilp.absorb(&stats.ilp);
                totals.compiles += 1;
            } else {
                let outcome = compile(s, &EngineOptions::default());
                untraced[i].push(t0.elapsed().as_secs_f64() * 1e3);
                gates[i].record(outcome);
            }
            let to_s = probe.now_s();
            probe.burst();
            // Scale the sample just taken to nominal speed, so the
            // overhead compares like with like.
            let side = if is_traced {
                &mut traced[i]
            } else {
                &mut untraced[i]
            };
            if let Some(ms) = side.last_mut() {
                *ms *= probe.factor_between(from_s - 0.01, to_s + 0.01);
            }
        }
        if is_traced {
            let self_ns = layers::self_times(&pass_spans);
            totals.total_ns += layers::durations(&pass_spans)
                .get("compile")
                .copied()
                .unwrap_or(0);
            for (slot, (names, _)) in totals.layer_ns.iter_mut().zip(COMPILE_LAYERS) {
                *slot += layers::layer_ns(&self_ns, names);
            }
            for (slot, name) in totals.hist_ns.iter_mut().zip(HISTOGRAMS) {
                *slot += recorder.histogram(name).snapshot().sum_ns;
            }
            if !chrome.is_empty() {
                write_chrome_trace(args, &chrome);
            }
            traced_passes += 1;
        }
        pass += 1;
    }

    let checked = gate_all(&set, &gates, &mut out);
    let per_compile_ms = |ns: u64| ns as f64 / 1e6 / totals.compiles.max(1) as f64;
    let per_pass = |n: usize| n as f64 / traced_passes.max(1) as f64;
    for ((_, stem), ns) in COMPILE_LAYERS.iter().zip(&totals.layer_ns) {
        out.set(&format!("{stem}_ms"), per_compile_ms(*ns));
        out.set(
            &format!("{stem}_share"),
            100.0 * *ns as f64 / totals.total_ns.max(1) as f64,
        );
    }
    for (name, ns) in [
        "farkas.eliminate_ms",
        "farkas.replay_ms",
        "math.phase1_ms",
        "math.pin_eq_ms",
    ]
    .iter()
    .zip(totals.hist_ns)
    {
        out.set(name, per_compile_ms(ns));
    }
    let s = &totals.stats;
    let lookups = s.farkas_hits + s.farkas_misses;
    out.set(
        "farkas.hit_rate",
        100.0 * s.farkas_hits as f64 / lookups.max(1) as f64,
    );
    out.set("math.bb_nodes", per_pass(s.ilp.nodes));
    out.set("math.lp_stages", per_pass(s.ilp.lp_stages));
    out.set("math.fractional_stages", per_pass(s.ilp.fractional_stages));
    out.set("math.dual_pivots", per_pass(s.ilp.dual_pivots));
    out.set("fastpath.dims", per_pass(s.fast_path_dims));
    out.set("fastpath.fallbacks", per_pass(s.fast_path_fallbacks));

    let mut dependences = 0usize;
    let (mut loops, mut guards) = (0usize, 0usize);
    for (gate, c) in gates.iter().zip(&checked) {
        if let (Some(first), Some(c)) = (gate.first(), c) {
            dependences += c.deps.len();
            if let Ok(ast) = generate(&c.scop, &first.schedule) {
                let st = codegen_stats(&ast);
                loops += st.loops;
                guards += st.guards;
            }
        }
    }
    out.set("deps.dependences", dependences as f64);
    out.set("codegen.loops", loops as f64);
    out.set("codegen.guards", guards as f64);

    let per_scenario =
        |t: &[Vec<f64>]| geomean(&t.iter().map(|t| hd_quantile(t, 0.5)).collect::<Vec<_>>());
    let (plain, with) = (per_scenario(&untraced), per_scenario(&traced));
    out.set("trace.overhead_pct", 100.0 * (with / plain - 1.0));
    out.set("trace.samples", totals.compiles as f64);
    out.set("speed.reference_ms", probe.reference_ms());
    out.set(
        "latency.samples",
        untraced.iter().map(Vec::len).sum::<usize>() as f64,
    );
    println!(
        "{}: {} scenarios, {} untraced + {} traced passes; traced geomean {with:.3} ms vs untraced {plain:.3} ms",
        args.workload,
        set.len(),
        pass as u64 - traced_passes,
        traced_passes
    );
    out
}

fn write_chrome_trace(args: &Args, events: &[ChromeEvent]) {
    let dir = crate::out_dir();
    let path = dir.join(format!("{}_trace.json", args.workload));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, polytops_obs::chrome_trace(events)));
    match written {
        Ok(()) => println!(
            "wrote Chrome trace of one traced pass ({} spans) to {}",
            events.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}
