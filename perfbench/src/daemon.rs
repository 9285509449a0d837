//! The `daemon` workload: an open loop of single-preset `schedule`
//! requests against `polytopsd serve` running in its own process.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use polytops_codegen::emit_c;
use polytops_core::json::Json;
use polytops_core::tune::{score_schedule, MachineModel};
use polytops_core::{schedule_with_options, EngineOptions};
use polytops_deps::analyze;
use polytops_server::protocol::{self, Request};
use polytops_server::Client;
use polytops_workloads::sweep::preset_grid;

use crate::gate::check_response;
use crate::inputs::{self, PlannedRequest};
use crate::layers::{self, COMPILE_LAYERS, SERVER_STAGES};
use crate::offline::PARAM_ESTIMATE;
use crate::report::Outcome;
use crate::speed::Probe;
use crate::stats::{geomean, hd_quantile, median};
use crate::Args;

/// Offered load, requests per second.
pub const RATE: f64 = 3.0;
/// Pipelined connections the load is spread over (one per core here).
pub const CONNECTIONS: usize = 2;
/// A response slower than this misses the goodput limit.
const LIMIT_S: f64 = 1.0;
/// How long the client waits for missing responses after the last one
/// was due.
const DRAIN: Duration = Duration::from_secs(20);
/// Poll interval of the single-threaded client loop.
const TICK: Duration = Duration::from_micros(200);
/// Interval between speed-reference samples during the load.
const PROBE_EVERY: Duration = Duration::from_millis(25);

/// A running `polytopsd serve` child process. Dropping it kills the
/// process, waits for it and removes its snapshot directory.
pub struct Daemon {
    child: Child,
    /// Keeps the daemon's stdout pipe open until it exits.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon next to this executable with a fresh snapshot
    /// directory and waits until it answers a ping.
    pub fn spawn(dir: PathBuf, traced: bool) -> Result<Daemon, String> {
        let exe = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("polytopsd");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut cmd = Command::new(&exe);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--snapshot-dir"])
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if !traced {
            cmd.arg("--no-trace");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon_line = String::new();
        let read = stdout.read_line(&mut daemon_line);
        let addr = daemon_line
            .strip_prefix("polytopsd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
            dir,
        };
        if read.is_err() || daemon.addr.is_empty() {
            return Err(format!("daemon did not start: {daemon_line:?}"));
        }
        let pong = Client::connect(&daemon.addr)
            .and_then(|mut c| c.roundtrip(r#"{"op":"ping"}"#))
            .map_err(|e| format!("ping: {e}"))?;
        if !pong.contains("pong") {
            return Err(format!("unexpected ping answer {pong}"));
        }
        Ok(daemon)
    }

    /// The daemon's `stats` response.
    pub fn stats(&self) -> Result<Json, String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats: {e}"))
    }

    /// Peak resident set of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::stats::peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Sends `shutdown` and waits (bounded) for the process to exit.
    pub fn shutdown(mut self) {
        let _ = Client::connect(&self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Sends the warm-up pass (every reference kernel under the whole
/// preset grid) and counts the responses that are not `ok`.
fn warm_up(daemon: &Daemon, lines: &[String]) -> Result<u64, String> {
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("warm-up: {e}"))?;
    for line in lines {
        client.send_line(line).map_err(|e| e.to_string())?;
    }
    let mut bad = 0;
    for _ in lines {
        let response = client.recv_line().map_err(|e| e.to_string())?;
        bad += u64::from(!response.contains("\"ok\":true"));
    }
    Ok(bad)
}

/// Set-up of one load phase: request generation, spawn to ready, and the
/// registry warm-up pass, repeated `reps` times (a fresh daemon each
/// time); the last daemon serves the load.
fn set_up(
    args: &Args,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(Daemon, Vec<PlannedRequest>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    let mut probe = Probe::on_two_cpus();
    for rep in 0..args.setup_reps() {
        if let Some((daemon, _)) = kept.take() {
            Daemon::shutdown(daemon);
        }
        probe.burst();
        let from_s = probe.now_s();
        let t0 = Instant::now();
        let plan = inputs::daemon_plan(args.seed, RATE, seconds, args.smoke);
        let warm = inputs::warmup_lines(args.smoke);
        let dir = crate::out_dir().join(format!("daemon-{}-{rep}", std::process::id()));
        let daemon = Daemon::spawn(dir, traced)?;
        out.attempted += warm.len() as u64;
        out.failed += warm_up(&daemon, &warm)?;
        let secs = t0.elapsed().as_secs_f64();
        let to_s = probe.now_s();
        probe.burst();
        times.push(secs * probe.factor_between(from_s - 0.1, to_s + 0.1));
        kept = Some((daemon, plan));
    }
    let (daemon, plan) = kept.expect("at least one set-up");
    Ok((daemon, plan, times))
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

/// What the client saw during one load phase.
struct Load {
    /// Per planned request: (response line, seconds from due to
    /// receipt, scale factor to nominal speed over that interval).
    responses: Vec<Option<(String, f64, f64)>>,
    /// `trace` op responses (traced phases only).
    traces: Vec<String>,
    /// Largest delay between a request's due time and its send, seconds.
    lag_s: f64,
    /// Requests outstanding when the last one was due.
    backlog: usize,
    /// From the first due time to the last response, seconds.
    wall_s: f64,
    /// Speed reference timed on the client thread during the load.
    probe: Probe,
}

/// The request id of a schedule response line (`{"id":"r12",...`),
/// without parsing the whole line. Error responses put `error` first.
fn response_index(line: &str) -> Option<usize> {
    if let Some(rest) = line.strip_prefix("{\"id\":\"r") {
        return rest.split('"').next()?.parse().ok();
    }
    let parsed = polytops_core::json::parse(line).ok()?;
    parsed
        .as_object()?
        .get("id")?
        .as_str()?
        .strip_prefix('r')?
        .parse()
        .ok()
}

/// Runs the open loop: request `i` is due at `plan[i].due_s`, sent on
/// connection `i % CONNECTIONS`, and timed from when it was due. One
/// thread drives every connection through nonblocking sockets. With
/// `sample_traces`, every schedule response is followed by a `trace` op
/// on the same connection.
fn open_loop(addr: &str, plan: &[PlannedRequest], sample_traces: bool) -> Result<Load, String> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(Conn {
                stream,
                wbuf: Vec::new(),
                rbuf: Vec::new(),
            })
        })
        .collect::<std::io::Result<Vec<Conn>>>()
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let n = plan.len();
    let mut responses: Vec<Option<(String, f64, f64)>> = vec![None; n];
    let mut traces = Vec::new();
    let mut received = 0usize;
    let mut pending_traces = 0usize;
    let mut next = 0usize;
    let mut lag_s = 0f64;
    let mut backlog = None;
    let window = plan.last().map_or(0.0, |r| r.due_s);
    let mut buf = vec![0u8; 1 << 16];
    let mut probe = Probe::on_two_cpus();
    probe.sample();
    let start = Instant::now();
    let probe_offset = probe.now_s();
    let mut last_response = start;
    let mut last_probe = start;
    // A connection error ends the load early: the gate then counts every
    // response still missing as failed, and the run goes on.
    'load: loop {
        let now_s = start.elapsed().as_secs_f64();
        while next < n && plan[next].due_s <= now_s {
            lag_s = lag_s.max(now_s - plan[next].due_s);
            let conn = &mut conns[next % CONNECTIONS];
            conn.wbuf.extend_from_slice(plan[next].line.as_bytes());
            conn.wbuf.push(b'\n');
            next += 1;
        }
        if next == n && backlog.is_none() {
            backlog = Some(n - received);
        }
        for conn in &mut conns {
            while !conn.wbuf.is_empty() {
                match conn.stream.write(&conn.wbuf) {
                    Ok(k) if k > 0 => {
                        conn.wbuf.drain(..k);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    other => {
                        eprintln!("perfbench: send failed ({other:?}); ending the load");
                        break 'load;
                    }
                }
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(k) if k > 0 => conn.rbuf.extend_from_slice(&buf[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    other => {
                        eprintln!("perfbench: receive failed ({other:?}); ending the load");
                        break 'load;
                    }
                }
            }
            let at = Instant::now();
            let at_s = (at - start).as_secs_f64();
            while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
                if line.starts_with("{\"ok\":true,\"trace\"") {
                    pending_traces = pending_traces.saturating_sub(1);
                    traces.push(line);
                    continue;
                }
                last_response = at;
                match response_index(&line).filter(|&i| i < n && responses[i].is_none()) {
                    Some(i) => {
                        responses[i] = Some((line, at_s - plan[i].due_s, 0.0));
                        received += 1;
                    }
                    // Its request stays unanswered and fails the gate.
                    None => eprintln!("perfbench: unmatched response: {line:.200}"),
                }
                if sample_traces {
                    conn.wbuf.extend_from_slice(b"{\"op\":\"trace\"}\n");
                    pending_traces += 1;
                }
            }
        }
        if next == n && received == n && pending_traces == 0 {
            break;
        }
        if start.elapsed() > Duration::from_secs_f64(window) + DRAIN {
            eprintln!(
                "perfbench: {} responses still missing after the drain",
                n - received
            );
            break;
        }
        if last_probe.elapsed() >= PROBE_EVERY {
            probe.sample();
            last_probe = Instant::now();
        }
        std::thread::sleep(TICK);
    }
    // Each latency is scaled by the reference timed while it ran.
    for (r, response) in plan.iter().zip(&mut responses) {
        if let Some((_, latency_s, factor)) = response {
            let from_s = probe_offset + r.due_s;
            *factor = probe.factor_between(from_s, from_s + *latency_s);
        }
    }
    Ok(Load {
        responses,
        traces,
        lag_s,
        backlog: backlog.unwrap_or(n - received),
        wall_s: (last_response - start).as_secs_f64().max(window),
        probe,
    })
}

/// The offline engine's `results` for each distinct planned request
/// (compact JSON), keyed by class and shift.
fn expected_results(plan: &[PlannedRequest]) -> BTreeMap<(String, Option<i64>), String> {
    let mut out = BTreeMap::new();
    for r in plan {
        out.entry((r.class(), r.shift))
            .or_insert_with(|| match protocol::parse_request(&r.line) {
                Ok(Request::Schedule(req)) => protocol::offline_results(&req).compact(),
                _ => String::new(),
            });
    }
    out
}

/// Model cycles and C bytes of the reference schedules of every class
/// the plan served (a novel variant schedules like its reference).
fn class_outputs(plan: &[PlannedRequest], smoke: bool) -> (f64, usize) {
    let classes: BTreeSet<String> = plan.iter().map(PlannedRequest::class).collect();
    let machine = MachineModel::default();
    let grid = preset_grid();
    let mut cycles = Vec::new();
    let mut bytes = 0usize;
    for (kernel, scop) in inputs::daemon_kernels(smoke) {
        for (preset, config) in &grid {
            if !classes.contains(&format!("{kernel}/{preset}")) {
                continue;
            }
            if let Ok((sched, _)) = schedule_with_options(&scop, config, &EngineOptions::default())
            {
                let (_, score) = score_schedule(&scop, &sched, &machine, PARAM_ESTIMATE);
                cycles.push((-score).max(1) as f64);
                bytes += emit_c(&scop, &sched).map_or(0, |c| c.len());
            }
        }
    }
    (geomean(&cycles), bytes)
}

/// What one load phase produced: its plan and load, its set-up times,
/// the `stats` op before and after the load, the daemon's peak RSS and
/// the responses that passed the gate within the latency limit.
struct Phase {
    plan: Vec<PlannedRequest>,
    load: Load,
    setups: Vec<f64>,
    stats: (Json, Json),
    rss_mb: f64,
    good: usize,
}

fn phase(args: &Args, seconds: f64, traced: bool, out: &mut Outcome) -> Result<Phase, String> {
    let (daemon, plan, setups) = set_up(args, seconds, traced, out)?;
    let before = daemon.stats()?;
    let load = open_loop(&daemon.addr, &plan, traced)?;
    let after = daemon.stats()?;
    let rss_mb = daemon.peak_rss_mb();
    daemon.shutdown();

    let expected = expected_results(&plan);
    let mut good = 0usize;
    for (r, response) in plan.iter().zip(&load.responses) {
        out.attempted += 1;
        let want = &expected[&(r.class(), r.shift)];
        match check_response(response.as_ref().map(|(l, _, _)| l.as_str()), want) {
            Ok(()) => good += usize::from(response.as_ref().is_some_and(|(_, s, _)| *s <= LIMIT_S)),
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: request {} ({}) failed: {e}", r.id, r.class());
            }
        }
    }
    Ok(Phase {
        plan,
        load,
        setups,
        stats: (before, after),
        rss_mb,
        good,
    })
}

/// Request latencies in milliseconds, each scaled to nominal speed; a
/// missing response counts as the drain limit.
fn latencies_ms(load: &Load) -> Vec<f64> {
    load.responses
        .iter()
        .map(|r| r.as_ref().map_or(DRAIN.as_secs_f64(), |(_, s, f)| s * f) * 1e3)
        .collect()
}

/// Runs the `daemon` workload untraced (`--no-trace` daemon) and
/// reports the end-to-end metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let p = phase(args, args.seconds, false, &mut out)?;
    let lat = latencies_ms(&p.load);
    let (cycles, bytes) = class_outputs(&p.plan, args.smoke);
    let ok = p.load.responses.iter().filter(|r| r.is_some()).count();
    // Every request counts once: a smooth estimator, unlike per-class
    // medians of three or four samples.
    out.set("compile_geomean_ms", geomean(&lat));
    out.set("scenarios_per_s", ok as f64 / p.load.wall_s);
    out.set("model_cycles_geomean", cycles);
    out.set("code_bytes", bytes as f64);
    out.set("latency_p50_ms", hd_quantile(&lat, 0.5));
    out.set("latency_p90_ms", hd_quantile(&lat, 0.9));
    out.set("goodput_rps", p.good as f64 / args.seconds);
    out.set("peak_rss_mb", p.rss_mb);
    out.set("setup_s", median(&p.setups));
    println!(
        "daemon: {} requests at {RATE} req/s over {CONNECTIONS} connections, {} samples beyond p90, \
         max lag {:.2} ms, backlog {} when the last was due, {} set-ups; median reference {:.4} ms",
        lat.len(),
        lat.len() - (0.9 * lat.len() as f64).ceil() as usize,
        p.load.lag_s * 1e3,
        p.load.backlog,
        p.setups.len(),
        p.load.probe.reference_ms(),
    );
    Ok(out)
}

/// The integer at `path` in a `stats` response; 0 when absent.
fn stat(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |json, key| json.as_object()?.get(*key))
        .and_then(Json::as_int)
        .unwrap_or(0) as f64
}

/// Runs the `daemon` workload as two half-length phases, untraced then
/// traced, and reports the per-layer metrics of the traced phase (the
/// untraced phase gives the tracing overhead).
pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let half = args.seconds / 2.0;
    let plain = phase(args, half, false, &mut out)?;
    let p = phase(args, half, true, &mut out)?;

    // Lifecycle and pipeline stages from the sampled request traces,
    // one per trace id.
    let mut seen = BTreeSet::new();
    let mut stage: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut layer_ns = vec![0u64; COMPILE_LAYERS.len()];
    let mut request_ns = 0u64;
    for line in &p.load.traces {
        let Some((id, spans)) = layers::spans_from_trace_response(line) else {
            continue;
        };
        if !seen.insert(id) {
            continue;
        }
        let dur = layers::durations(&spans);
        let self_ns = layers::self_times(&spans);
        for name in SERVER_STAGES {
            let ms = dur.get(name).copied().unwrap_or(0) as f64 / 1e6;
            stage.entry(name).or_default().push(ms);
        }
        for (slot, (names, _)) in layer_ns.iter_mut().zip(COMPILE_LAYERS) {
            *slot += layers::layer_ns(&self_ns, names);
        }
        request_ns += dur.get("request").copied().unwrap_or(0);
    }
    let samples = seen.len().max(1) as f64;
    for name in SERVER_STAGES {
        let v = stage.get(name).cloned().unwrap_or_default();
        out.set(&format!("server.{name}_ms"), median(&v));
    }
    for ((_, stem), ns) in COMPILE_LAYERS.iter().zip(&layer_ns) {
        out.set(&format!("{stem}_ms"), *ns as f64 / 1e6 / samples);
        out.set(
            &format!("{stem}_share"),
            100.0 * *ns as f64 / request_ns.max(1) as f64,
        );
    }

    // Counters and histograms: deltas of the `stats` op over the load.
    let (before, after) = &p.stats;
    let requests = p.plan.len().max(1) as f64;
    let delta = |path: &[&str]| stat(after, path) - stat(before, path);
    let delta_counter = |name: &str| delta(&["obs", "counters", name]);
    let delta_hist = |name: &str| {
        (
            delta(&["obs", "histograms", name, "count"]),
            delta(&["obs", "histograms", name, "sum_ns"]),
        )
    };
    out.set(
        "service.batch_size_mean",
        delta_counter("service.requests") / delta_counter("service.batches").max(1.0),
    );
    let per_call_ms = |(count, sum_ns): (f64, f64)| sum_ns / 1e6 / count.max(1.0);
    let per_request_ms = |(_, sum_ns): (f64, f64)| sum_ns / 1e6 / requests;
    out.set(
        "pool.queue_wait_ms",
        per_call_ms(delta_hist("pool.queue_wait_ns")),
    );
    let appends = delta_hist("persist.append_ns");
    out.set("persist.appends", appends.0);
    out.set("persist.append_ms", per_call_ms(appends));
    out.set(
        "persist.fsync_ms",
        per_call_ms(delta_hist("persist.fsync_ns")),
    );
    out.set(
        "farkas.eliminate_ms",
        per_request_ms(delta_hist("farkas.eliminate_ns")),
    );
    out.set(
        "farkas.replay_ms",
        per_request_ms(delta_hist("farkas.replay_ns")),
    );
    out.set(
        "math.phase1_ms",
        per_request_ms(delta_hist("simplex.phase1_ns")),
    );
    out.set(
        "math.pin_eq_ms",
        per_request_ms(delta_hist("simplex.pin_eq_ns")),
    );
    let hits = delta(&["registry", "hits"]);
    let misses = delta(&["registry", "misses"]);
    out.set("registry.misses", misses);
    out.set("registry.hit_rate", 100.0 * hits / (hits + misses).max(1.0));

    // Per-scenario solver counters ride in each response's `stats`.
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    for (line, _, _) in p.load.responses.iter().flatten() {
        let Ok(parsed) = polytops_core::json::parse(line) else {
            continue;
        };
        let Some(list) = parsed
            .as_object()
            .and_then(|o| o.get("stats"))
            .and_then(Json::as_array)
        else {
            continue;
        };
        let pipelines = list
            .iter()
            .filter_map(|s| s.as_object()?.get("pipeline")?.as_object());
        for s in pipelines {
            for key in [
                "farkas_hits",
                "farkas_misses",
                "fractional_stages",
                "dual_pivots",
                "fast_path_dims",
                "fast_path_fallbacks",
            ] {
                *sums.entry(key).or_default() +=
                    s.get(key).and_then(Json::as_int).unwrap_or(0) as f64;
            }
        }
    }
    let sum = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    out.set(
        "farkas.hit_rate",
        100.0 * sum("farkas_hits") / (sum("farkas_hits") + sum("farkas_misses")).max(1.0),
    );
    out.set("math.fractional_stages", sum("fractional_stages"));
    out.set("math.dual_pivots", sum("dual_pivots"));
    out.set("fastpath.dims", sum("fast_path_dims"));
    out.set("fastpath.fallbacks", sum("fast_path_fallbacks"));
    // Dependences the daemon analyzed during the load: those of the
    // novel variants (reference kernels were analyzed in set-up).
    let dependences: usize = inputs::daemon_kernels(args.smoke)
        .iter()
        .map(|(kernel, scop)| {
            let novel = p
                .plan
                .iter()
                .filter(|r| r.shift.is_some() && r.kernel == *kernel)
                .count();
            novel * analyze(scop).len()
        })
        .sum();
    out.set("deps.dependences", dependences as f64);
    out.set("client.lag_ms", p.load.lag_s * 1e3);
    out.set("client.backlog", p.load.backlog as f64);

    // The phases run one after the other, so each is scaled to nominal
    // speed before they are compared.
    let plain_p50 = hd_quantile(&latencies_ms(&plain.load), 0.5);
    let traced_p50 = hd_quantile(&latencies_ms(&p.load), 0.5);
    out.set("trace.overhead_pct", 100.0 * (traced_p50 / plain_p50 - 1.0));
    out.set("trace.samples", seen.len() as f64);
    out.set("latency.samples", p.plan.len() as f64);
    out.set("speed.reference_ms", p.load.probe.reference_ms());
    println!(
        "daemon (traced): {} requests per phase, {} distinct request traces sampled; \
         p50 {traced_p50:.2} ms traced vs {plain_p50:.2} ms untraced",
        p.plan.len(),
        seen.len(),
    );
    Ok(out)
}
