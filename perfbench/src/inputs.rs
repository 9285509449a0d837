//! Seeded input generation. The program under test only ever sees what
//! this module produces: polyscop texts, configurations and request
//! lines. The seed picks orders and variants, never the size of the
//! work, so every seed measures the same amount of it.

use polytops_core::{presets, PostProcess, SchedulerConfig};
use polytops_ir::{print_scop, AffineExpr, Scop, Subscript};
use polytops_workloads::sweep::{preset_grid, standard_sweep, SWEEP_CHAIN_LEN};
use polytops_workloads::{all_kernels, requests, synthetic};

use crate::stats::Rng;

/// Kernels the `--smoke` mode keeps: the two cheapest of the suite.
const SMOKE_KERNELS: [&str; 2] = ["stencil_chain", "producer_consumer"];

/// One offline compile job: a SCoP as polyscop text plus a configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// `<kernel>/<configuration>`.
    pub name: String,
    /// The SCoP in the polyscop exchange format (what `parse_scop` reads).
    pub text: String,
    /// The scheduler configuration.
    pub config: SchedulerConfig,
}

fn keep(kernel: &str, smoke: bool) -> bool {
    !smoke || SMOKE_KERNELS.contains(&kernel)
}

/// The standard sweep (8 kernels × 5 presets) in a seeded order.
pub fn sweep_scenarios(seed: u64, smoke: bool) -> Vec<Scenario> {
    let set = standard_sweep();
    let mut out: Vec<Scenario> = set
        .scenarios()
        .iter()
        .filter(|s| keep(&set.scops()[s.scop].0, smoke))
        .map(|s| Scenario {
            name: s.name.clone(),
            text: print_scop(&set.scops()[s.scop].1),
            config: s.config.clone(),
        })
        .collect();
    Rng::new(seed).shuffle(&mut out);
    out
}

/// The two tiling configurations of the `tile` workload, both on the
/// heuristic fast path so the ILP solver is bypassed.
pub fn tile_configs() -> Vec<(&'static str, SchedulerConfig)> {
    let with_post = |post: PostProcess| SchedulerConfig {
        post,
        ..presets::fast_path()
    };
    vec![
        (
            "fast_tile32",
            with_post(PostProcess {
                tile_sizes: vec![32, 32],
                wavefront: false,
                intra_tile_vectorize: false,
            }),
        ),
        (
            "fast_tile32_wave_vec",
            with_post(PostProcess {
                tile_sizes: vec![32, 32],
                wavefront: true,
                intra_tile_vectorize: true,
            }),
        ),
    ]
}

/// The `tile` workload: every reference kernel except gemver (the fast
/// path falls back to the ILP on it) plus `long_chain_12`, under both
/// [`tile_configs`], in a seeded order.
pub fn tile_scenarios(seed: u64, smoke: bool) -> Vec<Scenario> {
    let mut kernels: Vec<(&str, Scop)> = all_kernels()
        .into_iter()
        .filter(|(k, _)| *k != "gemver")
        .collect();
    kernels.push(("long_chain_12", synthetic::long_chain(SWEEP_CHAIN_LEN)));
    let mut out = Vec::new();
    for (kernel, scop) in kernels.iter().filter(|(k, _)| keep(k, smoke)) {
        let text = print_scop(scop);
        for (config_name, config) in tile_configs() {
            out.push(Scenario {
                name: format!("{kernel}/{config_name}"),
                text: text.clone(),
                config,
            });
        }
    }
    Rng::new(seed).shuffle(&mut out);
    out
}

/// `scop` with the leading subscript of every access shifted by
/// `shift`. All accesses move together, so the dependences, schedules
/// and generated code equal the original kernel's, but the SCoP is new
/// to the daemon's registry: it costs what a never-seen kernel of the
/// same shape costs.
pub fn shifted(scop: &Scop, shift: i64) -> Scop {
    let mut out = scop.clone();
    let move_expr = |e: &AffineExpr| {
        AffineExpr::new(
            e.iter_coeffs().to_vec(),
            e.param_coeffs().to_vec(),
            e.constant_term() + shift,
        )
    };
    for stmt in &mut out.statements {
        for access in &mut stmt.accesses {
            if let Some(first) = access.subscripts.first_mut() {
                *first = match first {
                    Subscript::Aff(e) => Subscript::Aff(move_expr(e)),
                    Subscript::FloorDiv(e, k) => Subscript::FloorDiv(move_expr(e), *k),
                    Subscript::Mod(e, k) => Subscript::Mod(move_expr(e), *k),
                };
            }
        }
    }
    out
}

/// One planned `schedule` request of the `daemon` workload.
#[derive(Debug, Clone)]
pub struct PlannedRequest {
    /// Request id (unique in the run).
    pub id: String,
    /// Reference kernel the SCoP is (a variant of).
    pub kernel: &'static str,
    /// The single preset requested.
    pub preset: &'static str,
    /// Subscript shift of a novel variant; `None` for a reference kernel.
    pub shift: Option<i64>,
    /// The request line sent to the daemon.
    pub line: String,
    /// When the request is due, in seconds after the load starts.
    pub due_s: f64,
}

impl PlannedRequest {
    /// The (kernel, preset) class the request belongs to; a novel
    /// variant shares its reference kernel's class.
    pub fn class(&self) -> String {
        format!("{}/{}", self.kernel, self.preset)
    }
}

/// The reference kernels the daemon serves, with their polyscop text.
pub fn daemon_kernels(smoke: bool) -> Vec<(&'static str, Scop)> {
    all_kernels()
        .into_iter()
        .filter(|(k, _)| keep(k, smoke))
        .collect()
}

/// The warm-up pass of the daemon's set-up: every reference kernel
/// once, under the whole preset grid.
pub fn warmup_lines(smoke: bool) -> Vec<String> {
    let grid = preset_grid();
    let names: Vec<&str> = grid.iter().map(|(name, _)| *name).collect();
    daemon_kernels(smoke)
        .iter()
        .map(|(kernel, scop)| {
            requests::request_line(&format!("warm/{kernel}"), kernel, scop, &names)
        })
        .collect()
}

/// Cost tier of a reference kernel when served warm: light (a few ms),
/// medium (tens of ms) or heavy (hundreds of ms under some presets).
fn tier(kernel: &str) -> usize {
    match kernel {
        "stencil_chain" | "producer_consumer" | "reversed_consumer" => 0,
        "matmul" | "jacobi_1d" => 1,
        _ => 2,
    }
}

/// Tier of each slot of a round, repeated: heavy requests are spread
/// evenly through the round instead of bunching by chance, so the
/// queueing a seed produces is the same from seed to seed.
const SLOT_TIERS: [usize; 7] = [0, 1, 2, 0, 1, 2, 0];

/// The open-loop request schedule of the `daemon` workload: requests
/// due every `1 / rate` seconds for `seconds`.
///
/// The plan is made of rounds. Each round sends every (reference
/// kernel, preset) pair once: the slots of a round follow a fixed
/// light/medium/heavy pattern, and the seed orders the pairs within
/// each tier. In round `r` kernel `k` is sent under preset `(k + r) mod
/// 5` as a novel shifted variant instead of the reference SCoP (one
/// request in five), so which requests miss the registry does not
/// depend on the seed and every pair is novel once in five rounds.
/// Shifts are seeded and unique in the run.
pub fn daemon_plan(seed: u64, rate: f64, seconds: f64, smoke: bool) -> Vec<PlannedRequest> {
    let mut rng = Rng::new(seed);
    let kernels = daemon_kernels(smoke);
    let grid: Vec<&'static str> = preset_grid().iter().map(|(name, _)| *name).collect();
    let count = ((rate * seconds).round() as usize).max(1);
    let first_shift = 1 + rng.below(1 << 20) as i64;
    let mut plan = Vec::with_capacity(count);
    let mut novel = 0i64;
    let mut round = 0usize;
    while plan.len() < count {
        let mut tiers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); 3];
        for (k, (kernel, _)) in kernels.iter().enumerate() {
            tiers[tier(kernel)].extend((0..grid.len()).map(|p| (k, p)));
        }
        for t in &mut tiers {
            rng.shuffle(t);
        }
        let mut slot = 0usize;
        while plan.len() < count {
            let want = SLOT_TIERS[slot % SLOT_TIERS.len()];
            slot += 1;
            let Some(t) = std::iter::once(want)
                .chain(0..tiers.len())
                .find(|&t| !tiers[t].is_empty())
            else {
                break;
            };
            let (k, p) = tiers[t].pop().expect("tier is not empty");
            let (kernel, scop) = &kernels[k];
            let shift = ((k + round) % grid.len() == p).then(|| {
                novel += 1;
                first_shift + novel
            });
            let i = plan.len();
            let id = format!("r{i}");
            let line = match shift {
                None => requests::request_line(&id, kernel, scop, &[grid[p]]),
                Some(s) => requests::request_line(
                    &id,
                    &format!("{kernel}+{s}"),
                    &shifted(scop, s),
                    &[grid[p]],
                ),
            };
            plan.push(PlannedRequest {
                id,
                kernel,
                preset: grid[p],
                shift,
                line,
                due_s: i as f64 / rate,
            });
        }
        round += 1;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_reorder_but_keep_the_work() {
        let a = sweep_scenarios(1, false);
        let b = sweep_scenarios(2, false);
        assert_eq!(a.len(), 40);
        let mut na: Vec<&str> = a.iter().map(|s| s.name.as_str()).collect();
        let mut nb: Vec<&str> = b.iter().map(|s| s.name.as_str()).collect();
        assert_ne!(na, nb);
        na.sort_unstable();
        nb.sort_unstable();
        assert_eq!(na, nb);
        assert_eq!(tile_scenarios(3, false).len(), 14);
    }

    #[test]
    fn daemon_rounds_cover_every_class_with_one_novel_in_five() {
        let plan = daemon_plan(9, 7.0, 25.0, false);
        assert_eq!(plan.len(), 175);
        for round in plan.chunks(35) {
            let mut classes: Vec<String> = round.iter().map(PlannedRequest::class).collect();
            classes.sort();
            classes.dedup();
            assert_eq!(classes.len(), 35);
            assert_eq!(round.iter().filter(|r| r.shift.is_some()).count(), 7);
            // Heavy requests sit in the pattern's heavy slots.
            assert!(round.iter().step_by(7).all(|r| tier(r.kernel) == 0));
        }
        // Five rounds make every pair novel exactly once.
        let mut novel: Vec<String> = plan
            .iter()
            .filter(|r| r.shift.is_some())
            .map(PlannedRequest::class)
            .collect();
        novel.sort();
        novel.dedup();
        assert_eq!(novel.len(), 35);
        let mut shifts: Vec<i64> = plan.iter().filter_map(|r| r.shift).collect();
        let n = shifts.len();
        shifts.dedup();
        assert_eq!(shifts.len(), n);
        assert_eq!(daemon_plan(9, 7.0, 25.0, false)[5].line, plan[5].line);
        let lines = |p: &[PlannedRequest]| p.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
        assert_ne!(lines(&daemon_plan(10, 7.0, 25.0, false)), lines(&plan));
    }
}
