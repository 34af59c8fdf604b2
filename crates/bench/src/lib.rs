#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each `src/bin/` binary regenerates one experiment (see `DESIGN.md`'s
//! per-experiment index):
//!
//! | binary          | paper artifact |
//! |-----------------|----------------|
//! | `table1`        | Table I (normalized ADRS / std-dev / running time)  |
//! | `fig3_pruning`  | Fig. 3 (tree pruning example + per-benchmark stats) |
//! | `fig4_toy`      | Fig. 4 (1-D, 3-fidelity GP + per-fidelity EI toy)   |
//! | `fig5_delay`    | Fig. 5 (per-config delay across fidelities)         |
//! | `fig6_eipv`     | Fig. 6 (cell decomposition + EIPV example)          |
//! | `fig8_pareto`   | Fig. 8 (learned Pareto points per method)           |
//! | `ablation`      | ablations: Secs. IV-A/IV-B, Eq. 10, escalation guard |
//! | `correlations`  | Sec. IV-B learned objective-correlation check       |
//!
//! Two more binaries check the loop rather than regenerate a figure:
//! `async_makespan` (the virtual-clock makespan of in-flight slots) and
//! `smoke_resume` (the journal schema and a kill-and-resume run). There are
//! no `cargo bench` targets: wall time is measured by the benchmark of record
//! in `cmmf-benchmark/`, a package outside this workspace.

use cmmf::runner::TrueFront;
use cmmf::{CmmfConfig, ModelVariant, Optimizer};
use fidelity_sim::{FlowSimulator, SimParams, N_OBJECTIVES};
use hls_model::benchmarks::{self, Benchmark};
use hls_model::DesignSpace;
use rand::derive_stream_seed;
use std::path::Path;

/// Everything needed to run one benchmark's experiments.
#[derive(Debug)]
pub struct BenchmarkSetup {
    /// Which paper benchmark this is.
    pub benchmark: Benchmark,
    /// Its tree-pruned design space.
    pub space: DesignSpace,
    /// The flow simulator configured for this benchmark.
    pub sim: FlowSimulator,
    /// The exhaustively computed true Pareto front.
    pub front: TrueFront,
}

impl BenchmarkSetup {
    /// Builds the space, simulator, and true front for `benchmark`.
    ///
    /// # Panics
    ///
    /// Panics if the shipped benchmark definitions fail to build (covered by
    /// tests).
    pub fn new(benchmark: Benchmark) -> Self {
        let space = benchmarks::build(benchmark)
            .unwrap()
            .pruned_space()
            .expect("shipped benchmarks build");
        let sim = FlowSimulator::new(SimParams::for_benchmark(benchmark));
        let front = TrueFront::compute(&space, &sim);
        BenchmarkSetup {
            benchmark,
            space,
            sim,
            front,
        }
    }
}

/// The five Table-I methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's correlated multi-objective multi-fidelity optimizer.
    Ours,
    /// FPL18: independent objectives + linear multi-fidelity BO.
    Fpl18,
    /// ANN surrogate (2-hidden-layer MLP).
    Ann,
    /// Gradient boosting trees surrogate.
    Bt,
    /// DAC19 regression transfer (post-HLS reports as features, 3–11 sets).
    Dac19,
}

impl Method {
    /// All methods in the paper's column order.
    pub fn all() -> [Method; 5] {
        [
            Method::Ours,
            Method::Fpl18,
            Method::Ann,
            Method::Bt,
            Method::Dac19,
        ]
    }

    /// Table-I column name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Ours => "Ours",
            Method::Fpl18 => "FPL18",
            Method::Ann => "ANN",
            Method::Bt => "BT",
            Method::Dac19 => "DAC19",
        }
    }
}

/// Outcome of one method run on one benchmark.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// ADRS against the true front (Eq. 11, Euclidean in normalized space).
    pub adrs: f64,
    /// Simulated tool seconds consumed.
    pub seconds: f64,
    /// The learned Pareto points (ground-truth objective vectors).
    pub pareto: Vec<[f64; N_OBJECTIVES]>,
    /// For the BO methods: how many iteration runs reached each stage.
    pub stage_counts: [usize; 3],
}

/// Runs `method` once on `setup` with the given seed, using the paper's
/// experimental settings (Sec. V-B: 8 initial configurations and 40 BO steps
/// for the GP methods, 48 training configurations for the regression
/// baselines).
///
/// # Panics
///
/// Panics if an underlying run fails; the shipped setups do not.
pub fn run_method(setup: &BenchmarkSetup, method: Method, seed: u64) -> MethodRun {
    run_method_checkpointed(setup, method, seed, None)
}

/// [`run_method`] with optional crash recovery for the GP methods: when
/// `checkpoint` is set, an Ours/FPL18 run writes a checkpoint there after
/// every BO step and resumes from it if the file already exists, so an
/// interrupted Table-I sweep re-run picks up where it stopped (bit-identical
/// to an uninterrupted run). The regression baselines are single-shot and
/// cheap; they ignore the path.
///
/// # Panics
///
/// Panics if an underlying run fails; the shipped setups do not.
pub fn run_method_checkpointed(
    setup: &BenchmarkSetup,
    method: Method,
    seed: u64,
    checkpoint: Option<&Path>,
) -> MethodRun {
    match method {
        Method::Ours | Method::Fpl18 => {
            let variant = if method == Method::Ours {
                ModelVariant::paper()
            } else {
                ModelVariant::fpl18()
            };
            let mut cfg = CmmfConfig {
                variant,
                seed,
                ..Default::default()
            };
            // Loop and GP seeds are separate derived streams; the old
            // `seed ^ 0xABCD` xor collapsed pairs of seed choices onto each
            // other's streams.
            cfg.gp.seed = derive_stream_seed(seed, &[1]);
            let opt = Optimizer::new(cfg);
            let r = match checkpoint {
                Some(path) => opt.run_with_checkpoints(&setup.space, &setup.sim, path),
                None => opt.run(&setup.space, &setup.sim),
            }
            .expect("optimizer run succeeds");
            let mut stage_counts = [0usize; 3];
            for c in &r.candidate_set {
                stage_counts[c.stage.index()] += 1;
            }
            MethodRun {
                adrs: setup.front.adrs_of(&r.measured_pareto),
                seconds: r.sim_seconds,
                pareto: r.measured_pareto,
                stage_counts,
            }
        }
        Method::Ann | Method::Bt | Method::Dac19 => {
            let kind = match method {
                Method::Ann => baselines::dse::SurrogateKind::Ann,
                Method::Bt => baselines::dse::SurrogateKind::BoostingTree,
                _ => baselines::dse::SurrogateKind::Dac19,
            };
            let r = baselines::dse::run_surrogate_dse(kind, &setup.space, &setup.sim, 48, seed)
                .expect("surrogate run succeeds");
            MethodRun {
                adrs: setup.front.adrs_of(&r.measured_pareto),
                seconds: r.sim_seconds,
                pareto: r.measured_pareto,
                stage_counts: [0, 0, 48],
            }
        }
    }
}

/// Statistics over repeated runs of one method on one benchmark.
#[derive(Debug, Clone)]
pub struct MethodCell {
    /// Mean ADRS.
    pub mean_adrs: f64,
    /// Sample standard deviation of ADRS.
    pub std_adrs: f64,
    /// Mean simulated seconds.
    pub mean_seconds: f64,
}

/// Repeats `run_method` with distinct derived seeds and aggregates. When
/// `checkpoint_dir` is set, each GP-method repeat checkpoints to (and resumes
/// from) `<dir>/<bench>-<method>-rep<k>.ckpt.json`.
pub fn repeat_method_checkpointed(
    setup: &BenchmarkSetup,
    method: Method,
    repeats: usize,
    seed0: u64,
    checkpoint_dir: Option<&Path>,
) -> MethodCell {
    let mut adrs = Vec::with_capacity(repeats);
    let mut secs = Vec::with_capacity(repeats);
    for rep in 0..repeats {
        let path = checkpoint_dir.map(|d| {
            d.join(format!(
                "{}-{}-rep{rep}.ckpt.json",
                setup.benchmark.name(),
                method.name()
            ))
        });
        let r = run_method_checkpointed(
            setup,
            method,
            derive_stream_seed(seed0, &[rep as u64]),
            path.as_deref(),
        );
        adrs.push(r.adrs);
        secs.push(r.seconds);
    }
    MethodCell {
        mean_adrs: linalg::stats::mean(&adrs),
        std_adrs: linalg::stats::std_dev(&adrs),
        mean_seconds: linalg::stats::mean(&secs),
    }
}

/// The repeat count `table1` and `ablation` run (see [`repeats_in`]);
/// exits with status 2 on a usage error.
pub fn repeats_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    repeats_in(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The repeat count a harness's arguments ask for (program name excluded):
/// 10 by default, `N` with `--repeats N`, 3 with `--quick`, which wins.
/// `--threads N` and `--checkpoint-dir DIR` are skipped with their values.
///
/// # Errors
///
/// A message for a `--repeats` value that is missing or not a positive
/// integer, and for any other argument: an ignored typo such as `--repeat 2`
/// would start the default sweep.
pub fn repeats_in(args: &[String]) -> Result<usize, String> {
    let (mut repeats, mut quick) = (10, false);
    let mut tokens = args.iter();
    while let Some(arg) = tokens.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--repeats" => match tokens.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => repeats = n,
                _ => return Err("--repeats requires a positive integer".into()),
            },
            "--threads" | "--checkpoint-dir" => _ = tokens.next(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(if quick { 3 } else { repeats })
}

/// Parses `--threads N` and installs it as the process-wide parallelism
/// default (0 or absent = all hardware threads). Harness binaries call this
/// once at startup; `CmmfConfig::threads = 0` then inherits the value.
/// Returns the effective thread count.
///
/// Exits with status 2 on a malformed value: results are thread-count
/// independent, but a silently ignored `--threads` would break wall-clock
/// expectations without any sign of it.
pub fn install_threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let n = match args.iter().position(|a| a == "--threads") {
        Some(pos) => match args.get(pos + 1).map(|s| s.parse::<usize>()) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("error: --threads requires a non-negative integer (0 = all cores)");
                std::process::exit(2);
            }
        },
        None => 0,
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("global thread pool");
    if n == 0 {
        rayon::hardware_threads()
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_and_single_runs_work_on_smallest_space() {
        let setup = BenchmarkSetup::new(Benchmark::SpmvCrs);
        for method in [Method::Bt, Method::Dac19] {
            let r = run_method(&setup, method, 1);
            assert!(r.adrs.is_finite() && r.seconds > 0.0);
            assert!(!r.pareto.is_empty());
        }
    }

    #[test]
    fn repeats_parse_or_are_usage_errors() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            repeats_in(&args)
        };
        assert_eq!(parse(""), Ok(10));
        assert_eq!(parse("--quick"), Ok(3));
        assert_eq!(parse("--repeats 4 --quick"), Ok(3));
        assert_eq!(parse("--threads 2 --repeats 4"), Ok(4));
        assert_eq!(parse("--checkpoint-dir ckpt --repeats 1"), Ok(1));
        for bad in [
            "--repeats abc",
            "--repeats",
            "--repeat 2",
            "--repeats 0",
            "--repeats -1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn method_names_are_table_order() {
        let names: Vec<&str> = Method::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["Ours", "FPL18", "ANN", "BT", "DAC19"]);
    }
}
