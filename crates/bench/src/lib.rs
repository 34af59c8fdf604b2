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
use std::path::{Path, PathBuf};

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

/// A harness binary's command line. Every field has its default unless the
/// binary accepts the flag that sets it (see [`parse_args`]).
#[derive(Debug)]
pub struct HarnessArgs {
    /// `--threads N`: the process-wide parallelism default (0 = all hardware
    /// threads).
    pub threads: usize,
    /// `--repeats N` (10 by default); `--quick` sets 3 and wins.
    pub repeats: usize,
    /// `--checkpoint-dir DIR`: where GP-method runs checkpoint and resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--smoke`: run the quick check only.
    pub smoke: bool,
    /// `--keep DIR`: work in `DIR` and leave it behind.
    pub keep: Option<PathBuf>,
}

/// Parses a harness's arguments (program name excluded) against the flags
/// the binary `accepts`.
///
/// # Errors
///
/// A message for an argument the binary does not accept, a flag given twice,
/// or a missing or malformed value: an ignored typo such as `--thread 1` or
/// `--repeat 2` would run with the defaults without any sign of it.
pub fn parse_args(args: &[String], accepts: &[&str]) -> Result<HarnessArgs, String> {
    let mut parsed = HarnessArgs {
        threads: 0,
        repeats: 10,
        checkpoint_dir: None,
        smoke: false,
        keep: None,
    };
    let mut quick = false;
    let mut seen: Vec<&str> = Vec::new();
    let mut tokens = args.iter();
    while let Some(arg) = tokens.next() {
        let flag = arg.as_str();
        if !accepts.contains(&flag) {
            return Err(format!("unknown argument `{flag}`"));
        }
        if seen.contains(&flag) {
            return Err(format!("`{flag}` is given more than once"));
        }
        seen.push(flag);
        let mut value = || {
            tokens
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--threads" => {
                parsed.threads = value()?.parse().map_err(|_| {
                    "--threads requires a non-negative integer (0 = all cores)".to_string()
                })?;
            }
            "--repeats" => match value()?.parse() {
                Ok(n) if n > 0 => parsed.repeats = n,
                _ => return Err("--repeats requires a positive integer".into()),
            },
            "--quick" => quick = true,
            "--checkpoint-dir" => parsed.checkpoint_dir = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            "--keep" => parsed.keep = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if quick {
        parsed.repeats = 3;
    }
    Ok(parsed)
}

/// This process's arguments parsed by [`parse_args`]; exits with status 2
/// on a usage error. When the binary accepts `--threads`, its value is
/// installed as the process-wide parallelism default, which
/// `CmmfConfig::threads = 0` inherits.
pub fn harness_args(accepts: &[&str]) -> HarnessArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args, accepts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if accepts.contains(&"--threads") {
        rayon::ThreadPoolBuilder::new()
            .num_threads(parsed.threads)
            .build_global()
            .expect("global thread pool");
    }
    parsed
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
    fn arguments_parse_or_are_usage_errors() {
        const TABLE1: &[&str] = &["--threads", "--quick", "--repeats", "--checkpoint-dir"];
        let parse = |line: &str, accepts: &[&str]| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(&args, accepts)
        };
        let repeats = |line: &str| parse(line, TABLE1).map(|a| a.repeats);
        assert_eq!(repeats(""), Ok(10));
        assert_eq!(repeats("--quick"), Ok(3));
        assert_eq!(repeats("--repeats 4 --quick"), Ok(3));
        assert_eq!(repeats("--threads 2 --repeats 4"), Ok(4));
        let table1 = parse("--checkpoint-dir ckpt --repeats 1 --threads 2", TABLE1).unwrap();
        assert_eq!(table1.checkpoint_dir, Some(PathBuf::from("ckpt")));
        assert_eq!((table1.threads, table1.repeats), (2, 1));
        assert_eq!(
            parse("--threads 0", &["--threads"]).map(|a| a.threads),
            Ok(0)
        );
        assert_eq!(parse("--smoke", &["--smoke"]).map(|a| a.smoke), Ok(true));
        assert_eq!(
            parse("--keep out", &["--keep"]).map(|a| a.keep),
            Ok(Some(PathBuf::from("out")))
        );
        for (bad, accepts) in [
            ("--repeats abc", TABLE1),
            ("--repeats", TABLE1),
            ("--repeat 2", TABLE1),
            ("--repeats 0", TABLE1),
            ("--repeats -1", TABLE1),
            ("--quick --quick", TABLE1),
            ("--repeats 2 --repeats 3", TABLE1),
            ("--threads 1 --threads 2", &["--threads"]),
            ("--thread 1", &["--threads"]),
            ("--threads -1", &["--threads"]),
            ("--threads", &["--threads"]),
            ("--checkpoint-dir", TABLE1),
            (
                "--checkpoint-dir ckpt",
                &["--threads", "--quick", "--repeats"],
            ),
            ("--full", &["--smoke"]),
            ("--smoke extra", &["--smoke"]),
            ("--keep", &["--keep"]),
            ("--threads 1", &[]),
        ] {
            assert!(parse(bad, accepts).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn method_names_are_table_order() {
        let names: Vec<&str> = Method::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["Ours", "FPL18", "ANN", "BT", "DAC19"]);
    }
}
