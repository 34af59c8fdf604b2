//! The four workloads and the work set each one runs.
//!
//! A workload's work is a list of *jobs* — optimizer campaigns in process, or
//! daemon sessions — grouped in rounds that cover its benchmarks evenly.
//! `--seconds` picks how many rounds run: the round count that takes about
//! that long on the reference host (2 hardware threads). The job list is a
//! pure function of the workload, the scale, the corpus, the seed and the
//! round count, so every run of one command does the same work.
//!
//! Job `k` of a workload is seeded `derive_stream_seed(corpus, [workload,
//! k])`; `--seed` shuffles the order of the jobs within each round. The
//! corpus is fixed by default. Drawn afresh for each of ten runs, it moved
//! `adrs_mean` by a spread of 0.02–1.7 and `sim_s_mean` by 0.04–0.62 across
//! the workloads, against bounds of 0.01; averaging that down would take
//! from 40 to thousands of times the jobs a run holds. A claim is tried on
//! fresh jobs with `--corpus`, on both commits alike.
//!
//! Every job runs the shipped thread default (all hardware threads), except
//! on realistic-n106-t1, the single-thread baseline.

use cmmf_hls::cmmf::{CmmfConfig, ModelVariant};
use cmmf_hls::hls_model::benchmarks::Benchmark;
use cmmf_hls::serve::{JobSpec, Overrides, Problem};
use rand::derive_stream_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The corpus of the benchmark of record.
pub const DEFAULT_CORPUS: u64 = 2021;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table-I protocol: "Ours" and FPL18 on the six Table-I
    /// benchmarks with the default configuration.
    Table1,
    /// 16 initial + 90 steps per campaign (≥ 100 observations) on one
    /// thread, where the O(n³) model fit dominates.
    RealisticN106T1,
    /// The asynchronous scheduler with four tool runs in flight on the
    /// Table-I configuration.
    AsyncK4,
    /// Many small sessions through a spawned `cmmf-serve` daemon.
    ServeQuick,
}

/// How big each job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark of record.
    Full,
    /// One round of tiny jobs on the smallest benchmark: the same code
    /// paths in about a second, for tests.
    Smoke,
}

/// Which jobs run, in which order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkSet {
    /// Job size.
    pub scale: Scale,
    /// Seeds the jobs: job `k` is seeded `derive_stream_seed(corpus,
    /// [workload, k])`.
    pub corpus: u64,
    /// Shuffles the jobs within each round.
    pub seed: u64,
    /// Rounds to run.
    pub rounds: usize,
}

impl Scale {
    /// Set-ups per pass; their median is reported, so one slow repetition
    /// does not move `setup_s`.
    pub fn setup_repeats(self) -> usize {
        match self {
            Scale::Full => 9,
            Scale::Smoke => 3,
        }
    }
}

impl Workload {
    /// Every workload, in tag order.
    pub const ALL: [Workload; 4] = [
        Workload::Table1,
        Workload::RealisticN106T1,
        Workload::AsyncK4,
        Workload::ServeQuick,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::RealisticN106T1 => "realistic-n106-t1",
            Workload::AsyncK4 => "async-k4",
            Workload::ServeQuick => "serve-quick",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's tag in derived seeds.
    fn tag(self) -> u64 {
        self as u64
    }

    /// Seconds one round takes on the reference host (2 hardware threads),
    /// measured with this benchmark; `--seconds` is divided by it.
    fn nominal_round_s(self) -> f64 {
        match self {
            Workload::Table1 => 14.5,
            Workload::RealisticN106T1 => 28.0,
            Workload::AsyncK4 => 8.0,
            Workload::ServeQuick => 0.4,
        }
    }

    /// Rounds to run for a `--seconds` budget: the nearest whole number of
    /// nominal rounds, at least one (exactly one at smoke scale).
    pub fn rounds(self, scale: Scale, seconds: f64) -> usize {
        match scale {
            Scale::Smoke => 1,
            Scale::Full => ((seconds / self.nominal_round_s()).round() as usize).max(1),
        }
    }

    /// The benchmarks the workload's jobs run on.
    pub fn benchmarks(self, scale: Scale) -> Vec<Benchmark> {
        match (self, scale) {
            (_, Scale::Smoke) => vec![Benchmark::SpmvCrs],
            (Workload::RealisticN106T1, Scale::Full) => {
                vec![Benchmark::SpmvCrs, Benchmark::Gemm, Benchmark::Stencil3d]
            }
            (_, Scale::Full) => Benchmark::all().to_vec(),
        }
    }

    /// Seed of job `k`.
    fn job_seed(self, corpus: u64, k: usize) -> u64 {
        derive_stream_seed(corpus, &[self.tag(), k as u64])
    }

    /// Shuffles the jobs of each round (`per_round` consecutive jobs) by
    /// `seed`, keeping the rounds in order.
    fn shuffle_rounds<T>(self, jobs: &mut [T], per_round: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(seed, &[self.tag()]));
        for round in jobs.chunks_mut(per_round.max(1)) {
            round.shuffle(&mut rng);
        }
    }

    /// The in-process campaigns of `set` in run order; empty for the serve
    /// workload. `problem` indexes [`Workload::benchmarks`].
    pub fn campaigns(self, set: WorkSet) -> Vec<Campaign> {
        let benches = self.benchmarks(set.scale).len();
        let variants: &[ModelVariant] = match self {
            Workload::Table1 => &[ModelVariant::paper(), ModelVariant::fpl18()],
            Workload::RealisticN106T1 | Workload::AsyncK4 => &[ModelVariant::paper()],
            Workload::ServeQuick => &[],
        };
        let mut out = Vec::new();
        for round in 0..set.rounds {
            for problem in 0..benches {
                for &variant in variants {
                    let k = out.len();
                    let mut cfg = match self {
                        Workload::RealisticN106T1 => realistic_cfg(),
                        Workload::AsyncK4 => CmmfConfig {
                            async_slots: 4,
                            ..CmmfConfig::default()
                        },
                        _ => CmmfConfig::default(),
                    };
                    if set.scale == Scale::Smoke {
                        shrink(&mut cfg);
                    }
                    cfg.variant = variant;
                    // Loop and GP seeds as in `cmmf_bench::run_method`.
                    cfg.seed = self.job_seed(set.corpus, k);
                    cfg.gp.seed = derive_stream_seed(cfg.seed, &[1]);
                    out.push(Campaign {
                        problem,
                        round,
                        asynchronous: self == Workload::AsyncK4,
                        cfg,
                    });
                }
            }
        }
        self.shuffle_rounds(&mut out, benches * variants.len(), set.seed);
        out
    }

    /// The daemon sessions of `set` in submission order. A round is four
    /// tenants on each benchmark.
    pub fn sessions(self, set: WorkSet) -> Vec<Session> {
        const TENANTS: usize = 4;
        let benches = self.benchmarks(set.scale);
        let per_round = TENANTS * benches.len();
        let mut out: Vec<Session> = (0..set.rounds * per_round)
            .map(|k| {
                let problem = (k / TENANTS) % benches.len();
                let mut spec = JobSpec::new(
                    format!("tenant{}", k % TENANTS),
                    format!("s{k}"),
                    Problem::Benchmark(benches[problem]),
                );
                spec.iters = match set.scale {
                    Scale::Full => 8,
                    Scale::Smoke => 2,
                };
                spec.seed = self.job_seed(set.corpus, k);
                spec.overrides = Overrides::quick();
                Session {
                    problem,
                    round: k / per_round,
                    spec,
                }
            })
            .collect();
        self.shuffle_rounds(&mut out, per_round, set.seed);
        out
    }
}

/// One daemon session.
#[derive(Debug, Clone)]
pub struct Session {
    /// Index of the session's benchmark in [`Workload::benchmarks`].
    pub problem: usize,
    /// The round the session belongs to.
    pub round: usize,
    /// The job submitted.
    pub spec: JobSpec,
}

/// One in-process optimizer campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Index of the campaign's benchmark in [`Workload::benchmarks`].
    pub problem: usize,
    /// The round the campaign belongs to.
    pub round: usize,
    /// Run through `AsyncOptimizer` instead of `Optimizer`.
    pub asynchronous: bool,
    /// The full configuration, seeds included.
    pub cfg: CmmfConfig,
}

/// The canonical realistic campaign: 16 initial + 90 steps (106
/// observations), restarts 2 / 200 NLL evaluations, pool 60, 8 MC draws,
/// final pool 200, one thread.
fn realistic_cfg() -> CmmfConfig {
    let mut cfg = CmmfConfig {
        n_init: 16,
        n_init_syn: 8,
        n_init_impl: 4,
        n_iter: 90,
        candidate_pool: 60,
        mc_samples: 8,
        refit_every: 5,
        final_prediction_pool: 200,
        threads: 1,
        ..CmmfConfig::default()
    };
    cfg.gp.restarts = 2;
    cfg.gp.max_evals = 200;
    cfg
}

/// Smoke-scale sizes: three steps, small pools, no restarts.
fn shrink(cfg: &mut CmmfConfig) {
    cfg.n_iter = 3;
    cfg.candidate_pool = 20;
    cfg.mc_samples = 4;
    cfg.final_prediction_pool = 50;
    cfg.gp.restarts = 0;
    cfg.gp.max_evals = 30;
}
