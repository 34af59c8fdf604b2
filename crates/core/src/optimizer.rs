//! The overall optimization flow of Algorithm 2.

use crate::checkpoint::RunCheckpoint;
use crate::eipv::{peipv, EipvScorer};
use crate::models::{FidelityDataSet, FidelityModelStack, ModelVariant, N_OBJECTIVES};
use crate::scheduler::{Group, Replay};
use crate::CmmfError;
use fidelity_sim::{FlowSimulator, RunOutcome, Stage};
use gp::{GpConfig, MultiTaskPrediction};
use hls_model::DesignSpace;
use linalg::Cholesky;
use pareto::{hypervolume, pareto_front};
use rand::derive_stream_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use std::path::Path;
use trace::{Stopwatch, TraceEvent, TracerHandle, VirtualClock};

/// Configuration of the Algorithm-2 loop. Defaults follow Sec. V-B: 8 initial
/// configurations, 40 optimization steps.
#[derive(Debug, Clone, PartialEq)]
pub struct CmmfConfig {
    /// Initial configurations run at the lowest fidelity (`X_hls`).
    pub n_init: usize,
    /// How many of those are also run through logic synthesis (`X_syn ⊆ X_hls`).
    pub n_init_syn: usize,
    /// How many are run all the way to implementation (`X_impl ⊆ X_syn`).
    pub n_init_impl: usize,
    /// Optimization steps (`N_iter` of Algorithm 2).
    pub n_iter: usize,
    /// Surrogate structure (the paper's method, FPL18, or an ablation).
    pub variant: ModelVariant,
    /// Exponent γ on the Eq. 10 penalty ratio `(T_impl/T_i)^γ` applied to
    /// each fidelity's EIPV; 1.0 is the literal Eq. 10, the default 0.3
    /// calibrates the penalty to the simulator's wide stage-time spread (see
    /// [`crate::eipv::peipv`]), and 0.0 scores the raw EIPV.
    pub cost_exponent: f64,
    /// Number of un-sampled configurations scored per step, at least 1 (the
    /// EIPV argmax of Algorithm 2 line 9 is taken over a random pool of this
    /// size, resampled every step; the whole space is used when smaller).
    pub candidate_pool: usize,
    /// Monte-Carlo samples per EIPV evaluation, at least 1.
    pub mc_samples: usize,
    /// Configurations picked per dispatch decision (greedy q-EIPV: each pick
    /// fantasizes the earlier picks' posterior means); 0 behaves like 1. A
    /// decision's picks run as one group on parallel FPGA-tool instances:
    /// the group completes when its slowest member does, and its members are
    /// observed together. A decision picks fewer when its candidate pool runs
    /// out. 1 reproduces Algorithm 2.
    pub batch_size: usize,
    /// After the BO loop, predict the implementation-level objectives over a
    /// random subsample of this many un-evaluated configurations with the
    /// final surrogate and add the *predicted*-Pareto configurations to the
    /// proposal set (the regression baselines propose from whole-space
    /// predictions; this step gives the BO methods the same breadth). Set 0
    /// to propose only evaluated configurations.
    pub final_prediction_pool: usize,
    /// Fidelity-escalation guard (MF-GP-UCB style): after the PEIPV argmax
    /// picks `(x*, h)`, `h` is raised while the model's mean posterior
    /// standard deviation at `x*` and fidelity `h` (normalized objective
    /// units) is below this threshold — paying for a measurement the model
    /// can already predict adds nothing. Set to 0 to disable.
    pub escalate_threshold: f64,
    /// Re-optimize GP hyperparameters every this many steps, at least 1 (in
    /// between, each step refits the previous step's stack on the grown data
    /// with its hyperparameters). A value above `n_iter` optimizes once, at
    /// step 0.
    pub refit_every: usize,
    /// Dispatch decisions kept in flight on the virtual clock (see
    /// [`crate::scheduler`]); 0 behaves like 1. With one slot each decision
    /// waits for the previous group to complete: the synchronous loop, with a
    /// barrier after every batch. With `k` slots up to `k` groups of
    /// [`batch_size`](Self::batch_size) runs overlap, and each decision also
    /// fantasizes the in-flight runs' outcomes. The schedule depends on it, so
    /// it is fingerprinted: a checkpoint cannot silently resume under a
    /// different slot count.
    pub async_slots: usize,
    /// Worker threads for the parallel hot paths (candidate scoring, EIPV
    /// Monte-Carlo sampling, kernel-matrix assembly, batch prediction);
    /// 0 inherits the ambient default (an enclosing
    /// `rayon::ThreadPool::install`, a process-wide `build_global` such as
    /// the harnesses' `--threads`, or else all hardware threads). Inside the
    /// `cmmf-serve` daemon the field is not the job's to set: each session
    /// runs at its share of the cores among the workers busy when it starts,
    /// `max(1, hardware threads / busy workers)`, so a lone session uses
    /// every core and concurrent sessions do not oversubscribe the host. Every
    /// parallel reduction combines its per-element results in source order,
    /// so **any thread count yields a bit-identical [`RunResult`]** — see
    /// DESIGN.md, "Determinism & parallelism".
    pub threads: usize,
    /// Per-model GP fitting configuration.
    pub gp: GpConfig,
    /// Master seed: fixes initialization, candidate pools, and EIPV sampling.
    pub seed: u64,
    /// Observability sink: the loop's serial sections emit typed
    /// [`trace::TraceEvent`]s — step starts, model fits, acquisition
    /// argmaxes, simulated tool runs, front updates — through this handle
    /// (see ARCHITECTURE.md, "Observability & resume"). The default is the
    /// disabled [`trace::NullTracer`], and instrumented sites skip even
    /// constructing the events when it reports disabled. A tracer can observe
    /// a run but never influence it — enabling one changes no decision
    /// (pinned by `tracer_does_not_change_the_result`) — so this field is
    /// transparent to `PartialEq` and excluded from checkpoint fingerprints.
    pub tracer: TracerHandle,
}

impl Default for CmmfConfig {
    fn default() -> Self {
        CmmfConfig {
            n_init: 8,
            n_init_syn: 5,
            n_init_impl: 3,
            n_iter: 40,
            variant: ModelVariant::paper(),
            cost_exponent: 0.3,
            candidate_pool: 200,
            mc_samples: 24,
            batch_size: 1,
            final_prediction_pool: 4000,
            escalate_threshold: 0.05,
            refit_every: 5,
            async_slots: 0,
            threads: 0,
            gp: GpConfig {
                restarts: 2,
                max_evals: 450,
                ..Default::default()
            },
            seed: 2021,
            tracer: TracerHandle::null(),
        }
    }
}

impl CmmfConfig {
    /// Checks the ranges that do not depend on the design space: nested,
    /// non-zero initialization sizes, and at least 1 for `refit_every`,
    /// `candidate_pool` and `mc_samples`. Every run entry point calls it
    /// before any work.
    ///
    /// # Errors
    ///
    /// [`CmmfError::InvalidConfig`] naming the first value out of range.
    pub fn validate(&self) -> Result<(), CmmfError> {
        if self.n_init_impl == 0
            || self.n_init_syn < self.n_init_impl
            || self.n_init < self.n_init_syn
        {
            return Err(CmmfError::InvalidConfig {
                reason: "initialization sizes must be nested and non-zero \
                         (0 < n_init_impl <= n_init_syn <= n_init)"
                    .into(),
            });
        }
        for (name, value) in [
            ("refit_every", self.refit_every),
            ("candidate_pool", self.candidate_pool),
            ("mc_samples", self.mc_samples),
        ] {
            if value == 0 {
                return Err(CmmfError::InvalidConfig {
                    reason: format!("{name} must be at least 1"),
                });
            }
        }
        Ok(())
    }
}

/// One Algorithm-2 step's decision: which configuration was run, up to which
/// fidelity, and at what acquisition value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateChoice {
    /// Chosen configuration index (`x*`).
    pub config: usize,
    /// Chosen fidelity (`h`).
    pub stage: Stage,
    /// The (penalized) EIPV that won.
    pub acquisition: f64,
}

/// Result of one optimizer run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The candidate Pareto set `CS`: every configuration sampled during the
    /// iterations, with the fidelity it was run to.
    pub candidate_set: Vec<CandidateChoice>,
    /// All configurations the run evaluated (initialization + iterations).
    pub evaluated_configs: Vec<usize>,
    /// Ground-truth (post-implementation) objective vectors of the valid
    /// evaluated configurations that form the learned Pareto front.
    pub measured_pareto: Vec<[f64; N_OBJECTIVES]>,
    /// Simulated tool time in seconds (Table I's "overall running time"):
    /// the virtual-clock makespan at which the last run finished, covering
    /// initialization and every iteration's flow run. With one slot and
    /// `batch_size` 1 it is the sum of every run's stage time; a batch's
    /// parallel members count as their slowest, and overlapping slots count
    /// once.
    pub sim_seconds: f64,
    /// Learned objective correlations at each fidelity, when the variant is
    /// correlated (diagnostics for Sec. IV-B's claims).
    pub objective_correlations: Option<Vec<linalg::Matrix>>,
    /// Convergence trace: after each completed optimization step (one
    /// dispatch decision's group, in completion order), the Pareto
    /// hypervolume of the *observed* front at each fidelity (normalized
    /// objective units, reference `[2.5; 3]`). Monotone non-decreasing per
    /// fidelity; useful for plotting and for early-stopping policies.
    pub hv_history: Vec<[f64; 3]>,
}

/// One raw observation of a configuration at a fidelity.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Observation {
    Valid([f64; N_OBJECTIVES]),
    /// Invalid designs get objective values 10x worse than the current worst
    /// when training data is materialized (Sec. IV-C).
    Invalid,
}

/// The Algorithm-2 Bayesian optimizer: one event loop that keeps up to
/// [`CmmfConfig::async_slots`] groups of up to [`CmmfConfig::batch_size`]
/// simulated tool runs in flight (see the [`scheduler`](crate::scheduler)
/// module docs for the model).
#[derive(Debug, Clone)]
pub struct Optimizer {
    cfg: CmmfConfig,
}

/// The former name of [`Optimizer`], from when the asynchronous scheduler
/// was a second loop. It is the same type: [`CmmfConfig::async_slots`]
/// selects the schedule.
pub type AsyncOptimizer = Optimizer;

/// The live state of one Algorithm-2 run: everything the event loop
/// (`crate::scheduler`) reads and writes, so a run can be snapshotted
/// ([`LoopState::checkpoint`]) and reconstructed ([`LoopState::restore`])
/// after any completed step, in flight or not. The helpers below are the
/// loop's fitting, scoring and observation bookkeeping.
pub(crate) struct LoopState<'a> {
    pub(crate) cfg: &'a CmmfConfig,
    pub(crate) space: &'a DesignSpace,
    pub(crate) sim: &'a FlowSimulator,
    pub(crate) rng: StdRng,
    /// Not-yet-sampled configuration indices, in shuffled order (the tail is
    /// each decision's candidate pool).
    pub(crate) unsampled: Vec<usize>,
    /// The initialization draw, in observation order.
    pub(crate) init: Vec<usize>,
    /// Observations per fidelity: (config, outcome).
    pub(crate) obs: [Vec<(usize, Observation)>; 3],
    /// Per dispatch decision, its picks in pick order (decisions can end
    /// early, so the partition is not implied by `batch_size`). Flattened,
    /// it is the run's candidate set.
    pub(crate) picks: Vec<Vec<CandidateChoice>>,
    pub(crate) stack: Option<FidelityModelStack>,
    /// One row per completed step, so its length is the steps completed.
    pub(crate) hv_history: Vec<[f64; 3]>,
    /// Simulated time; its reading is the run's `sim_seconds`.
    pub(crate) clock: VirtualClock,
    /// Groups dispatched but not complete, in dispatch order.
    pub(crate) in_flight: Vec<Group>,
    /// The candidate pool came up empty at a dispatch attempt: dispatch no
    /// more, drain the groups in flight.
    pub(crate) exhausted: bool,
    /// Set while [`LoopState::restore`] replays checkpointed decisions: the
    /// recorded picks stand in for the acquisition, and the journal events
    /// of runs that already happened are suppressed.
    pub(crate) replay: Option<Replay>,
}

/// Per-fidelity Pareto fronts of the normalized observations: `fronts[f]` is
/// the front at fidelity `f`, each point one `N_OBJECTIVES`-vector.
pub(crate) type FidelityFronts = Vec<Vec<Vec<f64>>>;

/// A decision's candidate pool with its per-(candidate, fidelity) posterior
/// caches, shared across the decision's picks.
pub(crate) struct CandidatePrep {
    /// Candidate configuration indices, in pool order (the argmax tie-break
    /// order).
    pub(crate) pool: Vec<usize>,
    /// Posterior prediction per candidate and fidelity.
    pub(crate) preds: Vec<Vec<MultiTaskPrediction>>,
    /// Predictive-covariance Cholesky factors per candidate and fidelity,
    /// shared across scoring slots (`None` where the covariance is
    /// numerically singular).
    pub(crate) chols: Vec<Vec<Option<Cholesky>>>,
}

/// One acquisition argmax outcome of [`LoopState::select_pick`].
pub(crate) struct SelectedPick {
    /// The winning (config, stage, penalized-acquisition) choice, after the
    /// fidelity-escalation guard.
    pub(crate) choice: CandidateChoice,
    /// The winner's raw EIPV (before the Eq. 10 penalty).
    pub(crate) raw_eipv: f64,
    /// The winner's index into the pool (and the prep caches).
    pub(crate) pool_idx: usize,
    /// Candidates scored (pool minus exclusions).
    pub(crate) n_scored: usize,
}

impl<'a> LoopState<'a> {
    /// Validates the configuration against the space (shared by fresh starts
    /// and resumes). `n_init + n_iter` past `usize::MAX` is too small a space
    /// too, not an overflow.
    pub(crate) fn validate(cfg: &CmmfConfig, space: &DesignSpace) -> Result<(), CmmfError> {
        match cfg.n_init.checked_add(cfg.n_iter) {
            Some(required) if required <= space.len() => {}
            required => {
                return Err(CmmfError::SpaceTooSmall {
                    required: required.unwrap_or(usize::MAX),
                    available: space.len(),
                })
            }
        }
        cfg.validate()
    }

    /// The top stage of the `rank`-th initialization configuration (the first
    /// ranks go all the way to implementation, Algorithm 2 lines 3-5).
    pub(crate) fn init_top_stage(cfg: &CmmfConfig, rank: usize) -> Stage {
        if rank < cfg.n_init_impl {
            Stage::Impl
        } else if rank < cfg.n_init_syn {
            Stage::Syn
        } else {
            Stage::Hls
        }
    }

    /// A state at the seeded initialization draw (Algorithm 2, lines 3-5):
    /// the master RNG shuffles the whole space and the last `n_init`
    /// configurations are the draw. Nothing is observed, fitted or dispatched
    /// yet. Fresh starts and checkpoint replays both begin here, so a replay
    /// re-derives the draw and the RNG position instead of reading them back.
    pub(crate) fn new(cfg: &'a CmmfConfig, space: &'a DesignSpace, sim: &'a FlowSimulator) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut unsampled: Vec<usize> = (0..space.len()).collect();
        unsampled.shuffle(&mut rng);
        let init = unsampled.split_off(unsampled.len() - cfg.n_init);
        LoopState {
            cfg,
            space,
            sim,
            rng,
            unsampled,
            init,
            obs: Default::default(),
            picks: Vec::new(),
            stack: None,
            hv_history: Vec::new(),
            clock: VirtualClock::new(),
            in_flight: Vec::new(),
            exhausted: false,
            replay: None,
        }
    }

    /// A decision's surrogate refresh: materializes normalized training data,
    /// fits the stack under the `refit_every` schedule, emits `ModelFit`, and
    /// returns the new stack with the per-fidelity Pareto fronts of the
    /// normalized observations. Does *not* install the stack; the decision
    /// installs it once done with it.
    pub(crate) fn fit_step_stack(
        &mut self,
        t: usize,
    ) -> Result<(FidelityModelStack, FidelityFronts), CmmfError> {
        let cfg = self.cfg;
        let tracer = &cfg.tracer;
        let data = self.training_data();
        let fit_started = tracer.enabled().then(Stopwatch::start);
        let new_stack = self.fit_stack(&data, t)?;
        tracer.emit(|| {
            let stats = new_stack.fit_stats();
            TraceEvent::ModelFit {
                step: t,
                fit_mode: if Self::searches_at(cfg, t) {
                    "optimize"
                } else {
                    "refit"
                },
                seconds: fit_started.map_or(0.0, |s| s.seconds()),
                nll_evals: stats.nll_evals,
                restarts_run: stats.restarts_run,
                // Kept in the journal schema for existing readers; every
                // search is cold, so both are always 0.
                warm_start_hits: 0,
                warm_start_misses: 0,
            }
        });
        let fronts: Vec<Vec<Vec<f64>>> = (0..3).map(|f| pareto_front(&data.ys[f])).collect();
        Ok((new_stack, fronts))
    }

    /// The `refit_every` schedule: whether step `t` re-runs the
    /// hyperparameter search (on multiples of `refit_every`) or refits the
    /// installed stack with its hyperparameters (in between).
    fn searches_at(cfg: &CmmfConfig, t: usize) -> bool {
        t.is_multiple_of(cfg.refit_every)
    }

    /// Fits step `t`'s surrogate stack on `data` under the `refit_every`
    /// schedule, chaining off the installed stack. The live decision and the
    /// checkpoint replay fit through here, so a replayed fit is the fit the
    /// interrupted run made.
    pub(crate) fn fit_stack(
        &self,
        data: &FidelityDataSet,
        t: usize,
    ) -> Result<FidelityModelStack, CmmfError> {
        let cfg = self.cfg;
        let previous = if Self::searches_at(cfg, t) {
            None
        } else {
            self.stack.as_ref()
        };
        FidelityModelStack::fit(cfg.variant, data, &cfg.gp, previous)
    }

    /// The first of `fits` completed fits a checkpoint replay must redo to
    /// reproduce them bit for bit: the last fit that ran the hyperparameter
    /// search, which does not depend on the stack before it (0 when nothing
    /// was fitted).
    pub(crate) fn replay_from(cfg: &CmmfConfig, fits: usize) -> usize {
        fits.saturating_sub(1) / cfg.refit_every * cfg.refit_every
    }

    /// One dispatch decision's candidate draw, made live and in a checkpoint
    /// replay alike: shuffles the not-yet-sampled list with the master RNG
    /// and returns where the pool, its last `candidate_pool` entries (or all
    /// of them), starts.
    pub(crate) fn draw_pool(&mut self) -> usize {
        self.unsampled.shuffle(&mut self.rng);
        self.unsampled.len() - self.cfg.candidate_pool.min(self.unsampled.len())
    }

    /// Draws the decision's candidate pool ([`LoopState::draw_pool`]) and
    /// precomputes the per-(candidate, fidelity) posterior caches shared by
    /// every scoring slot. Returns `None` when the pool is empty (space
    /// exhausted). Ordered parallel collects keep the values bit-identical to
    /// the serial path for any thread count.
    pub(crate) fn prepare_candidates(
        &mut self,
        stack: &FidelityModelStack,
    ) -> Result<Option<CandidatePrep>, CmmfError> {
        let space = self.space;
        let pool_start = self.draw_pool();
        if pool_start == self.unsampled.len() {
            return Ok(None);
        }
        let pool: Vec<usize> = self.unsampled[pool_start..].to_vec();

        // Candidate encodings and posterior predictions are invariant across
        // a decision's picks (only the fantasy fronts change between them), so
        // compute each once per (candidate, stage) here instead of inside the
        // scoring closures.
        let encoded: Vec<Vec<f64>> = pool
            .par_iter()
            .with_min_len(8)
            .map(|&c| space.encode(c))
            .collect();
        // One batched pass up the fidelity chain answers all three
        // fidelities (each reuses the one below), in the per-candidate
        // layout the scorers index. Bit-identical to per-candidate
        // `predict` calls.
        let preds = stack.predict_all(&encoded)?;
        // The predictive-covariance factors are per-decision invariants too:
        // factor each candidate's M x M covariance once and share it across
        // scoring slots.
        let chols: Vec<Vec<Option<Cholesky>>> = preds
            .par_iter()
            .with_min_len(8)
            .map(|preds| preds.iter().map(|p| Cholesky::new(&p.cov).ok()).collect())
            .collect();
        Ok(Some(CandidatePrep { pool, preds, chols }))
    }

    /// Cell-indexed acquisition scorers per fidelity, decomposing each front
    /// once for all candidates and MC draws.
    pub(crate) fn build_scorers(fronts: &[Vec<Vec<f64>>], reference: &[f64]) -> Vec<EipvScorer> {
        fronts
            .iter()
            .map(|f| EipvScorer::new(f, reference))
            .collect()
    }

    /// One greedy q-EIPV argmax over the prepared pool: scores every
    /// non-excluded candidate at every fidelity from its own seeded MC
    /// stream, applies the Eq. 10 penalty, picks the winner by a serial
    /// first-max scan in pool order (thread-count independent), and applies
    /// the fidelity-escalation guard. Returns `None` when nothing scored
    /// (every pool member excluded).
    pub(crate) fn select_pick(
        &self,
        prep: &CandidatePrep,
        scorers: &[EipvScorer],
        q_seed: u64,
        exclude: &[CandidateChoice],
    ) -> Result<Option<SelectedPick>, CmmfError> {
        let cfg = self.cfg;
        let space = self.space;
        let sim = self.sim;
        let pool = &prep.pool;
        let cand_preds = &prep.preds;
        let cand_chols = &prep.chols;
        // Each candidate's best stage, carried with the *raw* EIPV of the
        // winning stage so the journal can report both sides of Eq. 10.
        let scored: Vec<Option<(CandidateChoice, f64)>> = (0..pool.len())
            .into_par_iter()
            .map(|idx| -> Result<Option<(CandidateChoice, f64)>, CmmfError> {
                let c = pool[idx];
                if exclude.iter().any(|p| p.config == c) {
                    return Ok(None);
                }
                let t_impl = sim.stage_seconds(space, c, Stage::Impl);
                let mut best: Option<(CandidateChoice, f64)> = None;
                for stage in Stage::all() {
                    let f = stage.index();
                    let pred = &cand_preds[idx][f];
                    let seed = derive_stream_seed(q_seed, &[c as u64, f as u64]);
                    let raw = scorers[f].eipv_mc_seeded(
                        pred,
                        cand_chols[idx][f].as_ref(),
                        cfg.mc_samples,
                        seed,
                    );
                    let score = peipv(
                        raw,
                        t_impl,
                        sim.stage_seconds(space, c, stage),
                        cfg.cost_exponent,
                    );
                    if best.map(|(b, _)| score > b.acquisition).unwrap_or(true) {
                        best = Some((
                            CandidateChoice {
                                config: c,
                                stage,
                                acquisition: score,
                            },
                            raw,
                        ));
                    }
                }
                Ok(best)
            })
            .collect::<Result<Vec<_>, CmmfError>>()?;
        // Serial first-max scan in pool order: ties resolve to the
        // earliest candidate, exactly as the serial loop would.
        let n_scored = scored.iter().flatten().count();
        let mut best: Option<(CandidateChoice, f64)> = None;
        for cand in scored.into_iter().flatten() {
            if best
                .map(|(b, _)| cand.0.acquisition > b.acquisition)
                .unwrap_or(true)
            {
                best = Some(cand);
            }
        }
        let Some((mut choice, raw_eipv)) = best else {
            return Ok(None);
        };
        let pool_idx = pool
            .iter()
            .position(|&c| c == choice.config)
            .ok_or_else(|| CmmfError::Internal {
                reason: "winning candidate is missing from the scoring pool".into(),
            })?;

        // Fidelity-escalation guard: if the surrogate is already
        // confident at the chosen point and fidelity, running that
        // stage buys no information — climb to the next stage instead.
        if cfg.escalate_threshold > 0.0 {
            while choice.stage < Stage::Impl {
                let p = &cand_preds[pool_idx][choice.stage.index()];
                let mean_std = p.vars().iter().map(|v| v.sqrt()).sum::<f64>() / p.mean.len() as f64;
                if mean_std >= cfg.escalate_threshold {
                    break;
                }
                choice.stage = if choice.stage == Stage::Hls {
                    Stage::Syn
                } else {
                    Stage::Impl
                };
            }
        }
        Ok(Some(SelectedPick {
            choice,
            raw_eipv,
            pool_idx,
            n_scored,
        }))
    }

    /// Convergence trace: hypervolume of each fidelity's observed front,
    /// appended to the history and, outside a checkpoint replay, emitted as
    /// `FrontUpdated` for `step`.
    pub(crate) fn record_front(&mut self, step: usize) {
        let data_after = self.training_data();
        let mut hv = [0.0f64; 3];
        let mut front_sizes = [0usize; 3];
        for (f, h) in hv.iter_mut().enumerate() {
            let front = pareto_front(&data_after.ys[f]);
            front_sizes[f] = front.len();
            *h = hypervolume(&front, &[2.5; N_OBJECTIVES]);
        }
        self.hv_history.push(hv);
        if self.replay.is_none() {
            self.cfg.tracer.emit(|| TraceEvent::FrontUpdated {
                step,
                hv,
                front_sizes,
            });
        }
    }

    /// Final Pareto identification (after the loop).
    pub(crate) fn finish(mut self) -> Result<RunResult, CmmfError> {
        let cfg = self.cfg;
        let space = self.space;
        let sim = self.sim;
        let stack = self.stack.take();

        let candidate_set: Vec<CandidateChoice> = self.picks.concat();
        let mut evaluated: Vec<usize> = self.init.clone();
        evaluated.extend(candidate_set.iter().map(|c| c.config));

        // Model-based identification: predict the top fidelity over a random
        // subsample of the un-evaluated space and keep the predicted-Pareto
        // configurations as additional proposals.
        let mut proposed: Vec<usize> = evaluated.clone();
        if cfg.final_prediction_pool > 0 {
            if let Some(stack) = stack.as_ref() {
                self.unsampled.shuffle(&mut self.rng);
                let pool_len = cfg.final_prediction_pool.min(self.unsampled.len());
                let pool = &self.unsampled[..pool_len];
                let encoded: Vec<Vec<f64>> = pool
                    .par_iter()
                    .with_min_len(16)
                    .map(|&c| space.encode(c))
                    .collect();
                let preds: Vec<Vec<f64>> = stack
                    .predict_batch(2, &encoded)?
                    .into_iter()
                    .map(|p| p.mean)
                    .collect();
                for k in pareto::pareto_front_indices(&preds) {
                    proposed.push(pool[k]);
                }
            }
        }

        let mut measured: Vec<Vec<f64>> = proposed
            .iter()
            .filter_map(|&c| sim.truth_objective(space, c).map(|t| t.to_vec()))
            .collect();
        // Distinct proposals can share ground-truth objectives (and a config
        // can be both evaluated and model-proposed); keep one copy each.
        // `total_cmp` gives a total order even if a simulator model ever
        // produces a NaN objective, so the sort cannot panic.
        measured.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| !o.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        measured.dedup();
        let measured_pareto: Vec<[f64; N_OBJECTIVES]> = pareto_front(&measured)
            .into_iter()
            .map(|p| [p[0], p[1], p[2]])
            .collect();
        let objective_correlations = stack.as_ref().and_then(|s| {
            let per_fid: Option<Vec<_>> = (0..3).map(|f| s.task_correlations(f)).collect();
            per_fid
        });

        let sim_seconds = self.clock.now();
        cfg.tracer.emit(|| TraceEvent::RunFinished {
            steps: self.hv_history.len(),
            sim_seconds,
            pareto_points: measured_pareto.len(),
        });
        Ok(RunResult {
            candidate_set,
            evaluated_configs: evaluated,
            measured_pareto,
            sim_seconds,
            objective_correlations,
            hv_history: self.hv_history,
        })
    }

    /// Runs the flow for `config` up to `top_stage`, recording one observation
    /// per traversed fidelity (the flow produces lower-stage reports on its
    /// way up, Fig. 2). `step` labels the emitted `ToolRun` events (`None`
    /// during initialization); the virtual clock accounts the time.
    pub(crate) fn observe(&mut self, config: usize, top_stage: Stage, step: Option<usize>) {
        let cfg = self.cfg;
        let trace_runs = cfg.tracer.enabled() && self.replay.is_none();
        for stage in Stage::all() {
            if stage > top_stage {
                break;
            }
            let o = match self.sim.run(self.space, config, stage) {
                RunOutcome::Valid(r) => Observation::Valid(r.objectives()),
                RunOutcome::Invalid { .. } => Observation::Invalid,
            };
            if trace_runs {
                // `stage_seconds` is cumulative up the flow; the journal
                // reports each stage's marginal share.
                let seconds = self.sim.marginal_stage_seconds(self.space, config, stage);
                cfg.tracer.emit(|| TraceEvent::ToolRun {
                    step,
                    config,
                    stage: stage.name(),
                    seconds,
                    valid: matches!(o, Observation::Valid(_)),
                });
            }
            self.obs[stage.index()].push((config, o));
        }
    }

    /// Builds normalized per-fidelity training data. Valid observations are
    /// min-max normalized per objective over all fidelities pooled; invalid
    /// designs are materialized at 2.0 — far beyond the worst valid value
    /// (the paper's "10x worse than the current worst" in spirit, clamped so
    /// the GP stays well-conditioned).
    pub(crate) fn training_data(&self) -> FidelityDataSet {
        let mut mins = [f64::INFINITY; N_OBJECTIVES];
        let mut maxs = [f64::NEG_INFINITY; N_OBJECTIVES];
        for fid in &self.obs {
            for (_, o) in fid {
                if let Observation::Valid(y) = o {
                    for d in 0..N_OBJECTIVES {
                        mins[d] = mins[d].min(y[d]);
                        maxs[d] = maxs[d].max(y[d]);
                    }
                }
            }
        }
        let mut spans = [1.0; N_OBJECTIVES];
        for d in 0..N_OBJECTIVES {
            if !mins[d].is_finite() {
                mins[d] = 0.0;
                maxs[d] = 1.0;
            }
            spans[d] = (maxs[d] - mins[d]).max(1e-12);
        }
        let mut data = FidelityDataSet::default();
        for (f, fid) in self.obs.iter().enumerate() {
            for (c, o) in fid {
                data.xs[f].push(self.space.encode(*c));
                data.ys[f].push(match o {
                    Observation::Valid(y) => (0..N_OBJECTIVES)
                        .map(|d| (y[d] - mins[d]) / spans[d])
                        .collect(),
                    Observation::Invalid => vec![2.0; N_OBJECTIVES],
                });
            }
        }
        data
    }
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(cfg: CmmfConfig) -> Self {
        Optimizer { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &CmmfConfig {
        &self.cfg
    }

    /// Runs Algorithm 2 on `space`, evaluating configurations with `sim`.
    ///
    /// Up to [`CmmfConfig::async_slots`] groups of up to
    /// [`CmmfConfig::batch_size`] tool runs are in flight on the virtual
    /// clock; [`RunResult::sim_seconds`] is the schedule's makespan. The
    /// defaults (one slot, batch size 1) run the paper's sequential loop.
    ///
    /// The run executes on a thread pool of [`CmmfConfig::threads`] workers
    /// (0 = all hardware threads); the result is bit-identical for any
    /// thread count.
    ///
    /// # Examples
    ///
    /// The quickstart flow — build a benchmark's pruned directive space, wrap
    /// the three-stage flow simulator, and optimize (shrunk here so the
    /// doctest stays fast; see `examples/quickstart.rs` for paper-scale
    /// settings):
    ///
    /// ```
    /// use cmmf::{CmmfConfig, Optimizer};
    /// use fidelity_sim::{FlowSimulator, SimParams};
    /// use hls_model::benchmarks::{self, Benchmark};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let space = benchmarks::build(Benchmark::SpmvCrs)?.pruned_space()?;
    /// let sim = FlowSimulator::new(SimParams::for_benchmark(Benchmark::SpmvCrs));
    ///
    /// let mut cfg = CmmfConfig {
    ///     n_iter: 2,
    ///     candidate_pool: 15,
    ///     mc_samples: 8,
    ///     final_prediction_pool: 100,
    ///     ..Default::default()
    /// };
    /// cfg.gp.restarts = 0;
    /// cfg.gp.max_evals = 40;
    ///
    /// let result = Optimizer::new(cfg).run(&space, &sim)?;
    /// assert_eq!(result.candidate_set.len(), 2);
    /// assert!(!result.measured_pareto.is_empty());
    /// assert!(result.sim_seconds > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`CmmfError::SpaceTooSmall`] if the space cannot host the
    ///   initialization plus one iteration.
    /// * [`CmmfError::Model`] if surrogate fitting fails irrecoverably.
    pub fn run(&self, space: &DesignSpace, sim: &FlowSimulator) -> Result<RunResult, CmmfError> {
        self.with_pool(|| {
            let mut state = LoopState::start(&self.cfg, space, sim)?;
            state.drive(None, usize::MAX)?;
            state.finish()
        })
    }

    /// Runs initialization plus at most `steps` completed optimization steps
    /// and returns the checkpoint, possibly mid-overlap with groups still in
    /// flight (recorded in [`RunCheckpoint::in_flight`]). This is the
    /// deterministic "kill after step k" primitive behind the resume tests
    /// and the CI smoke. `steps` is clamped to [`CmmfConfig::n_iter`].
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run`].
    pub fn run_until(
        &self,
        space: &DesignSpace,
        sim: &FlowSimulator,
        steps: usize,
    ) -> Result<RunCheckpoint, CmmfError> {
        self.with_pool(|| {
            let mut state = LoopState::start(&self.cfg, space, sim)?;
            state.drive(None, steps)?;
            Ok(state.checkpoint())
        })
    }

    /// Resumes a checkpointed run and drives it to completion. The result is
    /// bit-identical to the uninterrupted run that would have produced the
    /// same checkpoint, even one killed with runs in flight (pinned by
    /// `resume_is_bit_identical`): the event loop runs again up to the
    /// checkpoint's completed steps with the recorded picks in place of the
    /// acquisition, through the deterministic simulator and GP fits — the
    /// seeded initialization draw and each decision's candidate shuffle
    /// included, so the master RNG reaches the position the interrupted run
    /// left it at — then the loop continues live.
    ///
    /// The configuration must match the one that wrote the checkpoint
    /// (fingerprinted; `threads` and `tracer` may differ), and `space`/`sim`
    /// must be the same design space and simulator.
    ///
    /// # Errors
    ///
    /// * [`CmmfError::Checkpoint`] if the checkpoint's version, fingerprint
    ///   or shape does not match this configuration and space, if a recorded
    ///   pick is not an unsampled candidate of its decision's pool, if the
    ///   replay needs more decisions than are recorded or leaves some
    ///   undispatched, or if the replayed schedule diverges from the recorded
    ///   in-flight set (a different simulator or space).
    /// * Everything [`Optimizer::run`] can return.
    pub fn resume(
        &self,
        ckpt: &RunCheckpoint,
        space: &DesignSpace,
        sim: &FlowSimulator,
    ) -> Result<RunResult, CmmfError> {
        self.with_pool(|| {
            let mut state = LoopState::restore(&self.cfg, space, sim, ckpt)?;
            state.drive(None, usize::MAX)?;
            state.finish()
        })
    }

    /// Runs like [`Optimizer::run`], but checkpoints to `path` after every
    /// completed step (atomic write) and — if `path` already holds a
    /// checkpoint — resumes from it instead of starting over. The crash
    /// recovery loop of a long sweep is therefore just "run the same command
    /// again".
    ///
    /// # Errors
    ///
    /// * [`CmmfError::Checkpoint`] if an existing checkpoint at `path` cannot
    ///   be read or does not match this configuration, or if a checkpoint
    ///   cannot be written.
    /// * Everything [`Optimizer::run`] can return.
    pub fn run_with_checkpoints(
        &self,
        space: &DesignSpace,
        sim: &FlowSimulator,
        path: &Path,
    ) -> Result<RunResult, CmmfError> {
        self.with_pool(|| {
            let mut state = if path.exists() {
                LoopState::restore(&self.cfg, space, sim, &RunCheckpoint::load(path)?)?
            } else {
                LoopState::start(&self.cfg, space, sim)?
            };
            state.drive(Some(path), usize::MAX)?;
            state.finish()
        })
    }

    /// Runs `f` on a dedicated rayon pool of [`CmmfConfig::threads`] workers.
    /// 0 inherits the ambient rayon default (an enclosing
    /// `ThreadPool::install`, `build_global`, or the hardware parallelism) so
    /// harness binaries can set a process-wide `--threads` once.
    fn with_pool<T>(&self, f: impl FnOnce() -> Result<T, CmmfError>) -> Result<T, CmmfError> {
        let n = match self.cfg.threads {
            0 => rayon::current_num_threads(),
            threads => threads,
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .map_err(|e| CmmfError::Internal {
                reason: format!("thread pool: {e}"),
            })?;
        pool.install(f)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fidelity_sim::SimParams;
    use hls_model::benchmarks::{self, Benchmark};
    use std::sync::Arc;
    use trace::MemoryTracer;

    pub(crate) fn quick_cfg(seed: u64) -> CmmfConfig {
        CmmfConfig {
            n_iter: 6,
            candidate_pool: 40,
            mc_samples: 8,
            refit_every: 3,
            gp: GpConfig {
                restarts: 0,
                max_evals: 60,
                ..Default::default()
            },
            seed,
            ..Default::default()
        }
    }

    pub(crate) fn setup(b: Benchmark) -> (DesignSpace, FlowSimulator) {
        (
            benchmarks::build(b).unwrap().pruned_space().unwrap(),
            FlowSimulator::new(SimParams::for_benchmark(b)),
        )
    }

    /// Full bit-identity over every deterministic `RunResult` field.
    pub(crate) fn assert_same_result(a: &RunResult, b: &RunResult, label: &str) {
        assert_eq!(a.candidate_set, b.candidate_set, "{label}: candidate_set");
        assert_eq!(
            a.evaluated_configs, b.evaluated_configs,
            "{label}: evaluated_configs"
        );
        assert_eq!(a.measured_pareto, b.measured_pareto, "{label}: pareto");
        assert_eq!(
            a.sim_seconds.to_bits(),
            b.sim_seconds.to_bits(),
            "{label}: sim_seconds"
        );
        assert_eq!(a.hv_history, b.hv_history, "{label}: hv_history");
    }

    /// A 12-configuration space on the default simulator. With [`tiny_cfg`]
    /// the initialization and seven picks in four decisions cover it, so the
    /// fifth dispatch attempt finds its candidate pool empty.
    fn tiny_setup() -> (DesignSpace, FlowSimulator) {
        let spec = "kernel tiny\n\
                    loop l trip=8 ops=1 mem=1\n\
                    array a size=8 access=l\n\
                    unroll l factors=1,2,4\n\
                    partition a factors=1,2,4 schemes=cyclic\n\
                    pipeline l ii=0,1\n\
                    inline\n";
        let space = hls_model::spec::parse(spec)
            .unwrap()
            .build_pruned()
            .unwrap();
        (space, FlowSimulator::new(SimParams::default()))
    }

    /// Groups of two at `slots` slots on [`tiny_setup`]'s space.
    fn tiny_cfg(slots: usize) -> CmmfConfig {
        CmmfConfig {
            n_init: 5,
            n_init_syn: 3,
            n_init_impl: 2,
            async_slots: slots,
            batch_size: 2,
            ..quick_cfg(31)
        }
    }

    /// Runs `f` on an optimizer of `cfg` that journals to memory, and counts
    /// the dispatch attempts it journaled (`step_started` events).
    fn with_attempts<T>(cfg: &CmmfConfig, f: impl FnOnce(&Optimizer) -> T) -> (T, usize) {
        let sink = Arc::new(MemoryTracer::new());
        let mut cfg = cfg.clone();
        cfg.tracer = TracerHandle::new(sink.clone());
        let value = f(&Optimizer::new(cfg));
        let events = sink.events();
        let attempts = events.iter().filter(|e| e.kind() == "step_started");
        (value, attempts.count())
    }

    #[test]
    fn runs_to_completion_and_collects_cs() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let r = Optimizer::new(quick_cfg(1)).run(&space, &sim).unwrap();
        assert_eq!(r.candidate_set.len(), 6);
        assert_eq!(r.evaluated_configs.len(), 8 + 6);
        assert!(!r.measured_pareto.is_empty());
        assert!(r.sim_seconds > 0.0);
        assert!(r.objective_correlations.is_some());
    }

    #[test]
    fn candidate_set_configs_are_distinct() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let r = Optimizer::new(quick_cfg(2)).run(&space, &sim).unwrap();
        let mut seen: Vec<usize> = r.evaluated_configs.clone();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "a configuration was sampled twice");
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let a = Optimizer::new(quick_cfg(3)).run(&space, &sim).unwrap();
        let b = Optimizer::new(quick_cfg(3)).run(&space, &sim).unwrap();
        let ca: Vec<usize> = a.candidate_set.iter().map(|c| c.config).collect();
        let cb: Vec<usize> = b.candidate_set.iter().map(|c| c.config).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn threads_do_not_change_the_result() {
        // The contract behind `CmmfConfig::threads`: every parallel reduction
        // combines per-element results in source order, so serial and
        // parallel runs must agree bit-for-bit.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let run_with = |threads: usize| {
            let mut cfg = quick_cfg(11);
            cfg.threads = threads;
            Optimizer::new(cfg).run(&space, &sim).unwrap()
        };
        let serial = run_with(1);
        for threads in [2, rayon::hardware_threads().max(3)] {
            let parallel = run_with(threads);
            assert_same_result(&serial, &parallel, &format!("threads={threads}"));
        }
    }

    #[test]
    fn tracer_does_not_change_the_result() {
        // The contract behind `CmmfConfig::tracer`: a tracer observes a run,
        // it never influences it. A run with a recording tracer must be
        // bit-identical to the untraced run.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let untraced = Optimizer::new(quick_cfg(23)).run(&space, &sim).unwrap();

        let sink = Arc::new(MemoryTracer::new());
        let mut cfg = quick_cfg(23);
        cfg.tracer = TracerHandle::new(sink.clone());
        let traced = Optimizer::new(cfg).run(&space, &sim).unwrap();
        assert_same_result(&untraced, &traced, "traced");

        // The journal actually observed the run: lifecycle events frame it,
        // every step logged a fit, an argmax, tool runs, and a front update.
        let events = sink.events();
        assert!(matches!(
            events.first(),
            Some(TraceEvent::RunStarted { .. })
        ));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::RunFinished { .. })
        ));
        let metrics = trace::aggregate_step_metrics(&events);
        assert_eq!(metrics.len(), traced.candidate_set.len());
        for (m, choice) in metrics.iter().zip(&traced.candidate_set) {
            assert!(m.fit_mode.is_some(), "step {} has no fit", m.step);
            assert_eq!(m.picks, vec![(choice.config, choice.stage.index())]);
            assert!(m.tool_runs >= 1);
            assert!(m.hv.is_some());
        }
        // Init tool runs carry no step label.
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ToolRun { step: None, .. })));
        // The sequential loop is the event loop at one slot: every run,
        // initialization included, is dispatched and completed on the
        // virtual clock, one at a time.
        let cfg = quick_cfg(23);
        for kind in ["run_dispatched", "run_completed"] {
            let runs: Vec<&TraceEvent> = events.iter().filter(|e| e.kind() == kind).collect();
            assert_eq!(runs.len(), cfg.n_init + cfg.n_iter, "{kind}");
            assert_eq!(
                runs.iter().filter(|e| e.step().is_some()).count(),
                traced.candidate_set.len(),
                "{kind}"
            );
        }
        assert!(events.iter().all(|e| !matches!(
            e,
            TraceEvent::RunDispatched { in_flight, .. } if *in_flight != 1
        )));
    }

    #[test]
    fn resume_is_bit_identical() {
        // The checkpoint/resume contract: killing a run after step k and
        // resuming from the checkpoint yields the same `RunResult`, bit for
        // bit, as never stopping — for every schedule the loop runs:
        // (async_slots, batch_size) = sequential, three runs in flight
        // (killed mid-overlap), a synchronous batch of three, and two groups
        // of two in flight. k lands on a hyperparameter-refit boundary
        // (refit_every = 3 here), just after one, or between two, so the
        // replay starts from step 0 or step 3.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        for (slots, batch, kills) in [
            (0, 1, &[1, 2, 3, 4, 5][..]),
            (3, 1, &[1, 3, 5][..]),
            (0, 3, &[2, 4][..]),
            (2, 2, &[1, 3, 4][..]),
        ] {
            let mut cfg = quick_cfg(31);
            cfg.async_slots = slots;
            cfg.batch_size = batch;
            let opt = Optimizer::new(cfg.clone());
            let full = opt.run(&space, &sim).unwrap();
            if batch > 1 {
                let mut ids: Vec<usize> = full.candidate_set.iter().map(|c| c.config).collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), batch * cfg.n_iter, "slots={slots} batch={batch}");
            }
            for &k in kills {
                let ckpt = opt.run_until(&space, &sim, k).unwrap();
                assert_eq!(ckpt.completed_steps, k);
                if slots > 1 {
                    assert!(
                        !ckpt.in_flight.is_empty(),
                        "slots={slots} batch={batch}: kill at {k} should land mid-overlap"
                    );
                }
                // Sequential kills also resume at other thread counts.
                let threads: &[usize] = if slots == 0 && batch == 1 {
                    &[0, 1, 2]
                } else {
                    &[0]
                };
                for &threads in threads {
                    let mut cfg = cfg.clone();
                    cfg.threads = threads;
                    let resumed = Optimizer::new(cfg).resume(&ckpt, &space, &sim).unwrap();
                    let label = format!("slots={slots} batch={batch} k={k} threads={threads}");
                    assert_same_result(&full, &resumed, &label);
                }
            }
            // A checkpoint also survives its JSON round trip intact.
            let ckpt = opt.run_until(&space, &sim, 2).unwrap();
            let reparsed = RunCheckpoint::from_json(&ckpt.to_json()).unwrap();
            assert_eq!(reparsed, ckpt);
            let resumed = opt.resume(&reparsed, &space, &sim).unwrap();
            let label = format!("slots={slots} batch={batch} json round trip");
            assert_same_result(&full, &resumed, &label);
        }
    }

    #[test]
    fn stored_sessions_resume_bit_identically() {
        // `run_until` checkpoints of the four schedules
        // `resume_is_bit_identical` covers, saved when a checkpoint also
        // stored the initialization draw, the unsampled order, the RNG state
        // and the hypervolume history. The reader ignores those keys and the
        // replay re-derives them, so each still resumes to the uninterrupted
        // run's bits, journaling only its live steps, and a checkpoint
        // written now holds the same decisions and verification values.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        for (slots, batch, kill) in [(0, 1, 4), (3, 1, 3), (0, 3, 2), (2, 2, 3)] {
            let mut cfg = quick_cfg(31);
            cfg.async_slots = slots;
            cfg.batch_size = batch;
            let opt = Optimizer::new(cfg.clone());
            let label = format!("slots{slots}_batch{batch}_kill{kill}");
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/stored_sessions");
            let stored = RunCheckpoint::load(&dir.join(format!("{label}.json"))).unwrap();
            assert_eq!(stored.completed_steps, kill, "{label}");
            let sink = Arc::new(MemoryTracer::new());
            cfg.tracer = TracerHandle::new(sink.clone());
            let resumed = Optimizer::new(cfg).resume(&stored, &space, &sim).unwrap();
            assert_same_result(&opt.run(&space, &sim).unwrap(), &resumed, &label);
            let events = sink.events();
            let fronts = events.iter().filter(|e| e.kind() == "front_updated");
            assert_eq!(fronts.count(), opt.config().n_iter - kill, "{label}");
            assert_eq!(
                opt.run_until(&space, &sim, kill).unwrap(),
                stored,
                "{label}"
            );
        }
    }

    #[test]
    fn stored_sessions_resume_past_pool_exhaustion() {
        // A `run_until(3)` checkpoint of the three-slot campaign on the tiny
        // space, saved when a checkpoint also stored the dispatch/completion
        // event log: its log recorded the empty pool found at the fifth
        // dispatch attempt, with one group still in flight. The resume
        // re-derives that attempt from the picks, so it journals no dispatch
        // attempt of its own and finishes with the uninterrupted run's bits.
        let (space, sim) = tiny_setup();
        let cfg = tiny_cfg(3);
        let opt = Optimizer::new(cfg.clone());
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/stored_sessions");
        let stored = RunCheckpoint::load(&dir.join("tiny_slots3_batch2_kill3.json")).unwrap();
        assert_eq!((stored.completed_steps, stored.in_flight.len()), (3, 1));
        let (resumed, attempts) =
            with_attempts(&cfg, |opt| opt.resume(&stored, &space, &sim).unwrap());
        assert_same_result(&opt.run(&space, &sim).unwrap(), &resumed, "tiny stored");
        assert_eq!(attempts, 0);
        assert_eq!(opt.run_until(&space, &sim, 3).unwrap(), stored);
    }

    #[test]
    fn an_exhausted_pool_resumes_bit_identically_from_every_kill() {
        // Five initial configurations and seven picks in four decisions
        // evaluate all 12 configurations; the fifth dispatch attempt starts
        // a step, fits the surrogate and finds its pool empty, and the loop
        // drains. At three slots the attempt comes between the second and
        // third completions, so kills from step 3 on record it; at one slot
        // it comes after the fourth, past the last kill point, and the
        // resumed run makes it. Either way every attempt is journaled once
        // across the interrupted and the resumed run.
        let (space, sim) = tiny_setup();
        assert_eq!(space.len(), 12);
        for (slots, exhausted_from) in [(3, 3), (1, 5)] {
            let cfg = tiny_cfg(slots);
            let (full, attempts) = with_attempts(&cfg, |opt| opt.run(&space, &sim).unwrap());
            assert_eq!(full.evaluated_configs.len(), space.len(), "slots={slots}");
            assert_eq!(full.candidate_set.len(), 7, "slots={slots}");
            assert_eq!(full.hv_history.len(), 4, "slots={slots}");
            assert_eq!(attempts, 5, "slots={slots}");
            for k in 1..=4 {
                let label = format!("slots={slots} k={k}");
                let (ckpt, before) =
                    with_attempts(&cfg, |opt| opt.run_until(&space, &sim, k).unwrap());
                assert_eq!(before == attempts, k >= exhausted_from, "{label}");
                if slots == 3 && k == 3 {
                    assert_eq!(ckpt.in_flight.len(), 1, "{label}");
                }
                let (resumed, after) =
                    with_attempts(&cfg, |opt| opt.resume(&ckpt, &space, &sim).unwrap());
                assert_same_result(&full, &resumed, &label);
                assert_eq!(before + after, attempts, "{label}");
            }
        }
    }

    #[test]
    fn replay_starts_at_the_last_optimize_fit() {
        // A resume redoes only the fits from the last hyperparameter search
        // on: with `refit_every` r, fits 0, r, 2r, … optimize, and of `fits`
        // completed fits the last search is at ⌊(fits − 1) / r⌋ · r.
        let cfg = quick_cfg(1);
        assert_eq!(cfg.refit_every, 3);
        for (fits, from) in [(0, 0), (1, 0), (3, 0), (4, 3), (6, 3), (7, 6)] {
            assert_eq!(LoopState::replay_from(&cfg, fits), from, "fits={fits}");
        }
        let every5 = CmmfConfig {
            refit_every: 5,
            ..quick_cfg(1)
        };
        assert_eq!(LoopState::replay_from(&every5, 35), 30);
    }

    #[test]
    fn run_with_checkpoints_resumes_from_disk() {
        // A kill after 2 steps, with nothing or (at two slots) a run in
        // flight, then "re-run the same command": it must pick the file up,
        // finish the run identically, and leave a final checkpoint behind.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let dir = std::env::temp_dir().join(format!("cmmf-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for slots in [0, 2] {
            let path = dir.join(format!("run-{slots}.ckpt.json"));
            std::fs::remove_file(&path).ok();
            let mut cfg = quick_cfg(37);
            cfg.async_slots = slots;
            let opt = Optimizer::new(cfg);
            let full = opt.run(&space, &sim).unwrap();
            opt.run_until(&space, &sim, 2).unwrap().save(&path).unwrap();
            let resumed = opt.run_with_checkpoints(&space, &sim, &path).unwrap();
            assert_same_result(&full, &resumed, &format!("slots={slots} disk resume"));
            let last = RunCheckpoint::load(&path).unwrap();
            assert_eq!(last.completed_steps, 6);
            assert!(last.in_flight.is_empty());
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(41);
        cfg.async_slots = 2;
        let ckpt = Optimizer::new(cfg.clone())
            .run_until(&space, &sim, 1)
            .unwrap();
        // A different seed, or a different slot count (the schedule depends
        // on it), is a different fingerprint.
        let mut other_seed = cfg.clone();
        other_seed.seed = 42;
        let mut other_slots = cfg.clone();
        other_slots.async_slots = 3;
        for other in [other_seed, other_slots] {
            assert!(matches!(
                Optimizer::new(other).resume(&ckpt, &space, &sim),
                Err(CmmfError::Checkpoint { .. })
            ));
        }
        // threads and tracer do not participate in the fingerprint.
        let mut other = cfg;
        other.threads = 2;
        other.tracer = TracerHandle::new(Arc::new(MemoryTracer::new()));
        assert!(Optimizer::new(other).resume(&ckpt, &space, &sim).is_ok());
    }

    #[test]
    fn fpl18_variant_runs() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(4);
        cfg.variant = ModelVariant::fpl18();
        let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
        assert_eq!(r.candidate_set.len(), 6);
        assert!(r.objective_correlations.is_none());
    }

    #[test]
    fn cost_penalty_prefers_cheap_fidelities() {
        // With the penalty on, a clear majority of iteration runs should stay
        // below Impl (the paper's motivation for PEIPV). Any single seed can
        // hit a stretch where the model keeps demanding implementation runs,
        // so aggregate over a few.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut impl_runs = 0;
        let mut total = 0;
        for seed in [1, 2, 5] {
            let mut cfg = quick_cfg(seed);
            cfg.n_iter = 10;
            let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
            impl_runs += r
                .candidate_set
                .iter()
                .filter(|c| c.stage == Stage::Impl)
                .count();
            total += r.candidate_set.len();
        }
        assert!(
            impl_runs < total / 2,
            "{impl_runs}/{total} runs went to full implementation despite the cost penalty"
        );
    }

    #[test]
    fn hv_history_is_recorded_per_step() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let r = Optimizer::new(quick_cfg(17)).run(&space, &sim).unwrap();
        assert_eq!(r.hv_history.len(), 6);
        // Hypervolume never decreases within a fidelity (the normalization
        // window can shift values slightly, so allow a small tolerance).
        for f in 0..3 {
            for w in r.hv_history.windows(2) {
                assert!(
                    w[1][f] >= w[0][f] - 0.35,
                    "fidelity {f} hv dropped sharply: {:?} -> {:?}",
                    w[0][f],
                    w[1][f]
                );
            }
        }
    }

    #[test]
    fn batch_mode_runs_q_configs_per_step() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(8);
        cfg.batch_size = 3;
        cfg.n_iter = 4;
        let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
        assert_eq!(r.candidate_set.len(), 12);
        // Batch members within one run are distinct configurations.
        let mut ids: Vec<usize> = r.candidate_set.iter().map(|c| c.config).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn space_too_small_is_rejected() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        // Cannot fit init + iters; the second sum overflows `usize`.
        for n_iter in [space.len(), usize::MAX - 3] {
            let mut cfg = quick_cfg(6);
            cfg.n_iter = n_iter;
            let opt = Optimizer::new(cfg);
            for result in [
                opt.run(&space, &sim).map(|_| ()),
                opt.run_until(&space, &sim, 1).map(|_| ()),
            ] {
                assert!(
                    matches!(result, Err(CmmfError::SpaceTooSmall { .. })),
                    "n_iter={n_iter}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn huge_slot_counts_and_batches_reserve_nothing() {
        // Neither knob sizes an allocation: more slots than runs put every
        // run in flight at once, as `n_init + n_iter` slots do, and a batch
        // larger than the candidate pool stops picking when the pool runs
        // out.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let with = |slots: usize, batch: usize| {
            let mut cfg = quick_cfg(19);
            cfg.async_slots = slots;
            cfg.batch_size = batch;
            Optimizer::new(cfg).run(&space, &sim).unwrap()
        };
        let cfg = quick_cfg(19);
        let every_run = with(cfg.n_init + cfg.n_iter, 1);
        assert_same_result(&every_run, &with(1 << 40, 1), "async_slots = 2^40");
        let huge_batch = with(0, 1 << 42);
        assert!(huge_batch.candidate_set.len() > cfg.n_iter);
        assert!(huge_batch.hv_history.len() <= cfg.n_iter);
    }

    #[test]
    fn zero_refit_every_is_rejected() {
        // `refit_every = 0` would optimize only at step 0, a schedule the
        // checkpoint replay cannot reproduce; `refit_every > n_iter` gives
        // that schedule. Every entry point rejects it before any work.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut cfg = quick_cfg(9);
        cfg.refit_every = 0;
        let ckpt = Optimizer::new(quick_cfg(9))
            .run_until(&space, &sim, 1)
            .unwrap();
        let opt = Optimizer::new(cfg);
        for result in [
            opt.run(&space, &sim).map(|_| ()),
            opt.run_until(&space, &sim, 1).map(|_| ()),
            opt.resume(&ckpt, &space, &sim).map(|_| ()),
        ] {
            assert!(
                matches!(result, Err(CmmfError::InvalidConfig { .. })),
                "{result:?}"
            );
        }
    }

    #[test]
    fn bad_nesting_is_rejected() {
        // Degenerate sizes are bad input, not a broken invariant: each is a
        // typed `InvalidConfig` before any work, at any slot count.
        // Unchecked, `mc_samples = 0` would panic in the EIPV sampler and
        // `candidate_pool = 0` would finish with no BO picks.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let degenerate: [fn(&mut CmmfConfig); 5] = [
            |c| c.n_init_impl = 0,
            |c| c.n_init_syn = c.n_init_impl - 1,
            |c| c.n_init = c.n_init_syn - 1,
            |c| c.mc_samples = 0,
            |c| c.candidate_pool = 0,
        ];
        for (i, break_it) in degenerate.iter().enumerate() {
            for slots in [0, 2] {
                let mut cfg = quick_cfg(7);
                cfg.async_slots = slots;
                break_it(&mut cfg);
                let result = Optimizer::new(cfg).run(&space, &sim).map(|_| ());
                assert!(
                    matches!(result, Err(CmmfError::InvalidConfig { .. })),
                    "case {i}: {result:?}"
                );
            }
        }
    }
}
