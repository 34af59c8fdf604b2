//! Asynchronous cost-aware batch BO on a deterministic event clock.
//!
//! The sequential [`Optimizer`](crate::Optimizer) serializes the flow: every
//! simulated tool run must finish before the next acquisition argmax. Real
//! FPGA tool farms don't work that way — an implementation run takes hours
//! while HLS takes seconds, and a scheduler with `k` tool licenses keeps all
//! of them busy. [`AsyncOptimizer`] models exactly that on the simulator's
//! cost model (`T_hls ≪ T_syn ≪ T_impl`), promoted to a discrete-event
//! *virtual clock* ([`trace::VirtualClock`]):
//!
//! * up to [`CmmfConfig::async_slots`] simulated tool runs are in flight at
//!   once, across fidelities;
//! * each dispatch decision fits the surrogate on everything observed *so
//!   far* and fantasizes the pending runs' outcomes (their posterior means)
//!   into the per-fidelity Pareto fronts — the greedy q-EIPV treatment of
//!   [`CmmfConfig::batch_size`], applied to in-flight work instead of a
//!   synchronous batch;
//! * time advances only when the earliest in-flight run finishes; its true
//!   outcome replaces the fantasy and the freed slot is refilled.
//!
//! The schedule is a pure function of the seed and the cost model: no host
//! timing is ever read (the only sanctioned host-clock use is the
//! tracer-gated [`trace::Stopwatch`], and a disabled tracer reads nothing —
//! pinned by `disabled_tracer_reads_no_host_clock`). `async_slots = 1`
//! degenerates to the sequential loop bit-for-bit (pinned by
//! `async_k1_matches_sequential_bitwise`), and any thread count yields the
//! same schedule (pinned by `schedule_is_deterministic`).
//!
//! Checkpoints record the *decisions* — the dispatch-ordered picks plus the
//! interleaved dispatch/completion event log — so a kill mid-overlap resumes
//! bit-identically: the event log replays the interrupted run's exact
//! interleaving of surrogate fits and observations, reconstructing the
//! virtual clock and the in-flight set, which are then verified against the
//! checkpoint's redundant copy (see [`RunCheckpoint::in_flight`]).

use crate::checkpoint::{PickRecord, RunCheckpoint, ScheduleEvent, CHECKPOINT_VERSION};
use crate::models::N_OBJECTIVES;
use crate::optimizer::{with_pool, CandidateChoice, CmmfConfig, LoopState, RunResult};
use crate::CmmfError;
use fidelity_sim::{FlowSimulator, Stage};
use hls_model::DesignSpace;
use pareto::pareto_front;
use rand::derive_stream_seed;
use rand::rngs::StdRng;
use std::path::Path;
use trace::{Stopwatch, TraceEvent, VirtualClock};

/// The asynchronous Algorithm-2 scheduler: the same surrogate, acquisition,
/// and simulator as [`Optimizer`](crate::Optimizer), driven by a
/// discrete-event virtual clock that keeps up to [`CmmfConfig::async_slots`]
/// simulated tool runs in flight. See the [module docs](self) for the model.
#[derive(Debug, Clone)]
pub struct AsyncOptimizer {
    cfg: CmmfConfig,
}

/// One in-flight simulated tool run.
struct InFlight {
    /// The BO dispatch index (0-based; also the index into the recorded
    /// dispatch list).
    seq: usize,
    /// What was dispatched: configuration, target fidelity, acquisition.
    choice: CandidateChoice,
    /// Virtual-clock time at which the run finishes.
    finish_at: f64,
}

/// The live state of one asynchronous run: the shared [`LoopState`] plus the
/// event-clock machinery layered on top.
struct AsyncState<'a> {
    base: LoopState<'a>,
    /// Concurrent tool licenses (`async_slots.max(1)`).
    slots: usize,
    clock: VirtualClock,
    /// In-flight runs, in dispatch order.
    pending: Vec<InFlight>,
    /// Every BO pick so far, in dispatch order (the async analogue of the
    /// sequential loop's per-step `picks`).
    dispatches: Vec<PickRecord>,
    /// The interleaved dispatch/completion event log, in virtual-clock order.
    schedule: Vec<ScheduleEvent>,
    /// BO dispatches so far (`== dispatches.len()`; the next dispatch index).
    dispatched: usize,
    /// BO completions so far (the run's `completed_steps`).
    completed: usize,
    /// The candidate pool came up empty at a dispatch attempt; stop
    /// dispatching and drain the in-flight runs.
    exhausted: bool,
}

impl<'a> AsyncState<'a> {
    /// Fresh state: seeds the run and pushes the initialization set through
    /// the `k` slots (ranks keep their nested top stages; only their timing
    /// overlaps).
    fn start(
        cfg: &'a CmmfConfig,
        space: &'a DesignSpace,
        sim: &'a FlowSimulator,
    ) -> Result<Self, CmmfError> {
        let base = LoopState::fresh_shell(cfg, space, sim)?;
        let mut state = AsyncState {
            slots: cfg.async_slots.max(1),
            clock: VirtualClock::new(),
            pending: Vec::with_capacity(cfg.async_slots.max(1)),
            dispatches: Vec::with_capacity(cfg.n_iter),
            schedule: Vec::with_capacity(2 * cfg.n_iter),
            dispatched: 0,
            completed: 0,
            exhausted: false,
            base,
        };
        state.run_init()?;
        Ok(state)
    }

    /// Runs the initialization set through the `k` slots on the virtual
    /// clock: dispatch eagerly while a slot is free, otherwise complete the
    /// earliest-finishing run (ties to the lowest rank). Observation order is
    /// completion order. With one slot this reduces to the sequential
    /// initialization exactly (same observation order, same `f64` time
    /// accumulation). Shared by fresh starts and resume replay — the
    /// initialization schedule is implied by `init` and the cost model, so
    /// checkpoints don't record it.
    fn run_init(&mut self) -> Result<(), CmmfError> {
        let cfg = self.base.cfg;
        let n = self.base.init.len();
        // (rank, finish_at) of the in-flight initialization runs.
        let mut pending: Vec<(usize, f64)> = Vec::with_capacity(self.slots);
        let mut next = 0usize;
        while next < n || !pending.is_empty() {
            if next < n && pending.len() < self.slots {
                let rank = next;
                let config = self.base.init[rank];
                let stage = LoopState::init_top_stage(cfg, rank);
                let secs = self.base.sim.stage_seconds(self.base.space, config, stage);
                let clock = self.clock.now();
                let finish = clock + secs;
                if !self.base.replaying {
                    let in_flight = pending.len() + 1;
                    cfg.tracer.emit(|| TraceEvent::RunDispatched {
                        seq: rank,
                        step: None,
                        config,
                        fidelity: stage.index(),
                        clock,
                        finish,
                        in_flight,
                    });
                }
                pending.push((rank, finish));
                next += 1;
                continue;
            }
            let Some(k) = earliest_by(&pending, |&(rank, finish)| (finish, rank)) else {
                break;
            };
            let (rank, finish) = pending.remove(k);
            self.clock.advance_to(finish);
            let config = self.base.init[rank];
            let stage = LoopState::init_top_stage(cfg, rank);
            self.base.observe(config, stage, None);
            self.base.sim_seconds = self.clock.now();
            if !self.base.replaying {
                let clock = self.clock.now();
                let in_flight = pending.len();
                cfg.tracer.emit(|| TraceEvent::RunCompleted {
                    seq: rank,
                    step: None,
                    config,
                    fidelity: stage.index(),
                    clock,
                    in_flight,
                });
            }
        }
        Ok(())
    }

    /// One dispatch decision at the current virtual-clock time: fit the
    /// surrogate on everything observed so far, fantasize the pending runs'
    /// posterior means into the fronts, take the PEIPV argmax over a fresh
    /// candidate pool, and put the winner in flight. Returns `false` when the
    /// pool is exhausted (recorded as [`ScheduleEvent::Exhausted`]; the
    /// attempt's surrogate fit still counts for resume).
    fn dispatch_next(&mut self) -> Result<bool, CmmfError> {
        let cfg = self.base.cfg;
        let tracer = &cfg.tracer;
        let t = self.dispatched;
        tracer.emit(|| TraceEvent::StepStarted {
            step: t,
            observed: [
                self.base.obs[0].len(),
                self.base.obs[1].len(),
                self.base.obs[2].len(),
            ],
        });
        let (new_stack, fronts) = self.base.fit_step_stack(t)?;

        // Fantasy fronts: the observed fronts augmented with the pending
        // runs' posterior means under the new stack, in dispatch order —
        // the same greedy q-EIPV fantasization the sequential loop applies
        // within a batch, here applied to in-flight work.
        let mut fantasy = fronts;
        for run in &self.pending {
            let fi = run.choice.stage.index();
            let x = self.base.space.encode(run.choice.config);
            let pred = new_stack.predict(fi, &x)?;
            let merged = pareto_front(
                &fantasy[fi]
                    .iter()
                    .cloned()
                    .chain(std::iter::once(pred.mean))
                    .collect::<Vec<_>>(),
            );
            fantasy[fi] = merged;
        }

        let Some(prep) = self.base.prepare_candidates(&new_stack)? else {
            self.base.stack = Some(new_stack);
            self.schedule.push(ScheduleEvent::Exhausted);
            self.exhausted = true;
            return Ok(false);
        };
        let reference = vec![2.5; N_OBJECTIVES];
        let scorers = LoopState::build_scorers(&fantasy, &reference);
        let slot_started = tracer.enabled().then(Stopwatch::start);
        // Same seed chain as the sequential loop's batch slot 0, so one slot
        // reproduces it bit-for-bit.
        let q_seed = derive_stream_seed(derive_stream_seed(cfg.seed, &[t as u64]), &[0u64]);
        let sel = self
            .base
            .select_pick(&prep, &scorers, q_seed, &[])?
            .ok_or_else(|| CmmfError::Internal {
                reason: "no candidate scored".into(),
            })?;
        let choice = sel.choice;
        tracer.emit(|| TraceEvent::AcquisitionScored {
            step: t,
            slot: 0,
            config: choice.config,
            fidelity: choice.stage.index(),
            candidates: sel.n_scored,
            eipv: sel.raw_eipv,
            penalized: choice.acquisition,
            seconds: slot_started.map_or(0.0, |s| s.seconds()),
        });

        let secs = self
            .base
            .sim
            .stage_seconds(self.base.space, choice.config, choice.stage);
        let clock = self.clock.now();
        let finish = clock + secs;
        {
            let seq = cfg.n_init + t;
            let in_flight = self.pending.len() + 1;
            tracer.emit(|| TraceEvent::RunDispatched {
                seq,
                step: Some(t),
                config: choice.config,
                fidelity: choice.stage.index(),
                clock,
                finish,
                in_flight,
            });
        }
        self.pending.push(InFlight {
            seq: t,
            choice,
            finish_at: finish,
        });
        self.schedule.push(ScheduleEvent::Dispatch(t));
        self.dispatches.push(PickRecord {
            config: choice.config,
            stage_index: choice.stage.index(),
            acquisition_bits: choice.acquisition.to_bits(),
        });
        self.base.candidate_set.push(choice);
        self.base.unsampled.retain(|&c| c != choice.config);
        self.base.stack = Some(new_stack);
        self.dispatched = t + 1;
        Ok(true)
    }

    /// Advances the virtual clock to the earliest-finishing in-flight run
    /// (ties to the lowest dispatch index), observes its true outcome, and
    /// records the completion.
    fn complete_earliest(&mut self) -> Result<(), CmmfError> {
        let cfg = self.base.cfg;
        let Some(k) = earliest_by(&self.pending, |run| (run.finish_at, run.seq)) else {
            return Err(CmmfError::Internal {
                reason: "completion requested with nothing in flight".into(),
            });
        };
        let run = self.pending.remove(k);
        self.clock.advance_to(run.finish_at);
        self.base
            .observe(run.choice.config, run.choice.stage, Some(run.seq));
        self.base.sim_seconds = self.clock.now();
        if !self.base.replaying {
            let clock = self.clock.now();
            let in_flight = self.pending.len();
            let seq = cfg.n_init + run.seq;
            cfg.tracer.emit(|| TraceEvent::RunCompleted {
                seq,
                step: Some(run.seq),
                config: run.choice.config,
                fidelity: run.choice.stage.index(),
                clock,
                in_flight,
            });
        }
        self.schedule.push(ScheduleEvent::Complete(run.seq));
        self.completed += 1;
        self.base.steps_done = self.completed;
        self.base.record_front(run.seq);
        Ok(())
    }

    /// The event loop: keep the slots full, then advance the clock to the
    /// next completion; checkpoint after each completion when `ckpt_path` is
    /// set; stop after `max_completions` (the "kill after k completions"
    /// primitive behind the resume tests).
    fn drive(&mut self, ckpt_path: Option<&Path>, max_completions: usize) -> Result<(), CmmfError> {
        let cfg = self.base.cfg;
        while self.completed < max_completions.min(cfg.n_iter) {
            while !self.exhausted && self.pending.len() < self.slots && self.dispatched < cfg.n_iter
            {
                if !self.dispatch_next()? {
                    break;
                }
            }
            if self.pending.is_empty() {
                break;
            }
            self.complete_earliest()?;
            if let Some(path) = ckpt_path {
                let ckpt = self.checkpoint();
                let bytes = ckpt.save(path)?;
                cfg.tracer.emit(|| TraceEvent::CheckpointWritten {
                    step: self.completed,
                    bytes,
                });
            }
        }
        Ok(())
    }

    /// Snapshots the run after the last completion (possibly mid-overlap).
    fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: RunCheckpoint::fingerprint_of(self.base.cfg),
            is_async: true,
            completed_steps: self.completed,
            init: self.base.init.clone(),
            picks: Vec::new(),
            dispatches: self.dispatches.clone(),
            schedule: self.schedule.clone(),
            in_flight: self
                .pending
                .iter()
                .map(|run| [run.seq as u64, run.finish_at.to_bits()])
                .collect(),
            unsampled: self.base.unsampled.clone(),
            rng_state: self.base.rng.state(),
            sim_seconds_bits: self.clock.now().to_bits(),
            hv_history_bits: self
                .base
                .hv_history
                .iter()
                .map(|hv| [0, 1, 2].map(|d| hv[d].to_bits()))
                .collect(),
        }
    }

    /// Reconstructs the state an asynchronous checkpoint describes,
    /// bit-identically to the run that wrote it: replays the initialization
    /// through the virtual clock, then walks the recorded event log —
    /// re-fitting the surrogate at each dispatch (from the last
    /// hyperparameter-optimization attempt on) and re-observing each
    /// completion at its recorded interleaving — and finally verifies the
    /// rebuilt in-flight set and clock against the checkpoint's copies, so a
    /// mismatched simulator or design space fails loudly instead of
    /// diverging.
    fn restore(
        cfg: &'a CmmfConfig,
        space: &'a DesignSpace,
        sim: &'a FlowSimulator,
        ckpt: &RunCheckpoint,
    ) -> Result<Self, CmmfError> {
        LoopState::validate(cfg, space)?;
        LoopState::check_compat(cfg, ckpt)?;
        if !ckpt.is_async {
            return Err(CmmfError::Checkpoint {
                reason: "checkpoint was written by the sequential optimizer; \
                         resume it with Optimizer"
                    .into(),
            });
        }
        let nd = ckpt.dispatches.len();
        let completed = ckpt.completed_steps;
        if ckpt.init.len() != cfg.n_init
            || !ckpt.picks.is_empty()
            || nd > cfg.n_iter
            || completed > nd
            || ckpt.hv_history_bits.len() != completed
        {
            return Err(CmmfError::Checkpoint {
                reason: "inconsistent checkpoint shape".into(),
            });
        }
        let in_range = |c: usize| c < space.len();
        if !ckpt.init.iter().all(|&c| in_range(c))
            || !ckpt.unsampled.iter().all(|&c| in_range(c))
            || !ckpt.dispatches.iter().all(|p| in_range(p.config))
        {
            return Err(CmmfError::Checkpoint {
                reason: "configuration index out of range — was this checkpoint \
                         written for a different design space?"
                    .into(),
            });
        }
        let choices: Vec<CandidateChoice> = ckpt
            .dispatches
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Stage::from_index(p.stage_index)
                    .map(|stage| CandidateChoice {
                        config: p.config,
                        stage,
                        acquisition: f64::from_bits(p.acquisition_bits),
                    })
                    .ok_or_else(|| CmmfError::Checkpoint {
                        reason: format!("invalid stage index {} in dispatch {i}", p.stage_index),
                    })
            })
            .collect::<Result<_, _>>()?;
        Self::validate_schedule(ckpt, nd, completed)?;
        cfg.tracer.emit(|| TraceEvent::RunStarted {
            seed: cfg.seed,
            n_iter: cfg.n_iter,
            resumed_at: Some(completed),
        });

        let base = LoopState {
            cfg,
            space,
            sim,
            rng: StdRng::from_state(ckpt.rng_state),
            unsampled: ckpt.unsampled.clone(),
            init: ckpt.init.clone(),
            obs: Default::default(),
            sim_seconds: f64::from_bits(ckpt.sim_seconds_bits),
            candidate_set: Vec::with_capacity(cfg.n_iter),
            picks: Vec::new(),
            stack: None,
            hv_history: ckpt
                .hv_history_bits
                .iter()
                .map(|hv| [0, 1, 2].map(|d| f64::from_bits(hv[d])))
                .collect(),
            steps_done: completed,
            replaying: true,
        };
        let mut state = AsyncState {
            slots: cfg.async_slots.max(1),
            clock: VirtualClock::new(),
            pending: Vec::with_capacity(cfg.async_slots.max(1)),
            dispatches: ckpt.dispatches.clone(),
            schedule: ckpt.schedule.clone(),
            dispatched: nd,
            completed,
            exhausted: ckpt
                .schedule
                .iter()
                .any(|e| matches!(e, ScheduleEvent::Exhausted)),
            base,
        };
        // The initialization schedule is implied; replay it to rebuild the
        // observation sets and the post-init clock.
        state.run_init()?;

        // Surrogate fits replay from `replay_from` on; each live dispatch
        // attempt at index i fitted at step i, and an `Exhausted` attempt
        // fitted at step nd.
        let n_fits = nd + usize::from(state.exhausted);
        let refit_from = LoopState::replay_from(cfg, n_fits);
        let quiet_fit = |base: &mut LoopState<'a>, t: usize| -> Result<(), CmmfError> {
            let (data, _, _) = base.training_data();
            base.stack = Some(base.fit_stack(&data, t)?);
            Ok(())
        };
        let mut dispatch_clock = vec![0.0f64; nd];
        for event in &ckpt.schedule {
            match *event {
                ScheduleEvent::Dispatch(i) => {
                    if n_fits > 0 && i >= refit_from {
                        quiet_fit(&mut state.base, i)?;
                    }
                    dispatch_clock[i] = state.clock.now();
                    state.base.candidate_set.push(choices[i]);
                }
                ScheduleEvent::Complete(i) => {
                    let choice = choices[i];
                    let secs = sim.stage_seconds(space, choice.config, choice.stage);
                    state.clock.advance_to(dispatch_clock[i] + secs);
                    state.base.observe(choice.config, choice.stage, Some(i));
                    state.base.sim_seconds = state.clock.now();
                }
                ScheduleEvent::Exhausted => {
                    if nd >= refit_from {
                        quiet_fit(&mut state.base, nd)?;
                    }
                }
            }
        }
        // Rebuild the in-flight set (dispatched, not completed — in dispatch
        // order) and verify it, and the clock, against the checkpoint's
        // redundant copies.
        let completed_set: Vec<bool> = {
            let mut done = vec![false; nd];
            for event in &ckpt.schedule {
                if let ScheduleEvent::Complete(i) = *event {
                    done[i] = true;
                }
            }
            done
        };
        for i in 0..nd {
            if !completed_set[i] {
                let choice = choices[i];
                let secs = sim.stage_seconds(space, choice.config, choice.stage);
                state.pending.push(InFlight {
                    seq: i,
                    choice,
                    finish_at: dispatch_clock[i] + secs,
                });
            }
        }
        let replayed: Vec<[u64; 2]> = state
            .pending
            .iter()
            .map(|run| [run.seq as u64, run.finish_at.to_bits()])
            .collect();
        if replayed != ckpt.in_flight || state.clock.now().to_bits() != ckpt.sim_seconds_bits {
            return Err(CmmfError::Checkpoint {
                reason: "replayed schedule diverges from the recorded in-flight \
                         set — was this checkpoint written under a different \
                         simulator or design space?"
                    .into(),
            });
        }
        state.base.replaying = false;
        Ok(state)
    }

    /// Structural validation of a checkpoint's event log: dispatch indices
    /// appear once each, in order; completions follow their dispatches and
    /// number `completed`; nothing is dispatched after pool exhaustion.
    fn validate_schedule(
        ckpt: &RunCheckpoint,
        nd: usize,
        completed: usize,
    ) -> Result<(), CmmfError> {
        let mut next_dispatch = 0usize;
        let mut done = vec![false; nd];
        let mut n_complete = 0usize;
        let mut exhausted = false;
        let malformed = |reason: &str| CmmfError::Checkpoint {
            reason: format!("malformed schedule: {reason}"),
        };
        for event in &ckpt.schedule {
            match *event {
                ScheduleEvent::Dispatch(i) => {
                    if exhausted {
                        return Err(malformed("dispatch after pool exhaustion"));
                    }
                    if i != next_dispatch || i >= nd {
                        return Err(malformed("dispatch indices out of order"));
                    }
                    next_dispatch += 1;
                }
                ScheduleEvent::Complete(i) => {
                    if i >= next_dispatch || done[i] {
                        return Err(malformed("completion without a matching dispatch"));
                    }
                    done[i] = true;
                    n_complete += 1;
                }
                ScheduleEvent::Exhausted => {
                    if exhausted {
                        return Err(malformed("repeated pool exhaustion"));
                    }
                    exhausted = true;
                }
            }
        }
        if next_dispatch != nd || n_complete != completed {
            return Err(malformed(
                "event counts disagree with the dispatch list and completed_steps",
            ));
        }
        Ok(())
    }
}

/// Index of the minimum of `items` under the `(f64, usize)` key (total order
/// via `total_cmp`, ties to the lower index key) — the deterministic
/// "earliest finish" rule. `None` on empty input.
fn earliest_by<T>(items: &[T], key: impl Fn(&T) -> (f64, usize)) -> Option<usize> {
    let mut best: Option<(usize, (f64, usize))> = None;
    for (i, item) in items.iter().enumerate() {
        let k = key(item);
        let better = match &best {
            None => true,
            Some((_, b)) => k.0.total_cmp(&b.0).then(k.1.cmp(&b.1)).is_lt(),
        };
        if better {
            best = Some((i, k));
        }
    }
    best.map(|(i, _)| i)
}

impl AsyncOptimizer {
    /// Creates an asynchronous optimizer with the given configuration;
    /// [`CmmfConfig::async_slots`] sets the number of concurrent simulated
    /// tool runs (0 behaves like 1).
    pub fn new(cfg: CmmfConfig) -> Self {
        AsyncOptimizer { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &CmmfConfig {
        &self.cfg
    }

    /// Runs the asynchronous loop to completion on the virtual clock.
    ///
    /// [`RunResult::sim_seconds`] is the *makespan* — the virtual-clock time
    /// at which the last run finished — so overlapping schedules report less
    /// simulated time than the sequential loop for the same number of
    /// evaluations. With `async_slots <= 1` the result is bit-identical to
    /// [`Optimizer::run`](crate::Optimizer::run).
    ///
    /// # Examples
    ///
    /// ```
    /// use cmmf::{AsyncOptimizer, CmmfConfig};
    /// use fidelity_sim::{FlowSimulator, SimParams};
    /// use hls_model::benchmarks::{self, Benchmark};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let space = benchmarks::build(Benchmark::SpmvCrs)?.pruned_space()?;
    /// let sim = FlowSimulator::new(SimParams::for_benchmark(Benchmark::SpmvCrs));
    ///
    /// let mut cfg = CmmfConfig {
    ///     n_iter: 2,
    ///     async_slots: 2,
    ///     candidate_pool: 15,
    ///     mc_samples: 8,
    ///     final_prediction_pool: 100,
    ///     ..Default::default()
    /// };
    /// cfg.gp.restarts = 0;
    /// cfg.gp.max_evals = 40;
    ///
    /// let result = AsyncOptimizer::new(cfg).run(&space, &sim)?;
    /// assert_eq!(result.candidate_set.len(), 2);
    /// assert!(result.sim_seconds > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run`](crate::Optimizer::run).
    pub fn run(&self, space: &DesignSpace, sim: &FlowSimulator) -> Result<RunResult, CmmfError> {
        with_pool(self.cfg.threads, || {
            let mut state = AsyncState::start(&self.cfg, space, sim)?;
            state.drive(None, usize::MAX)?;
            state.base.finish()
        })
    }

    /// Runs initialization plus at most `completions` BO completions and
    /// returns the checkpoint — possibly mid-overlap, with runs still in
    /// flight (recorded in [`RunCheckpoint::in_flight`]). The deterministic
    /// "kill after k completions" primitive behind the resume tests.
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run`](crate::Optimizer::run).
    pub fn run_until(
        &self,
        space: &DesignSpace,
        sim: &FlowSimulator,
        completions: usize,
    ) -> Result<RunCheckpoint, CmmfError> {
        with_pool(self.cfg.threads, || {
            let mut state = AsyncState::start(&self.cfg, space, sim)?;
            state.drive(None, completions)?;
            Ok(state.checkpoint())
        })
    }

    /// Resumes an asynchronous checkpoint and drives it to completion; the
    /// result is bit-identical to the uninterrupted run (pinned by
    /// `async_resume_is_bit_identical`, including kills mid-overlap).
    ///
    /// # Errors
    ///
    /// * [`CmmfError::Checkpoint`] if the checkpoint's version, fingerprint
    ///   (which pins `async_slots`), or shape does not match, if it was
    ///   written by the sequential optimizer, or if the replayed schedule
    ///   diverges from the recorded in-flight set (wrong simulator or space).
    /// * Everything [`Optimizer::run`](crate::Optimizer::run) can return.
    pub fn resume(
        &self,
        ckpt: &RunCheckpoint,
        space: &DesignSpace,
        sim: &FlowSimulator,
    ) -> Result<RunResult, CmmfError> {
        with_pool(self.cfg.threads, || {
            let mut state = AsyncState::restore(&self.cfg, space, sim, ckpt)?;
            state.drive(None, usize::MAX)?;
            state.base.finish()
        })
    }

    /// Runs like [`AsyncOptimizer::run`], but checkpoints to `path` after
    /// every completion (atomic write) and — if `path` already holds a
    /// checkpoint — resumes from it instead of starting over.
    ///
    /// # Errors
    ///
    /// Same as [`AsyncOptimizer::resume`] plus checkpoint I/O errors.
    pub fn run_with_checkpoints(
        &self,
        space: &DesignSpace,
        sim: &FlowSimulator,
        path: &Path,
    ) -> Result<RunResult, CmmfError> {
        with_pool(self.cfg.threads, || {
            let mut state = if path.exists() {
                AsyncState::restore(&self.cfg, space, sim, &RunCheckpoint::load(path)?)?
            } else {
                AsyncState::start(&self.cfg, space, sim)?
            };
            state.drive(Some(path), usize::MAX)?;
            state.base.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use gp::GpConfig;
    use hls_model::benchmarks::{self, Benchmark};

    fn quick_cfg(seed: u64, slots: usize) -> CmmfConfig {
        CmmfConfig {
            n_iter: 6,
            candidate_pool: 40,
            mc_samples: 8,
            refit_every: 3,
            async_slots: slots,
            gp: GpConfig {
                restarts: 0,
                max_evals: 60,
                ..Default::default()
            },
            seed,
            ..Default::default()
        }
    }

    fn setup(b: Benchmark) -> (DesignSpace, FlowSimulator) {
        (
            benchmarks::build(b).unwrap().pruned_space().unwrap(),
            fidelity_sim::FlowSimulator::new(fidelity_sim::SimParams::for_benchmark(b)),
        )
    }

    fn assert_same_result(a: &RunResult, b: &RunResult, label: &str) {
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

    /// One slot fully serializes the schedule, reproducing the sequential
    /// optimizer bit-for-bit (and `async_slots: 0` behaves like 1).
    #[test]
    fn async_k1_matches_sequential_bitwise() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let seq = Optimizer::new(quick_cfg(7, 1)).run(&space, &sim).unwrap();
        let k1 = AsyncOptimizer::new(quick_cfg(7, 1))
            .run(&space, &sim)
            .unwrap();
        assert_same_result(&seq, &k1, "k=1");
        let k0 = AsyncOptimizer::new(quick_cfg(7, 0))
            .run(&space, &sim)
            .unwrap();
        // async_slots is fingerprinted but result-transparent at <= 1.
        assert_same_result(&k1, &k0, "k=0");
    }

    /// The schedule depends only on the seed and the cost model — never on
    /// host timing or thread count.
    #[test]
    fn schedule_is_deterministic() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut reference: Option<RunResult> = None;
        for threads in [1usize, 2, 0] {
            let mut cfg = quick_cfg(11, 4);
            cfg.threads = threads;
            let r = AsyncOptimizer::new(cfg).run(&space, &sim).unwrap();
            if let Some(reference) = &reference {
                assert_same_result(reference, &r, &format!("threads={threads}"));
            } else {
                reference = Some(r);
            }
        }
    }

    /// Overlapping the simulated tool runs shrinks the virtual-clock
    /// makespan for the same number of evaluations.
    #[test]
    fn async_overlap_reduces_makespan() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let k1 = AsyncOptimizer::new(quick_cfg(3, 1))
            .run(&space, &sim)
            .unwrap();
        let k4 = AsyncOptimizer::new(quick_cfg(3, 4))
            .run(&space, &sim)
            .unwrap();
        assert_eq!(k1.candidate_set.len(), k4.candidate_set.len());
        assert!(
            k4.sim_seconds < 0.6 * k1.sim_seconds,
            "k=4 makespan {} not well under k=1 {}",
            k4.sim_seconds,
            k1.sim_seconds
        );
    }

    /// Kill-and-resume at several completion counts — including mid-overlap,
    /// with runs in flight — reproduces the uninterrupted run bit-for-bit.
    #[test]
    fn async_resume_is_bit_identical() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let opt = AsyncOptimizer::new(quick_cfg(5, 3));
        let full = opt.run(&space, &sim).unwrap();
        for kill_at in [1usize, 3, 5] {
            let ckpt = opt.run_until(&space, &sim, kill_at).unwrap();
            assert_eq!(ckpt.completed_steps, kill_at);
            if kill_at < 5 {
                assert!(
                    !ckpt.in_flight.is_empty(),
                    "kill at {kill_at} should land mid-overlap"
                );
            }
            let resumed = opt.resume(&ckpt, &space, &sim).unwrap();
            assert_same_result(&full, &resumed, &format!("kill at {kill_at}"));
        }
    }

    /// The disk round-trip: `run_with_checkpoints` picks up a half-done
    /// run's checkpoint file and finishes it bit-identically.
    #[test]
    fn async_run_with_checkpoints_resumes_from_disk() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let dir = std::env::temp_dir().join(format!("cmmf-async-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("async.ckpt.json");
        let _ = std::fs::remove_file(&path);

        let opt = AsyncOptimizer::new(quick_cfg(9, 2));
        let full = opt.run(&space, &sim).unwrap();
        let ckpt = opt.run_until(&space, &sim, 2).unwrap();
        ckpt.save(&path).unwrap();
        let resumed = opt.run_with_checkpoints(&space, &sim, &path).unwrap();
        assert_same_result(&full, &resumed, "disk resume");
        // The final on-disk checkpoint reflects the whole run.
        let last = RunCheckpoint::load(&path).unwrap();
        assert_eq!(last.completed_steps, 6);
        assert!(last.in_flight.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// Fingerprint and kind mismatches fail loudly: a different slot count,
    /// or crossing a checkpoint between the sequential and asynchronous
    /// optimizers.
    #[test]
    fn async_checkpoint_rejects_mismatched_config() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let ckpt = AsyncOptimizer::new(quick_cfg(13, 2))
            .run_until(&space, &sim, 2)
            .unwrap();

        // async_slots is fingerprinted: the schedule depends on it.
        let err = AsyncOptimizer::new(quick_cfg(13, 3))
            .resume(&ckpt, &space, &sim)
            .unwrap_err();
        assert!(matches!(err, CmmfError::Checkpoint { .. }), "{err}");

        // Same config, wrong optimizer kind: sequential refuses async...
        let err = Optimizer::new(quick_cfg(13, 2))
            .resume(&ckpt, &space, &sim)
            .unwrap_err();
        assert!(
            matches!(&err, CmmfError::Checkpoint { reason } if reason.contains("AsyncOptimizer")),
            "{err}"
        );
        // ...and async refuses sequential.
        let seq_ckpt = Optimizer::new(quick_cfg(13, 2))
            .run_until(&space, &sim, 2)
            .unwrap();
        let err = AsyncOptimizer::new(quick_cfg(13, 2))
            .resume(&seq_ckpt, &space, &sim)
            .unwrap_err();
        assert!(
            matches!(&err, CmmfError::Checkpoint { reason } if reason.contains("sequential")),
            "{err}"
        );
    }

    /// The virtual clock is the *only* clock the loops consult: every
    /// `Stopwatch::start` in the loop sources is gated on the tracer being
    /// enabled, so a `NullTracer` run reads no host time at all.
    #[test]
    fn disabled_tracer_reads_no_host_clock() {
        // Built by concatenation so this test's own source lines never match
        // the needle.
        let needle = ["Stopwatch", "::start"].concat();
        let gated = format!("enabled().then({needle})");
        for file in ["src/optimizer.rs", "src/scheduler.rs"] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
            let src = std::fs::read_to_string(&path).unwrap();
            for (i, line) in src.lines().enumerate() {
                let code = line.split("//").next().unwrap_or(line);
                if code.contains(&needle) {
                    assert!(
                        code.contains(&gated),
                        "{file}:{}: host-clock stopwatch must be gated on tracer.enabled()",
                        i + 1
                    );
                }
            }
        }
    }
}
