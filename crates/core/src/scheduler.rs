//! The Algorithm-2 loop on a deterministic event clock.
//!
//! [`Optimizer`](crate::Optimizer) runs one loop. Each *dispatch decision*
//! fits the surrogate on everything observed so far, draws one candidate
//! pool, and greedily picks up to [`CmmfConfig::batch_size`] configurations
//! (greedy q-EIPV: each pick fantasizes the earlier picks' posterior means
//! into the per-fidelity Pareto fronts). The picks run as one *group* on
//! parallel tool instances, timed on a discrete-event *virtual clock*
//! ([`trace::VirtualClock`]) with the simulator's cost model (`T_hls ≪ T_syn
//! ≪ T_impl`):
//!
//! * a group completes at its dispatch time plus its slowest member's stage
//!   time; its members are observed in pick order, and it adds one
//!   `hv_history` row and one completed step;
//! * up to [`CmmfConfig::async_slots`] groups (0 behaves like 1) are in
//!   flight at once, and each decision also fantasizes the in-flight runs'
//!   posterior means into the fronts;
//! * time advances only when the earliest group finishes (ties to the lowest
//!   decision index); its true outcomes replace the fantasies and the freed
//!   slot is refilled.
//!
//! The regimes the flow cares about are settings of this one loop. One slot
//! is the synchronous loop: every decision waits for the previous group, a
//! barrier after each q-batch, and `batch_size` 1 is the paper's Algorithm 2.
//! `k` slots of groups of one are an asynchronous scheduler that keeps `k`
//! tool licenses busy, as a real FPGA tool farm does when implementation
//! takes hours and HLS seconds. `k` slots of groups of `q` keep `k` batches
//! in flight.
//!
//! The schedule is a pure function of the seed and the cost model: no host
//! timing is ever read (the only sanctioned host-clock use is the
//! tracer-gated [`trace::Stopwatch`], and a disabled tracer reads nothing —
//! pinned by `disabled_tracer_reads_no_host_clock`), and any thread count
//! yields the same schedule (pinned by `schedule_is_deterministic`).
//!
//! Checkpoints record the *decisions* — the per-decision picks plus the
//! interleaved dispatch/completion event log — so a kill mid-overlap resumes
//! bit-identically: the event log replays the interrupted run's exact
//! interleaving of surrogate fits and observations, reconstructing the
//! virtual clock and the in-flight set, which are then verified against the
//! checkpoint's redundant copy (see [`RunCheckpoint::in_flight`]).

use crate::checkpoint::{PickRecord, RunCheckpoint, ScheduleEvent, CHECKPOINT_VERSION};
use crate::eipv::EipvScorer;
use crate::models::N_OBJECTIVES;
use crate::optimizer::{CandidateChoice, CmmfConfig, LoopState};
use crate::CmmfError;
use fidelity_sim::{FlowSimulator, Stage};
use hls_model::DesignSpace;
use pareto::pareto_front;
use rand::derive_stream_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use trace::{Stopwatch, TraceEvent};

/// One dispatch decision's picks, in flight together.
pub(crate) struct Group {
    /// The decision index (0-based; also the index into the recorded picks).
    seq: usize,
    /// The first member's index among all BO runs (its journal sequence
    /// number is `n_init` past it).
    first_run: usize,
    /// The picks, in pick order.
    members: Vec<CandidateChoice>,
    /// Virtual-clock time at which the slowest member finishes.
    finish_at: f64,
}

impl<'a> LoopState<'a> {
    /// Fresh state: validates the configuration, draws the initialization set
    /// (Algorithm 2, lines 3-5) and pushes it through the slots.
    pub(crate) fn start(
        cfg: &'a CmmfConfig,
        space: &'a DesignSpace,
        sim: &'a FlowSimulator,
    ) -> Result<Self, CmmfError> {
        Self::validate(cfg, space)?;
        cfg.tracer.emit(|| TraceEvent::RunStarted {
            seed: cfg.seed,
            n_iter: cfg.n_iter,
            resumed_at: None,
        });
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut unsampled: Vec<usize> = (0..space.len()).collect();
        unsampled.shuffle(&mut rng);
        let init: Vec<usize> = unsampled.split_off(unsampled.len() - cfg.n_init);
        let mut state = Self::new(cfg, space, sim, rng, unsampled, init);
        state.run_init();
        Ok(state)
    }

    /// Runs the initialization set through the slots on the virtual clock:
    /// dispatch eagerly while a slot is free, otherwise complete the
    /// earliest-finishing run (ties to the lowest rank). Ranks keep their
    /// nested top stages; only their timing overlaps, and observation order
    /// is completion order. Shared by fresh starts and resume replay — the
    /// initialization schedule is implied by `init` and the cost model, so
    /// checkpoints don't record it.
    fn run_init(&mut self) {
        let cfg = self.cfg;
        let slots = cfg.async_slots.max(1);
        let n = self.init.len();
        // (rank, finish_at) of the in-flight initialization runs.
        let mut pending: Vec<(usize, f64)> = Vec::new();
        let mut next = 0usize;
        while next < n || !pending.is_empty() {
            if next < n && pending.len() < slots {
                let rank = next;
                let config = self.init[rank];
                let stage = Self::init_top_stage(cfg, rank);
                let clock = self.clock.now();
                let finish = clock + self.sim.stage_seconds(self.space, config, stage);
                if !self.replaying {
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
            let config = self.init[rank];
            let stage = Self::init_top_stage(cfg, rank);
            self.observe(config, stage, None);
            if !self.replaying {
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
    }

    /// A group's simulated seconds: its slowest member's stage time (the
    /// members run on parallel tool instances).
    fn group_seconds(&self, members: &[CandidateChoice]) -> f64 {
        members.iter().fold(0.0f64, |slowest, c| {
            slowest.max(self.sim.stage_seconds(self.space, c.config, c.stage))
        })
    }

    /// Tool runs in flight across all groups.
    fn runs_in_flight(&self) -> usize {
        self.in_flight.iter().map(|g| g.members.len()).sum()
    }

    /// One dispatch decision at the current virtual-clock time (Algorithm 2,
    /// lines 6-11): fit the surrogate on everything observed so far,
    /// fantasize the in-flight runs' posterior means into the fronts, draw
    /// one candidate pool, greedily pick up to `batch_size` configurations,
    /// and put them in flight as one group. An empty pool sets `exhausted`
    /// instead (recorded as [`ScheduleEvent::Exhausted`]; the attempt's
    /// surrogate fit still counts for resume).
    fn dispatch(&mut self) -> Result<(), CmmfError> {
        let cfg = self.cfg;
        let tracer = &cfg.tracer;
        let t = self.picks.len();
        tracer.emit(|| TraceEvent::StepStarted {
            step: t,
            observed: [self.obs[0].len(), self.obs[1].len(), self.obs[2].len()],
        });
        let (new_stack, mut fronts) = self.fit_step_stack(t)?;

        // The in-flight runs' posterior means under the new stack, in
        // dispatch order — the same fantasization the picks below apply to
        // each other.
        for run in self.in_flight.iter().flat_map(|g| &g.members) {
            let fi = run.stage.index();
            let pred = new_stack.predict(fi, &self.space.encode(run.config))?;
            fronts[fi] = merge_into_front(&fronts[fi], pred.mean);
        }

        let Some(prep) = self.prepare_candidates(&new_stack)? else {
            self.stack = Some(new_stack);
            self.schedule.push(ScheduleEvent::Exhausted);
            self.exhausted = true;
            return Ok(());
        };
        // Acquisition scorers, one per fidelity: each front's cell
        // decomposition is built once and shared by every candidate and MC
        // draw, and rebuilt only when a pick's fantasy changes the front.
        let reference = [2.5; N_OBJECTIVES]; // dominates the 2.0 penalty
        let mut scorers = Self::build_scorers(&fronts, &reference);

        // Greedy q-EIPV: the first pick is the plain PEIPV argmax; each later
        // pick maximizes EIPV against fronts augmented with the earlier
        // picks' fantasized (posterior mean) outcomes. Each (candidate,
        // fidelity) pair draws its Monte-Carlo samples from its own stream,
        // seeded from (master seed, decision, pick, config, fidelity), and
        // the winner is chosen by a serial first-max scan in pool order, so
        // the picks are independent of thread count and scheduling.
        let batch = cfg.batch_size.max(1);
        let decision_seed = derive_stream_seed(cfg.seed, &[t as u64]);
        let mut picked: Vec<CandidateChoice> = Vec::new();
        for q in 0..batch {
            let slot_started = tracer.enabled().then(Stopwatch::start);
            let q_seed = derive_stream_seed(decision_seed, &[q as u64]);
            let Some(sel) = self.select_pick(&prep, &scorers, q_seed, &picked)? else {
                break;
            };
            let choice = sel.choice;
            tracer.emit(|| TraceEvent::AcquisitionScored {
                step: t,
                slot: q,
                config: choice.config,
                fidelity: choice.stage.index(),
                candidates: sel.n_scored,
                eipv: sel.raw_eipv,
                penalized: choice.acquisition,
                seconds: slot_started.map_or(0.0, |s| s.seconds()),
            });
            let fi = choice.stage.index();
            let merged = merge_into_front(&fronts[fi], prep.preds[sel.pool_idx][fi].mean.clone());
            // A dominated fantasy leaves the front, and so its scorer, as is.
            if merged != fronts[fi] {
                if q + 1 < batch {
                    scorers[fi] = EipvScorer::new(&merged, &reference);
                }
                fronts[fi] = merged;
            }
            picked.push(choice);
        }
        if picked.is_empty() {
            return Err(CmmfError::Internal {
                reason: "no candidate scored".into(),
            });
        }

        // Run the flow for the group (lines 12-14) on parallel tool
        // instances: it finishes with its slowest member.
        let clock = self.clock.now();
        let finish = clock + self.group_seconds(&picked);
        let first_run = self.candidate_set.len();
        let running = self.runs_in_flight();
        for (j, choice) in picked.iter().enumerate() {
            tracer.emit(|| TraceEvent::RunDispatched {
                seq: cfg.n_init + first_run + j,
                step: Some(t),
                config: choice.config,
                fidelity: choice.stage.index(),
                clock,
                finish,
                in_flight: running + j + 1,
            });
            self.unsampled.retain(|&c| c != choice.config);
        }
        self.candidate_set.extend_from_slice(&picked);
        self.picks.push(picked.iter().map(PickRecord::of).collect());
        self.schedule.push(ScheduleEvent::Dispatch(t));
        self.in_flight.push(Group {
            seq: t,
            first_run,
            members: picked,
            finish_at: finish,
        });
        self.stack = Some(new_stack);
        Ok(())
    }

    /// Advances the clock to `group`'s finish and observes its members in
    /// pick order (the group is already out of `in_flight`).
    fn land(&mut self, group: &Group) {
        let cfg = self.cfg;
        self.clock.advance_to(group.finish_at);
        let running = self.runs_in_flight() + group.members.len();
        for (j, run) in group.members.iter().enumerate() {
            self.observe(run.config, run.stage, Some(group.seq));
            if !self.replaying {
                let clock = self.clock.now();
                cfg.tracer.emit(|| TraceEvent::RunCompleted {
                    seq: cfg.n_init + group.first_run + j,
                    step: Some(group.seq),
                    config: run.config,
                    fidelity: run.stage.index(),
                    clock,
                    in_flight: running - j - 1,
                });
            }
        }
    }

    /// Completes the earliest-finishing group in flight (ties to the lowest
    /// decision index): observes its true outcomes and records the step.
    fn complete_earliest(&mut self) -> Result<(), CmmfError> {
        let Some(k) = earliest_by(&self.in_flight, |g| (g.finish_at, g.seq)) else {
            return Err(CmmfError::Internal {
                reason: "completion requested with nothing in flight".into(),
            });
        };
        let group = self.in_flight.remove(k);
        self.land(&group);
        self.schedule.push(ScheduleEvent::Complete(group.seq));
        self.steps_done += 1;
        self.record_front(group.seq);
        Ok(())
    }

    /// The event loop: keep the slots full, then advance the clock to the
    /// next completion; checkpoint after each completion when `ckpt_path` is
    /// set; stop after `max_steps` completed steps (the "kill after step k"
    /// primitive behind the resume tests). The run-started announcement is
    /// emitted by [`LoopState::start`]/[`LoopState::restore`] so it precedes
    /// the initialization or replay tool runs.
    pub(crate) fn drive(
        &mut self,
        ckpt_path: Option<&Path>,
        max_steps: usize,
    ) -> Result<(), CmmfError> {
        let cfg = self.cfg;
        let slots = cfg.async_slots.max(1);
        while self.steps_done < max_steps.min(cfg.n_iter) {
            while !self.exhausted && self.in_flight.len() < slots && self.picks.len() < cfg.n_iter {
                self.dispatch()?;
            }
            if self.in_flight.is_empty() {
                break;
            }
            self.complete_earliest()?;
            if let Some(path) = ckpt_path {
                let bytes = self.checkpoint().save(path)?;
                cfg.tracer.emit(|| TraceEvent::CheckpointWritten {
                    step: self.steps_done,
                    bytes,
                });
            }
        }
        Ok(())
    }

    /// Snapshots the run after the last completed step (possibly
    /// mid-overlap).
    pub(crate) fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: RunCheckpoint::fingerprint_of(self.cfg),
            completed_steps: self.steps_done,
            init: self.init.clone(),
            picks: self.picks.clone(),
            schedule: self.schedule.clone(),
            in_flight: self.in_flight_records(),
            unsampled: self.unsampled.clone(),
            rng_state: self.rng.state(),
            sim_seconds_bits: self.clock.now().to_bits(),
            hv_history_bits: self
                .hv_history
                .iter()
                .map(|hv| [0, 1, 2].map(|d| hv[d].to_bits()))
                .collect(),
        }
    }

    /// Reconstructs the state a checkpoint describes, bit-identically to the
    /// run that wrote it: restores the recorded decisions (initialization,
    /// picks, candidate order, RNG position), replays the initialization
    /// through the virtual clock, then walks the recorded event log —
    /// re-fitting the surrogate at each dispatch from the last
    /// hyperparameter-optimization attempt on (GP fits seed their own RNG per
    /// call, so the replayed chain is exact) and re-observing each group at
    /// its recorded completion — and finally verifies the rebuilt in-flight
    /// set and clock against the checkpoint's copies, so a mismatched
    /// simulator or design space fails loudly instead of diverging.
    pub(crate) fn restore(
        cfg: &'a CmmfConfig,
        space: &'a DesignSpace,
        sim: &'a FlowSimulator,
        ckpt: &RunCheckpoint,
    ) -> Result<Self, CmmfError> {
        Self::validate(cfg, space)?;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "checkpoint version {} is not the supported {CHECKPOINT_VERSION}",
                    ckpt.version
                ),
            });
        }
        let expected = RunCheckpoint::fingerprint_of(cfg);
        if ckpt.fingerprint != expected {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "configuration mismatch: checkpoint was written under\n  {}\nbut this run is\n  {}",
                    ckpt.fingerprint, expected
                ),
            });
        }
        let nd = ckpt.picks.len();
        let completed = ckpt.completed_steps;
        let batch = cfg.batch_size.max(1);
        if ckpt.init.len() != cfg.n_init
            || nd > cfg.n_iter
            || completed > nd
            || ckpt.hv_history_bits.len() != completed
            || ckpt.picks.iter().any(|g| g.is_empty() || g.len() > batch)
        {
            return Err(CmmfError::Checkpoint {
                reason: "inconsistent checkpoint shape".into(),
            });
        }
        let in_range = |c: usize| c < space.len();
        if !ckpt.init.iter().all(|&c| in_range(c))
            || !ckpt.unsampled.iter().all(|&c| in_range(c))
            || !ckpt.picks.iter().flatten().all(|p| in_range(p.config))
        {
            return Err(CmmfError::Checkpoint {
                reason: "configuration index out of range — was this checkpoint \
                         written for a different design space?"
                    .into(),
            });
        }
        ckpt.check_schedule()?;
        let mut groups: Vec<Group> = Vec::with_capacity(nd);
        let mut first_run = 0;
        for (i, picks) in ckpt.picks.iter().enumerate() {
            let members = picks
                .iter()
                .map(|p| {
                    Stage::from_index(p.stage_index)
                        .map(|stage| CandidateChoice {
                            config: p.config,
                            stage,
                            acquisition: f64::from_bits(p.acquisition_bits),
                        })
                        .ok_or_else(|| CmmfError::Checkpoint {
                            reason: format!(
                                "invalid stage index {} in decision {i}",
                                p.stage_index
                            ),
                        })
                })
                .collect::<Result<Vec<_>, _>>()?;
            groups.push(Group {
                seq: i,
                first_run,
                finish_at: 0.0,
                members,
            });
            first_run += picks.len();
        }
        cfg.tracer.emit(|| TraceEvent::RunStarted {
            seed: cfg.seed,
            n_iter: cfg.n_iter,
            resumed_at: Some(completed),
        });

        let mut state = Self::new(
            cfg,
            space,
            sim,
            StdRng::from_state(ckpt.rng_state),
            ckpt.unsampled.clone(),
            ckpt.init.clone(),
        );
        state.picks = ckpt.picks.clone();
        state.hv_history = ckpt
            .hv_history_bits
            .iter()
            .map(|hv| [0, 1, 2].map(|d| f64::from_bits(hv[d])))
            .collect();
        state.steps_done = completed;
        state.schedule = ckpt.schedule.clone();
        state.exhausted = ckpt.schedule.contains(&ScheduleEvent::Exhausted);
        state.replaying = true;
        state.run_init();

        // Surrogate fits replay from `replay_from` on; the decision at index
        // i fitted at step i, and an `Exhausted` attempt fitted at step nd.
        // Observations replay in full (they feed every later fit).
        let refit_from = Self::replay_from(cfg, nd + usize::from(state.exhausted));
        let mut done = vec![false; nd];
        for event in &ckpt.schedule {
            match *event {
                ScheduleEvent::Dispatch(i) => {
                    if i >= refit_from {
                        state.replay_fit(i)?;
                    }
                    let group = &mut groups[i];
                    group.finish_at = state.clock.now() + state.group_seconds(&group.members);
                    state.candidate_set.extend_from_slice(&group.members);
                }
                ScheduleEvent::Complete(i) => {
                    state.land(&groups[i]);
                    done[i] = true;
                }
                ScheduleEvent::Exhausted => {
                    if nd >= refit_from {
                        state.replay_fit(nd)?;
                    }
                }
            }
        }
        state.in_flight = groups.into_iter().filter(|g| !done[g.seq]).collect();
        if state.in_flight_records() != ckpt.in_flight
            || state.clock.now().to_bits() != ckpt.sim_seconds_bits
        {
            return Err(CmmfError::Checkpoint {
                reason: "replayed schedule diverges from the recorded in-flight \
                         set — was this checkpoint written under a different \
                         simulator or design space?"
                    .into(),
            });
        }
        state.replaying = false;
        Ok(state)
    }

    /// The in-flight set as the checkpoint records it.
    fn in_flight_records(&self) -> Vec<[u64; 2]> {
        self.in_flight
            .iter()
            .map(|g| [g.seq as u64, g.finish_at.to_bits()])
            .collect()
    }

    /// Redoes decision `t`'s surrogate fit during a replay, without events.
    fn replay_fit(&mut self, t: usize) -> Result<(), CmmfError> {
        let (data, _, _) = self.training_data();
        self.stack = Some(self.fit_stack(&data, t)?);
        Ok(())
    }
}

/// `front` with `point` added, reduced to its Pareto front.
fn merge_into_front(front: &[Vec<f64>], point: Vec<f64>) -> Vec<Vec<f64>> {
    pareto_front(
        &front
            .iter()
            .cloned()
            .chain(std::iter::once(point))
            .collect::<Vec<_>>(),
    )
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

#[cfg(test)]
mod tests {
    use crate::optimizer::tests::{assert_same_result, quick_cfg, setup};
    use crate::optimizer::{Optimizer, RunResult};
    use hls_model::benchmarks::Benchmark;

    fn slots_cfg(seed: u64, slots: usize) -> crate::CmmfConfig {
        let mut cfg = quick_cfg(seed);
        cfg.async_slots = slots;
        cfg
    }

    /// The schedule depends only on the seed and the cost model — never on
    /// host timing or thread count.
    #[test]
    fn schedule_is_deterministic() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let mut reference: Option<RunResult> = None;
        for threads in [1usize, 2, 0] {
            let mut cfg = slots_cfg(11, 4);
            cfg.threads = threads;
            let r = Optimizer::new(cfg).run(&space, &sim).unwrap();
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
        let k1 = Optimizer::new(slots_cfg(3, 1)).run(&space, &sim).unwrap();
        let k4 = Optimizer::new(slots_cfg(3, 4)).run(&space, &sim).unwrap();
        assert_eq!(k1.candidate_set.len(), k4.candidate_set.len());
        assert!(
            k4.sim_seconds < 0.6 * k1.sim_seconds,
            "k=4 makespan {} not well under k=1 {}",
            k4.sim_seconds,
            k1.sim_seconds
        );
    }

    /// The virtual clock is the *only* clock the loop consults: every
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
