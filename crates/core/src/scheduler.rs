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
//! Checkpoints record the *decisions* — each dispatch decision's picks — so
//! a kill mid-overlap resumes bit-identically: a resume runs this same loop
//! with the recorded picks standing in for the acquisition, which repeats the
//! interrupted run's interleaving of surrogate fits and observations and
//! rebuilds the virtual clock and the in-flight set; those are then verified
//! against the checkpoint's copies (see [`RunCheckpoint::in_flight`]).

use crate::checkpoint::{PickRecord, RunCheckpoint, CHECKPOINT_VERSION};
use crate::eipv::EipvScorer;
use crate::models::N_OBJECTIVES;
use crate::optimizer::{CandidateChoice, CmmfConfig, LoopState};
use crate::CmmfError;
use fidelity_sim::{FlowSimulator, Stage};
use hls_model::DesignSpace;
use pareto::pareto_front;
use rand::derive_stream_seed;
use std::path::Path;
use trace::{Stopwatch, TraceEvent};

/// One dispatch decision in flight; its picks are `LoopState::picks[seq]`.
#[derive(Clone, Copy)]
pub(crate) struct Group {
    /// The decision index (0-based; also the index into the picks).
    seq: usize,
    /// The first member's index among all BO runs (its journal sequence
    /// number is `n_init` past it).
    first_run: usize,
    /// Virtual-clock time at which the slowest member finishes.
    finish_at: f64,
}

/// A checkpoint replay in progress ([`LoopState::restore`]): the recorded
/// decisions the loop takes instead of scoring candidates.
pub(crate) struct Replay {
    /// Per dispatch decision, its recorded picks.
    picks: Vec<Vec<PickRecord>>,
    /// The first decision whose surrogate fit the replay redoes
    /// ([`LoopState::replay_from`]).
    refit_from: usize,
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
        let mut state = Self::new(cfg, space, sim);
        state.run_init();
        Ok(state)
    }

    /// Runs the initialization set through the slots on the virtual clock:
    /// dispatch eagerly while a slot is free, otherwise complete the
    /// earliest-finishing run (ties to the lowest rank). Ranks keep their
    /// nested top stages; only their timing overlaps, and observation order
    /// is completion order. Shared by fresh starts and resume replay — the
    /// initialization schedule is implied by the seed and the cost model, so
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
                if self.replay.is_none() {
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
            if self.replay.is_none() {
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

    /// Puts the next decision's picks in flight as one group on parallel
    /// tool instances (Algorithm 2, lines 12-14): it finishes with its
    /// slowest member.
    fn launch(&mut self, picked: Vec<CandidateChoice>) -> Group {
        let slowest = picked.iter().fold(0.0f64, |slowest, c| {
            slowest.max(self.sim.stage_seconds(self.space, c.config, c.stage))
        });
        let group = Group {
            seq: self.picks.len(),
            first_run: self.picks.iter().map(Vec::len).sum(),
            finish_at: self.clock.now() + slowest,
        };
        self.picks.push(picked);
        self.in_flight.push(group);
        group
    }

    /// Tool runs in flight across all groups.
    fn runs_in_flight(&self) -> usize {
        self.in_flight.iter().map(|g| self.picks[g.seq].len()).sum()
    }

    /// One dispatch decision at the current virtual-clock time (Algorithm 2,
    /// lines 6-11): fit the surrogate on everything observed so far,
    /// fantasize the in-flight runs' posterior means into the fronts, draw
    /// one candidate pool, greedily pick up to `batch_size` configurations,
    /// and put them in flight as one group. An empty pool sets `exhausted`
    /// instead; the attempt's surrogate fit is still the run's latest.
    ///
    /// During a checkpoint replay the decision scores nothing and journals
    /// nothing: it redoes its fit (from the replay's `refit_from` on) and
    /// takes its recorded picks out of its pool draw
    /// ([`LoopState::replay_dispatch`]). An attempt past the recorded
    /// decisions is where the interrupted run found its pool empty.
    fn dispatch(&mut self) -> Result<(), CmmfError> {
        let cfg = self.cfg;
        let tracer = &cfg.tracer;
        let t = self.picks.len();
        if let Some(replay) = &self.replay {
            let records = replay.picks.get(t).cloned();
            if t >= replay.refit_from {
                let data = self.training_data();
                self.stack = Some(self.fit_stack(&data, t)?);
            }
            match records {
                Some(records) => self.replay_dispatch(t, &records)?,
                None if self.draw_pool() == self.unsampled.len() => self.exhausted = true,
                None => {
                    return Err(CmmfError::Checkpoint {
                        reason: format!("decision {t} is missing although its pool has candidates"),
                    })
                }
            }
            return Ok(());
        }
        tracer.emit(|| TraceEvent::StepStarted {
            step: t,
            observed: [self.obs[0].len(), self.obs[1].len(), self.obs[2].len()],
        });
        let (new_stack, mut fronts) = self.fit_step_stack(t)?;

        // The in-flight runs' posterior means under the new stack, in
        // dispatch order — the same fantasization the picks below apply to
        // each other.
        for run in self.in_flight.iter().flat_map(|g| &self.picks[g.seq]) {
            let fi = run.stage.index();
            let pred = new_stack.predict(fi, &self.space.encode(run.config))?;
            fronts[fi] = merge_into_front(&fronts[fi], pred.mean);
        }

        let Some(prep) = self.prepare_candidates(&new_stack)? else {
            self.stack = Some(new_stack);
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

        // The picks leave the pool and run as one group (lines 12-14).
        for choice in &picked {
            self.unsampled.retain(|&c| c != choice.config);
        }
        let running = self.runs_in_flight();
        let clock = self.clock.now();
        let group = self.launch(picked);
        for (j, choice) in self.picks[t].iter().enumerate() {
            tracer.emit(|| TraceEvent::RunDispatched {
                seq: cfg.n_init + group.first_run + j,
                step: Some(t),
                config: choice.config,
                fidelity: choice.stage.index(),
                clock,
                finish: group.finish_at,
                in_flight: running + j + 1,
            });
        }
        self.stack = Some(new_stack);
        Ok(())
    }

    /// Advances the clock to `group`'s finish, observes its members in pick
    /// order and records the completed step's fronts (the group is already
    /// out of `in_flight`).
    fn land(&mut self, group: &Group) {
        let cfg = self.cfg;
        self.clock.advance_to(group.finish_at);
        let members = self.picks[group.seq].len();
        let running = self.runs_in_flight() + members;
        for j in 0..members {
            let run = self.picks[group.seq][j];
            self.observe(run.config, run.stage, Some(group.seq));
            if self.replay.is_none() {
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
        self.record_front(group.seq);
    }

    /// Completes the earliest-finishing group in flight (ties to the lowest
    /// decision index) and observes its true outcomes.
    fn complete_earliest(&mut self) -> Result<(), CmmfError> {
        let Some(k) = earliest_by(&self.in_flight, |g| (g.finish_at, g.seq)) else {
            return Err(CmmfError::Internal {
                reason: "completion requested with nothing in flight".into(),
            });
        };
        let group = self.in_flight.remove(k);
        self.land(&group);
        Ok(())
    }

    /// The event loop: keep the slots full, then advance the clock to the
    /// next completion; checkpoint after each completion when `ckpt_path` is
    /// set; stop after `max_steps` completed steps (the "kill after step k"
    /// primitive behind the resume tests, and where a checkpoint replay
    /// stops). The run-started announcement is emitted by
    /// [`LoopState::start`]/[`LoopState::restore`] so it precedes the
    /// initialization or replay tool runs.
    pub(crate) fn drive(
        &mut self,
        ckpt_path: Option<&Path>,
        max_steps: usize,
    ) -> Result<(), CmmfError> {
        let cfg = self.cfg;
        let slots = cfg.async_slots.max(1);
        while self.hv_history.len() < max_steps.min(cfg.n_iter) {
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
                    step: self.hv_history.len(),
                    bytes,
                });
            }
        }
        Ok(())
    }

    /// Snapshots the run after the last completed step (possibly
    /// mid-overlap): its decisions, plus the values a replay is verified
    /// against.
    pub(crate) fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: RunCheckpoint::fingerprint_of(self.cfg),
            completed_steps: self.hv_history.len(),
            picks: self
                .picks
                .iter()
                .map(|group| group.iter().map(PickRecord::of).collect())
                .collect(),
            in_flight: self.in_flight_records(),
            sim_seconds_bits: self.clock.now().to_bits(),
        }
    }

    /// Reconstructs the state a checkpoint describes, bit-identically to the
    /// run that wrote it. The checkpoint holds the run's decisions only;
    /// everything else is rebuilt by the loop that built it live: the seeded
    /// initialization draw ([`LoopState::new`]) and its runs through the
    /// virtual clock, then [`LoopState::drive`] up to the recorded completed
    /// steps with the recorded picks standing in for the acquisition (see
    /// [`LoopState::dispatch`]). Surrogate fits are redone from the last
    /// hyperparameter search on (GP fits seed their own RNG per call, so the
    /// replayed chain is exact). Finally the replay must have dispatched
    /// every recorded decision, and the rebuilt in-flight set and clock must
    /// match the checkpoint's copies, so a damaged checkpoint or a mismatched
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
        let batch = cfg.batch_size.max(1);
        if nd > cfg.n_iter || ckpt.picks.iter().any(|g| g.is_empty() || g.len() > batch) {
            return Err(CmmfError::Checkpoint {
                reason: "inconsistent checkpoint shape".into(),
            });
        }
        if ckpt.completed_steps > nd {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "{} completed steps exceed the {nd} recorded decisions",
                    ckpt.completed_steps
                ),
            });
        }
        cfg.tracer.emit(|| TraceEvent::RunStarted {
            seed: cfg.seed,
            n_iter: cfg.n_iter,
            resumed_at: Some(ckpt.completed_steps),
        });

        // Once the initialization and the picks cover the space, a run with
        // decisions to spare finds its pool empty at its next attempt, before
        // or after the kill, and that attempt's fit is the run's last.
        let picked: usize = ckpt.picks.iter().map(Vec::len).sum();
        let exhausts = nd < cfg.n_iter && cfg.n_init + picked >= space.len();
        let mut state = Self::new(cfg, space, sim);
        state.replay = Some(Replay {
            picks: ckpt.picks.clone(),
            refit_from: Self::replay_from(cfg, nd + usize::from(exhausts)),
        });
        state.run_init();
        state.drive(None, ckpt.completed_steps)?;
        state.replay = None;
        if state.hv_history.len() != ckpt.completed_steps || state.picks.len() != nd {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "the replay completes {} steps with {} of the {nd} recorded decisions dispatched",
                    state.hv_history.len(),
                    state.picks.len()
                ),
            });
        }
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
        Ok(state)
    }

    /// Redoes dispatch decision `i` during a replay: its candidate draw
    /// ([`LoopState::draw_pool`]), then, as [`LoopState::dispatch`] did, the
    /// recorded picks taken out of the not-yet-sampled list in pick order and
    /// put in flight as one group.
    /// Each pick must be a distinct member of the pool that shuffle drew —
    /// the last `candidate_pool` entries of the list — so a pick of an
    /// evaluated configuration, a repeat, or one from outside the pool is a
    /// damaged checkpoint, not a run that evaluates a configuration twice.
    fn replay_dispatch(&mut self, i: usize, records: &[PickRecord]) -> Result<(), CmmfError> {
        let pool_start = self.draw_pool();
        let mut picked = Vec::with_capacity(records.len());
        for (j, p) in records.iter().enumerate() {
            let damaged = |what: String| CmmfError::Checkpoint {
                reason: format!("decision {i}, pick {j}: {what}"),
            };
            let stage = Stage::from_index(p.stage_index)
                .ok_or_else(|| damaged(format!("invalid stage index {}", p.stage_index)))?;
            let k = self.unsampled[pool_start..]
                .iter()
                .position(|&c| c == p.config)
                .ok_or_else(|| {
                    damaged(format!(
                        "configuration {} is not an unsampled candidate of its pool",
                        p.config
                    ))
                })?;
            self.unsampled.remove(pool_start + k);
            picked.push(CandidateChoice {
                config: p.config,
                stage,
                acquisition: f64::from_bits(p.acquisition_bits),
            });
        }
        self.launch(picked);
        Ok(())
    }

    /// The in-flight set as the checkpoint records it.
    fn in_flight_records(&self) -> Vec<[u64; 2]> {
        self.in_flight
            .iter()
            .map(|g| [g.seq as u64, g.finish_at.to_bits()])
            .collect()
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
    use crate::optimizer::{LoopState, Optimizer, RunResult};
    use crate::CmmfError;
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

    /// A recorded pick that is not a fresh candidate of its decision's pool
    /// — an initialization configuration, an earlier pick, or an unsampled
    /// configuration outside the pool the decision's shuffle drew — marks a
    /// damaged checkpoint, and so do more completed steps than recorded
    /// decisions, a decision missing where the replay's pool still has
    /// candidates, a recorded decision the replay never dispatches, and a
    /// recorded clock or in-flight set the replay does not reach. Resuming
    /// one is a typed error, never a run that evaluates a configuration
    /// twice.
    #[test]
    fn damaged_decisions_are_typed_errors() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        for slots in [0, 2] {
            let cfg = slots_cfg(43, slots);
            let opt = Optimizer::new(cfg.clone());
            let ckpt = opt.run_until(&space, &sim, 3).unwrap();
            assert!(opt.resume(&ckpt, &space, &sim).is_ok(), "slots={slots}");
            // Decision 1's pool, by the draws the loop makes before it.
            let mut state = LoopState::new(&cfg, &space, &sim);
            state.draw_pool();
            state.unsampled.retain(|&c| c != ckpt.picks[0][0].config);
            let pool_start = state.draw_pool();
            assert!(pool_start > 0);
            assert!(state.unsampled[pool_start..].contains(&ckpt.picks[1][0].config));
            let repick = |config: usize| {
                let mut damaged = ckpt.clone();
                damaged.picks[1][0].config = config;
                damaged
            };
            let mut overcounted = ckpt.clone();
            overcounted.completed_steps = ckpt.picks.len() + 1;
            let mut missing = ckpt.clone();
            missing.picks.pop();
            let mut undispatched = ckpt.clone();
            undispatched.picks.push(ckpt.picks[0].clone());
            let mut clock = ckpt.clone();
            clock.sim_seconds_bits ^= 1;
            let mut pending = ckpt.clone();
            pending.in_flight.push([0, 0]);
            // Each damage is caught by the check made for it, not only by
            // the replayed clock it would also move. At one slot every
            // decision completes before the next, so a missing decision
            // leaves more completed steps than decisions.
            let in_pool = "candidate of its pool";
            let steps_exceed = "steps exceed the";
            for (what, damaged, caught_by) in [
                ("init configuration", repick(state.init[0]), in_pool),
                ("earlier pick", repick(ckpt.picks[0][0].config), in_pool),
                ("outside the pool", repick(state.unsampled[0]), in_pool),
                ("more steps than decisions", overcounted, steps_exceed),
                (
                    "missing decision",
                    missing,
                    if slots > 1 {
                        "missing although its pool has candidates"
                    } else {
                        steps_exceed
                    },
                ),
                (
                    "undispatched decision",
                    undispatched,
                    "decisions dispatched",
                ),
                ("clock", clock, "diverges"),
                ("in-flight set", pending, "diverges"),
            ] {
                match opt.resume(&damaged, &space, &sim) {
                    Err(CmmfError::Checkpoint { reason }) if reason.contains(caught_by) => {}
                    other => panic!("slots={slots}, {what}: {other:?}"),
                }
            }
        }
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
