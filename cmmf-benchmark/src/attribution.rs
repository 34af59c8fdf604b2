//! Layer attribution: splits one job's wall time into the self times of the
//! layers it passed through, using only the arrival times of its trace
//! events.
//!
//! A job is one optimizer campaign run in process, or one daemon session
//! driven over the socket. The benchmark stamps each event as it arrives —
//! through its own [`trace::Tracer`] in process, or as a streamed frame is
//! read off the socket — with the job's start at time 0. Every gap between
//! two consecutive stamps is charged to exactly one layer, chosen by the
//! event that closes the gap, so the layers of a job sum to its wall time:
//!
//! | gap closed by                    | layer                                   |
//! |----------------------------------|-----------------------------------------|
//! | `Admitted` (the `submit` ack)    | [`Layer::Admit`]                        |
//! | `RunStarted`                     | [`Layer::Start`] after an ack, else [`Layer::Init`] |
//! | anything before the first step   | [`Layer::Init`]                         |
//! | `StepStarted`                    | [`Layer::Scheduler`] after a dispatch, else [`Layer::Observe`] |
//! | `ModelFit`                       | [`Layer::Fit`]                          |
//! | `Scored`                         | its own `seconds` to [`Layer::Score`], the rest to [`Layer::Prepare`] |
//! | `ToolRun`, `FrontUpdated`        | [`Layer::Observe`]                      |
//! | `Dispatched`, `Completed`        | [`Layer::Scheduler`]                    |
//! | `CheckpointWritten`              | [`Layer::Checkpoint`]                   |
//! | `RunFinished`                    | [`Layer::Finish`]                       |
//! | the job's end                    | [`Layer::Deliver`] after an ack, else [`Layer::Finish`] |
//!
//! In the optimizer, `AcquisitionScored.seconds` times the argmax alone, so
//! the rest of its gap — pool encoding, the batched predictions, the
//! predictive Cholesky factors (and, in the asynchronous loop, the fantasy
//! predictions) — is candidate preparation.

use trace::json::JsonValue;
use trace::TraceEvent;

/// Which hyperparameter path a model fit took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitKind {
    /// Full hyperparameter search.
    Optimize,
    /// Incremental extension of the cached factors.
    Extend,
    /// Hyperparameter-reusing rebuild.
    Refit,
}

/// The layer-boundary events the attribution reads, with the payload it
/// aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The daemon acknowledged a `submit` (serve sessions only).
    Admitted,
    /// The optimizer run began.
    RunStarted,
    /// An optimization step (or asynchronous dispatch decision) began.
    StepStarted,
    /// The surrogate stack was fitted.
    ModelFit {
        /// Fit path.
        kind: FitKind,
        /// NLL evaluations of the hyperparameter searches.
        nll_evals: usize,
        /// Multi-start restarts run.
        restarts_run: usize,
        /// Warm-started searches that converged in place.
        warm_hits: usize,
        /// Warm-seeded searches that still ran the cold multi-start.
        warm_misses: usize,
    },
    /// One batch slot's acquisition argmax finished.
    Scored {
        /// Seconds the argmax itself took, as the optimizer measured it.
        seconds: f64,
        /// Candidates scored.
        candidates: usize,
    },
    /// One simulated flow stage ran.
    ToolRun,
    /// A tool run entered the asynchronous scheduler.
    Dispatched {
        /// A Bayesian-optimization dispatch (not an initialization run).
        bo: bool,
        /// Runs in flight after the dispatch.
        in_flight: usize,
    },
    /// A dispatched tool run completed.
    Completed,
    /// The observed fronts were updated after a step's runs.
    FrontUpdated,
    /// A checkpoint was written.
    CheckpointWritten {
        /// Serialized size.
        bytes: usize,
    },
    /// The run finished, final Pareto identification included.
    RunFinished,
}

impl Event {
    /// The attribution view of an in-process trace event; `None` for events
    /// that close no layer.
    pub fn from_trace(event: &TraceEvent) -> Option<Event> {
        Some(match event {
            TraceEvent::RunStarted { .. } => Event::RunStarted,
            TraceEvent::StepStarted { .. } => Event::StepStarted,
            TraceEvent::ModelFit {
                fit_mode,
                nll_evals,
                restarts_run,
                warm_start_hits,
                warm_start_misses,
                ..
            } => Event::ModelFit {
                kind: fit_kind(fit_mode)?,
                nll_evals: *nll_evals,
                restarts_run: *restarts_run,
                warm_hits: *warm_start_hits,
                warm_misses: *warm_start_misses,
            },
            TraceEvent::AcquisitionScored {
                seconds,
                candidates,
                ..
            } => Event::Scored {
                seconds: *seconds,
                candidates: *candidates,
            },
            TraceEvent::ToolRun { .. } => Event::ToolRun,
            TraceEvent::RunDispatched {
                step, in_flight, ..
            } => Event::Dispatched {
                bo: step.is_some(),
                in_flight: *in_flight,
            },
            TraceEvent::RunCompleted { .. } => Event::Completed,
            TraceEvent::FrontUpdated { .. } => Event::FrontUpdated,
            TraceEvent::CheckpointWritten { bytes, .. } => {
                Event::CheckpointWritten { bytes: *bytes }
            }
            TraceEvent::RunFinished { .. } => Event::RunFinished,
            TraceEvent::RepeatFinished { .. } => return None,
        })
    }

    /// The attribution view of a journal-schema event object (the `event`
    /// field of a streamed daemon frame); `None` for unknown or ill-typed
    /// events.
    pub fn from_json(doc: &JsonValue) -> Option<Event> {
        let count = |key: &str| doc.get(key).and_then(JsonValue::as_usize);
        Some(match doc.get("event")?.as_str()? {
            "run_started" => Event::RunStarted,
            "step_started" => Event::StepStarted,
            "model_fit" => Event::ModelFit {
                kind: fit_kind(doc.get("fit_mode")?.as_str()?)?,
                nll_evals: count("nll_evals")?,
                restarts_run: count("restarts_run")?,
                warm_hits: count("warm_start_hits")?,
                warm_misses: count("warm_start_misses")?,
            },
            "acquisition_scored" => Event::Scored {
                seconds: doc.get("seconds")?.as_f64()?,
                candidates: count("candidates")?,
            },
            "tool_run" => Event::ToolRun,
            "run_dispatched" => Event::Dispatched {
                bo: !matches!(doc.get("step")?, JsonValue::Null),
                in_flight: count("in_flight")?,
            },
            "run_completed" => Event::Completed,
            "front_updated" => Event::FrontUpdated,
            "checkpoint_written" => Event::CheckpointWritten {
                bytes: count("bytes")?,
            },
            "run_finished" => Event::RunFinished,
            _ => return None,
        })
    }
}

fn fit_kind(mode: &str) -> Option<FitKind> {
    match mode {
        "optimize" => Some(FitKind::Optimize),
        "extend" => Some(FitKind::Extend),
        "refit" => Some(FitKind::Refit),
        _ => None,
    }
}

/// One event with its arrival time in seconds since the job started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamp {
    /// Arrival time, seconds since the job's start.
    pub at: f64,
    /// The event.
    pub event: Event,
}

/// A layer that owns a share of a job's wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `core::optimizer` start-up: thread pool, initial draw and its tool
    /// runs, up to the first step.
    Init,
    /// `core::models` fit (`gp` + `linalg`), training-data assembly included.
    Fit,
    /// `core::optimizer` candidate preparation (encoding, batched
    /// prediction, predictive Cholesky).
    Prepare,
    /// `core::eipv` + `pareto` acquisition scoring.
    Score,
    /// `core::optimizer` observation: simulated tool runs and front updates.
    Observe,
    /// `core::scheduler` dispatch and completion bookkeeping.
    Scheduler,
    /// `core::checkpoint` serialization and atomic write.
    Checkpoint,
    /// `core::optimizer` final Pareto identification.
    Finish,
    /// `serve` admission: `submit` sent until its ack arrives.
    Admit,
    /// `serve` start: ack until the run starts (queue wait, journal, problem
    /// build).
    Start,
    /// `serve` delivery: run finished until the terminal frame arrives.
    Deliver,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 11] = [
        Layer::Init,
        Layer::Fit,
        Layer::Prepare,
        Layer::Score,
        Layer::Observe,
        Layer::Scheduler,
        Layer::Checkpoint,
        Layer::Finish,
        Layer::Admit,
        Layer::Start,
        Layer::Deliver,
    ];
}

/// One job's attributed time and the counts read off its events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// The job was a daemon session (its stamps include the `submit` ack).
    pub served: bool,
    /// Self seconds per layer, indexed by `Layer as usize`.
    pub self_s: [f64; Layer::ALL.len()],
    /// Seconds of [`Layer::Fit`] spent in full hyperparameter searches.
    pub fit_optimize_s: f64,
    /// Seconds of [`Layer::Fit`] spent in incremental extensions.
    pub fit_extend_s: f64,
    /// Model fits.
    pub fits: usize,
    /// NLL evaluations.
    pub nll_evals: usize,
    /// Multi-start restarts run.
    pub restarts_run: usize,
    /// Warm-start hits.
    pub warm_hits: usize,
    /// Warm-start misses.
    pub warm_misses: usize,
    /// Candidates scored.
    pub candidates: usize,
    /// Simulated flow stages run.
    pub tool_runs: usize,
    /// Bayesian-optimization dispatches through the asynchronous scheduler.
    pub dispatches: usize,
    /// Sum of in-flight counts right after those dispatches.
    pub in_flight_sum: usize,
    /// Bytes over all checkpoints written.
    pub checkpoint_bytes: usize,
    /// Seconds from each front update to its checkpoint.
    pub checkpoint_save_s: Vec<f64>,
    /// Seconds between consecutive step starts.
    pub step_s: Vec<f64>,
    /// Seconds from the run's start to its finish.
    pub compute_s: f64,
}

impl Breakdown {
    /// Self seconds of `layer`.
    pub fn get(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    /// Seconds attributed to any layer (the job's wall time when the stamps
    /// are in order).
    pub fn attributed_s(&self) -> f64 {
        self.self_s.iter().sum()
    }

    fn charge(&mut self, layer: Layer, seconds: f64) {
        self.self_s[layer as usize] += seconds;
    }
}

/// Attributes one job: `stamps` in arrival order (times from the job's start
/// at 0), `end` the job's wall time.
pub fn attribute(stamps: &[Stamp], end: f64) -> Breakdown {
    let mut b = Breakdown::default();
    let mut prev_at = 0.0;
    let mut prev: Option<Event> = None;
    let mut stepped = false;
    let mut last_step_at: Option<f64> = None;
    let mut last_front_at: Option<f64> = None;
    let mut run_started_at: Option<f64> = None;
    for stamp in stamps {
        let gap = (stamp.at - prev_at).max(0.0);
        // Before the first step every gap is start-up.
        let in_loop = stepped;
        let looped = move |layer| if in_loop { layer } else { Layer::Init };
        match stamp.event {
            Event::Admitted => {
                b.served = true;
                b.charge(Layer::Admit, gap);
            }
            Event::RunStarted => {
                run_started_at = Some(stamp.at);
                b.charge(if b.served { Layer::Start } else { Layer::Init }, gap);
            }
            Event::StepStarted => {
                let layer = if !stepped {
                    Layer::Init
                } else if matches!(prev, Some(Event::Dispatched { .. })) {
                    Layer::Scheduler
                } else {
                    Layer::Observe
                };
                b.charge(layer, gap);
                if let Some(t) = last_step_at {
                    b.step_s.push(stamp.at - t);
                }
                last_step_at = Some(stamp.at);
                stepped = true;
            }
            Event::ModelFit {
                kind,
                nll_evals,
                restarts_run,
                warm_hits,
                warm_misses,
            } => {
                b.charge(Layer::Fit, gap);
                match kind {
                    FitKind::Optimize => b.fit_optimize_s += gap,
                    FitKind::Extend => b.fit_extend_s += gap,
                    FitKind::Refit => {}
                }
                b.fits += 1;
                b.nll_evals += nll_evals;
                b.restarts_run += restarts_run;
                b.warm_hits += warm_hits;
                b.warm_misses += warm_misses;
            }
            Event::Scored {
                seconds,
                candidates,
            } => {
                let score = seconds.clamp(0.0, gap);
                b.charge(Layer::Score, score);
                b.charge(Layer::Prepare, gap - score);
                b.candidates += candidates;
            }
            Event::ToolRun => {
                b.tool_runs += 1;
                b.charge(looped(Layer::Observe), gap);
            }
            Event::Dispatched { bo, in_flight } => {
                if bo {
                    b.dispatches += 1;
                    b.in_flight_sum += in_flight;
                }
                b.charge(looped(Layer::Scheduler), gap);
            }
            Event::Completed => b.charge(looped(Layer::Scheduler), gap),
            Event::FrontUpdated => {
                b.charge(Layer::Observe, gap);
                last_front_at = Some(stamp.at);
            }
            Event::CheckpointWritten { bytes } => {
                b.charge(Layer::Checkpoint, gap);
                b.checkpoint_bytes += bytes;
                if let Some(t) = last_front_at.take() {
                    b.checkpoint_save_s.push(stamp.at - t);
                }
            }
            Event::RunFinished => {
                b.charge(Layer::Finish, gap);
                if let Some(t) = run_started_at {
                    b.compute_s = stamp.at - t;
                }
            }
        }
        prev_at = stamp.at;
        prev = Some(stamp.event);
    }
    let last = if b.served {
        Layer::Deliver
    } else {
        Layer::Finish
    };
    b.charge(last, (end - prev_at).max(0.0));
    b
}
