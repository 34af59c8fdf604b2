#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cmmf-trace — structured observability for the optimization loop
//!
//! A zero-dependency event layer (in-tree like the `rand`/`rayon` subsets —
//! std only, no crates.io) that makes long Algorithm-2 runs auditable: the
//! optimizer emits typed [`TraceEvent`]s at every decision point — model
//! fits, acquisition argmaxes, simulated tool runs, front updates,
//! checkpoints — and a pluggable [`Tracer`] sink records them.
//!
//! Three sinks ship:
//!
//! * [`NullTracer`] — the default; reports `enabled() == false`, so
//!   instrumented code skips even *constructing* events ([`TracerHandle::emit`]
//!   takes a closure). A traced-off run is bit-identical to an untraced one
//!   by construction, and the optimizer's tests pin that a traced-**on** run
//!   is too: tracing can observe decisions but never influence them.
//! * [`MemoryTracer`] — buffers events in memory for tests and for
//!   [`StepMetrics`] aggregation.
//! * [`JsonlTracer`] — appends one JSON object per event to a journal file
//!   (JSON Lines). The schema is pinned by tests; see [`TraceEvent::to_json`].
//!
//! The [`json`] module is the minimal JSON reader and the one writer behind
//! the journal, the optimizer's checkpoint and the daemon's files and frames;
//! [`write_atomic`] is the one temp-file-then-rename write they are saved
//! with.
//!
//! # Examples
//!
//! ```
//! use cmmf_trace::{MemoryTracer, TraceEvent, TracerHandle};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemoryTracer::new());
//! let tracer = TracerHandle::new(sink.clone());
//! tracer.emit(|| TraceEvent::StepStarted { step: 0, observed: [8, 5, 3] });
//! assert_eq!(sink.events().len(), 1);
//!
//! // The null tracer never runs the closure:
//! let null = TracerHandle::null();
//! null.emit(|| unreachable!("never constructed"));
//! ```

pub mod json;

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One structured event from the optimization loop.
///
/// `seconds` fields marked *wall* are host wall-clock timings (they vary
/// run-to-run and are for profiling only); fields marked *simulated* are
/// deterministic simulator tool times and reproduce exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run began (or resumed: `resumed_at` is the first step executed).
    RunStarted {
        /// The master seed of the run.
        seed: u64,
        /// Total optimization steps configured.
        n_iter: usize,
        /// `Some(k)` when resuming from a checkpoint at step `k`.
        resumed_at: Option<usize>,
    },
    /// An optimization step began.
    StepStarted {
        /// Step index, 0-based.
        step: usize,
        /// Observations per fidelity entering the step (hls, syn, impl).
        observed: [usize; 3],
    },
    /// The surrogate stack was (re)fitted.
    ModelFit {
        /// Step index.
        step: usize,
        /// `"optimize"` (the hyperparameter search ran) or `"refit"` (the
        /// previous step's hyperparameters were reused).
        fit_mode: &'static str,
        /// Wall seconds spent fitting.
        seconds: f64,
        /// NLL objective evaluations consumed by the fit's hyperparameter
        /// searches, summed over the stack's sub-models (0 when no search
        /// ran — refit steps).
        nll_evals: usize,
        /// Multi-start restarts run across those searches (0 when none ran).
        restarts_run: usize,
        /// Always 0: hyperparameter searches start cold. The field stays in
        /// the `model_fit` schema so existing journal readers keep parsing.
        warm_start_hits: usize,
        /// Always 0, like `warm_start_hits`.
        warm_start_misses: usize,
    },
    /// One batch slot's acquisition argmax finished.
    AcquisitionScored {
        /// Step index.
        step: usize,
        /// Batch slot (0-based; 0 is the plain PEIPV argmax).
        slot: usize,
        /// Winning configuration index.
        config: usize,
        /// Winning fidelity index (0 = hls, 1 = syn, 2 = impl), after the
        /// escalation guard.
        fidelity: usize,
        /// Candidates scored.
        candidates: usize,
        /// The winner's raw EIPV (before the Eq. 10 cost penalty).
        eipv: f64,
        /// The winner's penalized acquisition value (equals `eipv` when the
        /// penalty is disabled).
        penalized: f64,
        /// Wall seconds spent scoring this slot.
        seconds: f64,
    },
    /// One simulated flow stage ran for a configuration.
    ToolRun {
        /// Step index; `None` during initialization.
        step: Option<usize>,
        /// Configuration index.
        config: usize,
        /// Stage name (`"hls"`, `"syn"`, `"impl"`).
        stage: &'static str,
        /// Simulated tool seconds of this stage.
        seconds: f64,
        /// Whether the design was valid at this stage.
        valid: bool,
    },
    /// A simulated tool run entered a slot of the optimizer's event loop
    /// (see the core crate's `scheduler` module); every run, initialization
    /// included, emits one. All times are **virtual-clock** simulated
    /// seconds, deterministic for a seed.
    RunDispatched {
        /// Global dispatch sequence number (initialization runs included).
        seq: usize,
        /// BO dispatch index; `None` during initialization.
        step: Option<usize>,
        /// Configuration index.
        config: usize,
        /// Dispatched fidelity index (0 = hls, 1 = syn, 2 = impl).
        fidelity: usize,
        /// Virtual-clock seconds at dispatch (simulated).
        clock: f64,
        /// Virtual-clock seconds at which the run will complete (simulated).
        finish: f64,
        /// Runs in flight after this dispatch.
        in_flight: usize,
    },
    /// A dispatched tool run completed and its observation was folded into
    /// the loop. Emitted after the run's `tool_run` stage events.
    RunCompleted {
        /// Global dispatch sequence number of the completed run.
        seq: usize,
        /// BO dispatch index; `None` during initialization.
        step: Option<usize>,
        /// Configuration index.
        config: usize,
        /// Completed fidelity index (0 = hls, 1 = syn, 2 = impl).
        fidelity: usize,
        /// Virtual-clock seconds at completion (simulated).
        clock: f64,
        /// Runs still in flight after this completion.
        in_flight: usize,
    },
    /// The per-fidelity observed Pareto fronts after a step's runs.
    FrontUpdated {
        /// Step index.
        step: usize,
        /// Hypervolume per fidelity (normalized units, reference `[2.5; 3]`).
        hv: [f64; 3],
        /// Front size per fidelity.
        front_sizes: [usize; 3],
    },
    /// A checkpoint was serialized.
    CheckpointWritten {
        /// Steps completed at the time of writing.
        step: usize,
        /// Serialized size in bytes.
        bytes: usize,
    },
    /// The run finished (including final Pareto identification).
    RunFinished {
        /// Optimization steps executed.
        steps: usize,
        /// Total simulated tool seconds.
        sim_seconds: f64,
        /// Size of the learned Pareto set.
        pareto_points: usize,
    },
    /// One repeat of a multi-repeat experiment finished (emitted by the
    /// experiment runner, not the optimizer).
    RepeatFinished {
        /// Repeat index, 0-based.
        repeat: usize,
        /// ADRS of the repeat against the true front.
        adrs: f64,
        /// Simulated tool seconds of the repeat.
        sim_seconds: f64,
    },
}

impl TraceEvent {
    /// The event's step index, if it belongs to one.
    pub fn step(&self) -> Option<usize> {
        match self {
            TraceEvent::StepStarted { step, .. }
            | TraceEvent::ModelFit { step, .. }
            | TraceEvent::AcquisitionScored { step, .. }
            | TraceEvent::FrontUpdated { step, .. }
            | TraceEvent::CheckpointWritten { step, .. } => Some(*step),
            TraceEvent::ToolRun { step, .. }
            | TraceEvent::RunDispatched { step, .. }
            | TraceEvent::RunCompleted { step, .. } => *step,
            _ => None,
        }
    }

    /// The snake_case discriminant used as the `"event"` field of the JSON
    /// encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStarted { .. } => "run_started",
            TraceEvent::StepStarted { .. } => "step_started",
            TraceEvent::ModelFit { .. } => "model_fit",
            TraceEvent::AcquisitionScored { .. } => "acquisition_scored",
            TraceEvent::ToolRun { .. } => "tool_run",
            TraceEvent::RunDispatched { .. } => "run_dispatched",
            TraceEvent::RunCompleted { .. } => "run_completed",
            TraceEvent::FrontUpdated { .. } => "front_updated",
            TraceEvent::CheckpointWritten { .. } => "checkpoint_written",
            TraceEvent::RunFinished { .. } => "run_finished",
            TraceEvent::RepeatFinished { .. } => "repeat_finished",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline), the
    /// line format of [`JsonlTracer`]. Field names and order are a stable
    /// schema, pinned by this crate's tests; non-finite floats become `null`.
    pub fn to_json(&self) -> String {
        let mut w = json::JsonWriter::with_capacity(160);
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the [`TraceEvent::to_json`] object into `w`, so a caller can
    /// embed the event in a larger document (the daemon's event frames).
    pub fn write_json(&self, w: &mut json::JsonWriter) {
        w.begin_object().key("event").str(self.kind());
        match self {
            TraceEvent::RunStarted {
                seed,
                n_iter,
                resumed_at,
            } => {
                w.key("seed").u64(*seed);
                w.key("n_iter").usize(*n_iter);
                opt_usize(w.key("resumed_at"), *resumed_at);
            }
            TraceEvent::StepStarted { step, observed } => {
                w.key("step").usize(*step);
                w.key("observed").usizes(observed);
            }
            TraceEvent::ModelFit {
                step,
                fit_mode,
                seconds,
                nll_evals,
                restarts_run,
                warm_start_hits,
                warm_start_misses,
            } => {
                w.key("step").usize(*step);
                w.key("fit_mode").str(fit_mode);
                w.key("seconds").f64(*seconds);
                w.key("nll_evals").usize(*nll_evals);
                w.key("restarts_run").usize(*restarts_run);
                w.key("warm_start_hits").usize(*warm_start_hits);
                w.key("warm_start_misses").usize(*warm_start_misses);
            }
            TraceEvent::AcquisitionScored {
                step,
                slot,
                config,
                fidelity,
                candidates,
                eipv,
                penalized,
                seconds,
            } => {
                w.key("step").usize(*step);
                w.key("slot").usize(*slot);
                w.key("config").usize(*config);
                w.key("fidelity").usize(*fidelity);
                w.key("candidates").usize(*candidates);
                w.key("eipv").f64(*eipv);
                w.key("penalized").f64(*penalized);
                w.key("seconds").f64(*seconds);
            }
            TraceEvent::ToolRun {
                step,
                config,
                stage,
                seconds,
                valid,
            } => {
                opt_usize(w.key("step"), *step);
                w.key("config").usize(*config);
                w.key("stage").str(stage);
                w.key("seconds").f64(*seconds);
                w.key("valid").bool(*valid);
            }
            TraceEvent::RunDispatched {
                seq,
                step,
                config,
                fidelity,
                clock,
                finish,
                in_flight,
            } => {
                w.key("seq").usize(*seq);
                opt_usize(w.key("step"), *step);
                w.key("config").usize(*config);
                w.key("fidelity").usize(*fidelity);
                w.key("clock").f64(*clock);
                w.key("finish").f64(*finish);
                w.key("in_flight").usize(*in_flight);
            }
            TraceEvent::RunCompleted {
                seq,
                step,
                config,
                fidelity,
                clock,
                in_flight,
            } => {
                w.key("seq").usize(*seq);
                opt_usize(w.key("step"), *step);
                w.key("config").usize(*config);
                w.key("fidelity").usize(*fidelity);
                w.key("clock").f64(*clock);
                w.key("in_flight").usize(*in_flight);
            }
            TraceEvent::FrontUpdated {
                step,
                hv,
                front_sizes,
            } => {
                w.key("step").usize(*step);
                w.key("hv").f64s(hv);
                w.key("front_sizes").usizes(front_sizes);
            }
            TraceEvent::CheckpointWritten { step, bytes } => {
                w.key("step").usize(*step);
                w.key("bytes").usize(*bytes);
            }
            TraceEvent::RunFinished {
                steps,
                sim_seconds,
                pareto_points,
            } => {
                w.key("steps").usize(*steps);
                w.key("sim_seconds").f64(*sim_seconds);
                w.key("pareto_points").usize(*pareto_points);
            }
            TraceEvent::RepeatFinished {
                repeat,
                adrs,
                sim_seconds,
            } => {
                w.key("repeat").usize(*repeat);
                w.key("adrs").f64(*adrs);
                w.key("sim_seconds").f64(*sim_seconds);
            }
        }
        w.end_object();
    }
}

/// Writes `v`, or `null` for `None`.
fn opt_usize(w: &mut json::JsonWriter, v: Option<usize>) {
    match v {
        Some(v) => w.usize(v),
        None => w.null(),
    };
}

/// A sink for [`TraceEvent`]s.
///
/// Implementations must be cheap when [`Tracer::enabled`] is `false` — the
/// instrumentation skips event construction entirely in that case, so a
/// disabled tracer costs one boolean load per site.
pub trait Tracer: Send + Sync + fmt::Debug {
    /// Records one event. Called from the optimizer's serial sections only,
    /// but sinks must still be `Sync` (the handle is shared freely).
    fn record(&self, event: &TraceEvent);

    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Acquires a mutex even if a previous holder panicked: the tracer only
/// guards append-only buffers, so a poisoned value is still well-formed and
/// observability must never add a second panic on top of a failing run.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A wall-clock stopwatch for trace timings.
///
/// This is the **only** sanctioned clock access in the workspace: the `D2`
/// lint rule (see `cmmf-lint` and `clippy.toml`) bans `std::time` everywhere
/// outside the tracing/bench layers, so result-path code that wants to report
/// a duration in a [`TraceEvent`] starts a `Stopwatch` here — typically
/// behind `tracer.enabled().then(Stopwatch::start)`, which also guarantees a
/// disabled tracer performs no clock read at all.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Reads the monotonic clock and starts timing.
    #[allow(clippy::disallowed_methods)] // the one sanctioned Instant::now
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// A deterministic discrete-event clock for simulated schedules.
///
/// The complement of [`Stopwatch`]: where the stopwatch is the workspace's
/// one sanctioned *host* clock read, a `VirtualClock` never touches host time
/// at all. It only moves when its owner advances it to an event time, and it
/// refuses to run backwards, so two identical advance sequences read
/// bit-identically on any machine — the asynchronous scheduler's determinism
/// contract (`schedule_is_deterministic` in the core crate) rests on this.
///
/// # Examples
///
/// ```
/// use cmmf_trace::VirtualClock;
///
/// let mut clock = VirtualClock::new();
/// assert_eq!(clock.advance_to(25.0), 25.0);
/// assert_eq!(clock.advance_to(10.0), 25.0); // time is monotone
/// assert_eq!(clock.now(), 25.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock reading zero simulated seconds.
    pub fn new() -> Self {
        VirtualClock { now: 0.0 }
    }

    /// The current reading in simulated seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock to `t` and returns the new reading. A `t` at or
    /// before the current reading (or a NaN) leaves the clock unchanged:
    /// simulated time is monotone non-decreasing by construction.
    pub fn advance_to(&mut self, t: f64) -> f64 {
        if t > self.now {
            self.now = t;
        }
        self.now
    }
}

/// The no-op sink: `enabled()` is `false`, so instrumented code never even
/// builds the events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn record(&self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory sink: buffers every event for later inspection or
/// [`StepMetrics`] aggregation.
#[derive(Debug, Default)]
pub struct MemoryTracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemoryTracer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the buffered events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Per-step aggregated metrics over the buffered events.
    pub fn step_metrics(&self) -> Vec<StepMetrics> {
        aggregate_step_metrics(&lock_unpoisoned(&self.events))
    }
}

impl Tracer for MemoryTracer {
    fn record(&self, event: &TraceEvent) {
        lock_unpoisoned(&self.events).push(event.clone());
    }
}

/// A JSON-Lines journal sink: one [`TraceEvent::to_json`] object per line.
pub struct JsonlTracer {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonlTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonlTracer")
    }
}

impl JsonlTracer {
    /// Creates (truncating) a journal file at `path`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::from_writer(Box::new(std::io::BufWriter::new(file))))
    }

    /// Wraps an arbitrary writer (tests use `Vec<u8>` via a cursor).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        JsonlTracer {
            out: Mutex::new(out),
        }
    }
}

impl Tracer for JsonlTracer {
    fn record(&self, event: &TraceEvent) {
        let mut out = lock_unpoisoned(&self.out);
        // A failed journal write must not abort the run it observes.
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = lock_unpoisoned(&self.out).flush();
    }
}

impl Drop for JsonlTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// What a journal scan found: how much of the file is complete records and
/// how much is a torn tail from a kill mid-write.
///
/// A JSONL journal is append-only, one record per `\n`-terminated line, so
/// the only corruption a crash can produce is at the end: a final line that
/// was cut short (no newline, or bytes that do not parse). Recovery keeps
/// the longest prefix of complete parsable lines and drops the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Complete, parsable records in the kept prefix.
    pub complete_records: usize,
    /// Bytes past the kept prefix (0 for a well-formed journal).
    pub torn_bytes: u64,
}

impl JournalRecovery {
    /// Whether the journal needed repair (a torn tail was present).
    pub fn was_torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// Scans raw journal bytes and returns the byte length of the longest prefix
/// of complete (newline-terminated, JSON-parsable) lines, plus the record
/// count of that prefix.
fn scan_complete_prefix(data: &[u8]) -> (usize, usize) {
    let mut keep = 0usize;
    let mut records = 0usize;
    let mut pos = 0usize;
    while let Some(nl) = data[pos..].iter().position(|&b| b == b'\n') {
        let line = &data[pos..pos + nl];
        let parses = std::str::from_utf8(line)
            .ok()
            .and_then(|s| json::parse(s).ok())
            .is_some();
        if !parses {
            break;
        }
        pos += nl + 1;
        keep = pos;
        records += 1;
    }
    (keep, records)
}

/// Reads a journal tolerantly: parses the longest prefix of complete records
/// and reports (without repairing) any torn tail. A missing file reads as an
/// empty journal.
///
/// Interior corruption — an unparsable line *before* the last one — also
/// terminates the prefix: everything from the first bad line on is counted
/// as torn, because records after a gap can no longer be trusted to belong
/// to the same run.
///
/// # Errors
///
/// Any [`std::io::Error`] from reading the file.
pub fn read_journal(path: &Path) -> std::io::Result<(Vec<json::JsonValue>, JournalRecovery)> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let (keep, _) = scan_complete_prefix(&data);
    let mut records = Vec::new();
    for line in data[..keep].split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        // Lines in the kept prefix re-parse by construction; a failure here
        // would mean `scan_complete_prefix` lied, so surface it as torn
        // rather than panic.
        match std::str::from_utf8(line)
            .ok()
            .and_then(|s| json::parse(s).ok())
        {
            Some(v) => records.push(v),
            None => break,
        }
    }
    let complete_records = records.len();
    Ok((
        records,
        JournalRecovery {
            complete_records,
            torn_bytes: (data.len() - keep) as u64,
        },
    ))
}

/// Repairs a journal in place after a possible kill mid-write: truncates the
/// file to its longest prefix of complete records. A missing file is left
/// missing and reported as an empty journal.
///
/// # Errors
///
/// Any [`std::io::Error`] from reading or truncating the file.
pub fn recover_journal(path: &Path) -> std::io::Result<JournalRecovery> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalRecovery {
                complete_records: 0,
                torn_bytes: 0,
            })
        }
        Err(e) => return Err(e),
    };
    let (keep, records) = scan_complete_prefix(&data);
    let torn = (data.len() - keep) as u64;
    if torn > 0 {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.sync_all()?;
    }
    Ok(JournalRecovery {
        complete_records: records,
        torn_bytes: torn,
    })
}

/// Writes `contents` to `path` atomically: into a temporary file in the same
/// directory (`path` with the extension `tmp`), then renamed over `path`. A
/// kill mid-write leaves the previous version intact, so readers and crash
/// recovery only ever see a complete file. This is the one atomic write of
/// the workspace: checkpoints and the daemon's session files all go through
/// it. It does not fsync; a checkpoint is saved after every step, and a disk
/// flush per save would dominate short sessions.
///
/// # Errors
///
/// Any [`std::io::Error`] from writing the temporary file or renaming it.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

impl JsonlTracer {
    /// Opens a journal for **append** after repairing any torn tail — the
    /// resume-path counterpart of [`JsonlTracer::create`] (which truncates).
    ///
    /// A session that died mid-write leaves a final line without its newline;
    /// this truncates the file back to the last complete record (see
    /// [`recover_journal`]) and appends subsequent events after it, so a
    /// resumed run continues the same journal seamlessly. Creates the file if
    /// it does not exist.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from repairing or opening the file.
    pub fn append_recovered(path: &Path) -> std::io::Result<(Self, JournalRecovery)> {
        let recovery = recover_journal(path)?;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok((
            Self::from_writer(Box::new(std::io::BufWriter::new(file))),
            recovery,
        ))
    }
}

/// A cloneable, comparison-transparent handle to a [`Tracer`], embeddable in
/// configuration structs.
///
/// Equality always holds between two handles: a tracer observes a run but can
/// never change its result (pinned by the optimizer's identity tests), so two
/// configurations differing only in their tracer describe the same
/// experiment.
#[derive(Clone)]
pub struct TracerHandle {
    inner: Arc<dyn Tracer>,
    enabled: bool,
}

impl TracerHandle {
    /// Wraps a sink.
    pub fn new(tracer: Arc<dyn Tracer>) -> Self {
        let enabled = tracer.enabled();
        TracerHandle {
            inner: tracer,
            enabled,
        }
    }

    /// The no-op handle ([`NullTracer`]).
    pub fn null() -> Self {
        TracerHandle::new(Arc::new(NullTracer))
    }

    /// Whether events should be constructed at this site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the event built by `make`, or does nothing (without calling
    /// `make`) when disabled.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.inner.record(&make());
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.inner.flush();
    }
}

impl fmt::Debug for TracerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TracerHandle({})",
            if self.enabled { "on" } else { "off" }
        )
    }
}

impl Default for TracerHandle {
    fn default() -> Self {
        TracerHandle::null()
    }
}

impl PartialEq for TracerHandle {
    fn eq(&self, _other: &Self) -> bool {
        true // tracers observe runs, they never define them — see type docs
    }
}

/// Per-step aggregation of a run's journal: where the step's time went and
/// what it decided.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepMetrics {
    /// Step index.
    pub step: usize,
    /// Fit mode of the step's model fit (`"optimize"` or `"refit"`).
    pub fit_mode: Option<&'static str>,
    /// Wall seconds spent fitting the surrogate stack.
    pub model_fit_seconds: f64,
    /// NLL objective evaluations consumed by the step's hyperparameter
    /// searches.
    pub nll_evals: usize,
    /// Multi-start restarts run by the step's hyperparameter searches.
    pub restarts_run: usize,
    /// Wall seconds spent in acquisition scoring, summed over batch slots.
    pub scoring_seconds: f64,
    /// `(config, fidelity)` picks of the step, in slot order.
    pub picks: Vec<(usize, usize)>,
    /// Candidates scored, summed over batch slots.
    pub candidates_scored: usize,
    /// Simulated flow stages run during the step.
    pub tool_runs: usize,
    /// Invalid designs among the step's tool runs.
    pub invalid_runs: usize,
    /// Simulated tool seconds, summed over the step's stage runs.
    pub tool_seconds: f64,
    /// Post-step observed-front hypervolume per fidelity, if recorded.
    pub hv: Option<[f64; 3]>,
}

/// Folds a journal's events into per-step [`StepMetrics`], ordered by step.
/// Events without a step (initialization tool runs, run lifecycle) are
/// skipped.
pub fn aggregate_step_metrics(events: &[TraceEvent]) -> Vec<StepMetrics> {
    let mut steps: Vec<StepMetrics> = Vec::new();
    let at = |step: usize, steps: &mut Vec<StepMetrics>| -> usize {
        if let Some(i) = steps.iter().position(|m| m.step == step) {
            return i;
        }
        steps.push(StepMetrics {
            step,
            ..StepMetrics::default()
        });
        steps.len() - 1
    };
    for ev in events {
        match ev {
            TraceEvent::ModelFit {
                step,
                fit_mode,
                seconds,
                nll_evals,
                restarts_run,
                ..
            } => {
                let i = at(*step, &mut steps);
                steps[i].fit_mode = Some(fit_mode);
                steps[i].model_fit_seconds += seconds;
                steps[i].nll_evals += nll_evals;
                steps[i].restarts_run += restarts_run;
            }
            TraceEvent::AcquisitionScored {
                step,
                config,
                fidelity,
                candidates,
                seconds,
                ..
            } => {
                let i = at(*step, &mut steps);
                steps[i].scoring_seconds += seconds;
                steps[i].candidates_scored += candidates;
                steps[i].picks.push((*config, *fidelity));
            }
            TraceEvent::ToolRun {
                step: Some(step),
                seconds,
                valid,
                ..
            } => {
                let i = at(*step, &mut steps);
                steps[i].tool_runs += 1;
                steps[i].invalid_runs += usize::from(!valid);
                steps[i].tool_seconds += seconds;
            }
            TraceEvent::FrontUpdated { step, hv, .. } => {
                let i = at(*step, &mut steps);
                steps[i].hv = Some(*hv);
            }
            _ => {}
        }
    }
    steps.sort_by_key(|m| m.step);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                seed: 2021,
                n_iter: 2,
                resumed_at: None,
            },
            TraceEvent::ToolRun {
                step: None,
                config: 7,
                stage: "impl",
                seconds: 1500.0,
                valid: true,
            },
            TraceEvent::StepStarted {
                step: 0,
                observed: [8, 5, 3],
            },
            TraceEvent::ModelFit {
                step: 0,
                fit_mode: "optimize",
                seconds: 0.25,
                nll_evals: 900,
                restarts_run: 2,
                warm_start_hits: 1,
                warm_start_misses: 0,
            },
            TraceEvent::AcquisitionScored {
                step: 0,
                slot: 0,
                config: 42,
                fidelity: 1,
                candidates: 40,
                eipv: 0.125,
                penalized: 0.5,
                seconds: 0.03125,
            },
            TraceEvent::ToolRun {
                step: Some(0),
                config: 42,
                stage: "hls",
                seconds: 30.0,
                valid: true,
            },
            TraceEvent::ToolRun {
                step: Some(0),
                config: 42,
                stage: "syn",
                seconds: 240.0,
                valid: false,
            },
            TraceEvent::RunDispatched {
                seq: 9,
                step: Some(1),
                config: 42,
                fidelity: 1,
                clock: 1770.0,
                finish: 2010.0,
                in_flight: 3,
            },
            TraceEvent::RunDispatched {
                seq: 0,
                step: None,
                config: 7,
                fidelity: 2,
                clock: 0.0,
                finish: 1500.0,
                in_flight: 1,
            },
            TraceEvent::RunCompleted {
                seq: 9,
                step: Some(1),
                config: 42,
                fidelity: 1,
                clock: 2010.0,
                in_flight: 2,
            },
            TraceEvent::FrontUpdated {
                step: 0,
                hv: [10.5, 9.25, 8.0],
                front_sizes: [4, 3, 2],
            },
            TraceEvent::CheckpointWritten {
                step: 1,
                bytes: 512,
            },
            TraceEvent::RunFinished {
                steps: 2,
                sim_seconds: 1770.0,
                pareto_points: 5,
            },
            TraceEvent::RepeatFinished {
                repeat: 0,
                adrs: 0.0625,
                sim_seconds: 1770.0,
            },
        ]
    }

    #[test]
    fn jsonl_schema_is_stable() {
        // The journal line format is a public contract: downstream tooling
        // parses it. A failure here means the schema changed — bump the
        // consumer docs in ARCHITECTURE.md ("Observability & resume") and
        // update these golden lines deliberately.
        let golden = [
            r#"{"event":"run_started","seed":2021,"n_iter":2,"resumed_at":null}"#,
            r#"{"event":"tool_run","step":null,"config":7,"stage":"impl","seconds":1500.0,"valid":true}"#,
            r#"{"event":"step_started","step":0,"observed":[8,5,3]}"#,
            r#"{"event":"model_fit","step":0,"fit_mode":"optimize","seconds":0.25,"nll_evals":900,"restarts_run":2,"warm_start_hits":1,"warm_start_misses":0}"#,
            r#"{"event":"acquisition_scored","step":0,"slot":0,"config":42,"fidelity":1,"candidates":40,"eipv":0.125,"penalized":0.5,"seconds":0.03125}"#,
            r#"{"event":"tool_run","step":0,"config":42,"stage":"hls","seconds":30.0,"valid":true}"#,
            r#"{"event":"tool_run","step":0,"config":42,"stage":"syn","seconds":240.0,"valid":false}"#,
            r#"{"event":"run_dispatched","seq":9,"step":1,"config":42,"fidelity":1,"clock":1770.0,"finish":2010.0,"in_flight":3}"#,
            r#"{"event":"run_dispatched","seq":0,"step":null,"config":7,"fidelity":2,"clock":0.0,"finish":1500.0,"in_flight":1}"#,
            r#"{"event":"run_completed","seq":9,"step":1,"config":42,"fidelity":1,"clock":2010.0,"in_flight":2}"#,
            r#"{"event":"front_updated","step":0,"hv":[10.5,9.25,8.0],"front_sizes":[4,3,2]}"#,
            r#"{"event":"checkpoint_written","step":1,"bytes":512}"#,
            r#"{"event":"run_finished","steps":2,"sim_seconds":1770.0,"pareto_points":5}"#,
            r#"{"event":"repeat_finished","repeat":0,"adrs":0.0625,"sim_seconds":1770.0}"#,
        ];
        for (ev, want) in sample_events().iter().zip(golden) {
            assert_eq!(ev.to_json(), want);
        }
    }

    #[test]
    fn every_event_line_parses_as_json() {
        for ev in sample_events() {
            let v = json::parse(&ev.to_json()).unwrap_or_else(|e| panic!("{e}: {ev:?}"));
            assert_eq!(
                v.get("event").and_then(json::JsonValue::as_str),
                Some(ev.kind())
            );
        }
    }

    #[test]
    fn memory_tracer_buffers_in_order() {
        let sink = MemoryTracer::new();
        for ev in sample_events() {
            sink.record(&ev);
        }
        assert_eq!(sink.events(), sample_events());
    }

    #[test]
    fn jsonl_tracer_writes_lines() {
        use std::sync::{Arc, Mutex};

        // A shared Vec<u8> sink so the test can read what was written.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        let tracer = JsonlTracer::from_writer(Box::new(buf.clone()));
        for ev in sample_events() {
            tracer.record(&ev);
        }
        tracer.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for line in lines {
            json::parse(line).unwrap();
        }
    }

    #[test]
    fn journal_recovery_drops_torn_tail_and_appends() {
        let dir = std::env::temp_dir().join(format!("cmmf-journal-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");

        // A journal killed mid-write: two complete records, one torn line.
        let complete = [
            r#"{"event":"step_started","step":0,"observed":[8,5,3]}"#,
            r#"{"event":"checkpoint_written","step":1,"bytes":512}"#,
        ];
        let mut raw = complete.join("\n");
        raw.push('\n');
        raw.push_str(r#"{"event":"front_upd"#); // no newline: torn
        std::fs::write(&path, &raw).unwrap();

        let (records, seen) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(seen.was_torn());
        // read_journal must not repair the file.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), raw);

        let (tracer, recovery) = JsonlTracer::append_recovered(&path).unwrap();
        assert_eq!(recovery.complete_records, 2);
        assert_eq!(recovery.torn_bytes, r#"{"event":"front_upd"#.len() as u64);
        tracer.record(&TraceEvent::CheckpointWritten { step: 2, bytes: 64 });
        drop(tracer); // flush

        let (records, after) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert!(!after.was_torn());
        assert_eq!(
            records[2].get("event").and_then(json::JsonValue::as_str),
            Some("checkpoint_written")
        );
        // The recovered prefix is byte-identical to the complete records.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&complete.join("\n")));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_recovery_handles_missing_empty_and_interior_corruption() {
        let dir = std::env::temp_dir().join(format!("cmmf-journal-edge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file: empty journal, nothing created by recover.
        let missing = dir.join("missing.jsonl");
        let rec = recover_journal(&missing).unwrap();
        assert_eq!(rec.complete_records, 0);
        assert!(!rec.was_torn());
        assert!(!missing.exists());
        // append_recovered creates it.
        let (_t, rec) = JsonlTracer::append_recovered(&missing).unwrap();
        assert_eq!(rec.complete_records, 0);
        assert!(missing.exists());

        // Entirely torn: a single unterminated line truncates to empty.
        let torn = dir.join("all-torn.jsonl");
        std::fs::write(&torn, r#"{"event":"#).unwrap();
        let rec = recover_journal(&torn).unwrap();
        assert_eq!(rec.complete_records, 0);
        assert_eq!(rec.torn_bytes, 9);
        assert_eq!(std::fs::metadata(&torn).unwrap().len(), 0);

        // Interior corruption: a bad line in the middle ends the trusted
        // prefix even though later lines parse.
        let interior = dir.join("interior.jsonl");
        std::fs::write(
            &interior,
            "{\"event\":\"step_started\",\"step\":0,\"observed\":[1,1,1]}\nnot json\n{\"event\":\"checkpoint_written\",\"step\":1,\"bytes\":4}\n",
        )
        .unwrap();
        let (records, seen) = read_journal(&interior).unwrap();
        assert_eq!(records.len(), 1);
        assert!(seen.was_torn());
        let rec = recover_journal(&interior).unwrap();
        assert_eq!(rec.complete_records, 1);
        let text = std::fs::read_to_string(&interior).unwrap();
        assert_eq!(text.lines().count(), 1);

        // Well-formed journals round-trip untouched.
        let ok = dir.join("ok.jsonl");
        std::fs::write(
            &ok,
            "{\"event\":\"run_finished\",\"steps\":2,\"sim_seconds\":1.5,\"pareto_points\":3}\n",
        )
        .unwrap();
        let before = std::fs::read(&ok).unwrap();
        let rec = recover_journal(&ok).unwrap();
        assert_eq!(rec.complete_records, 1);
        assert!(!rec.was_torn());
        assert_eq!(std::fs::read(&ok).unwrap(), before);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_content_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("cmmf-atomic-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("result.json");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!path.with_extension("tmp").exists());
        // A missing directory is an error, not a panic.
        assert!(write_atomic(&dir.join("missing").join("x.json"), "x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn null_tracer_skips_event_construction() {
        let handle = TracerHandle::null();
        assert!(!handle.enabled());
        handle.emit(|| unreachable!("disabled tracer must not build events"));
    }

    #[test]
    fn handles_compare_equal_regardless_of_sink() {
        let a = TracerHandle::null();
        let b = TracerHandle::new(Arc::new(MemoryTracer::new()));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "TracerHandle(off)");
        assert_eq!(format!("{b:?}"), "TracerHandle(on)");
    }

    #[test]
    fn virtual_clock_is_monotone() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.now(), 0.0);
        assert_eq!(clock.advance_to(25.0), 25.0);
        // Going backwards (an earlier event observed late) is a no-op.
        assert_eq!(clock.advance_to(10.0), 25.0);
        // So is a NaN event time: the clock never becomes unordered.
        assert_eq!(clock.advance_to(f64::NAN), 25.0);
        assert_eq!(clock.advance_to(25.0), 25.0);
        assert_eq!(clock.advance_to(1400.5), 1400.5);
    }

    #[test]
    fn virtual_clock_accumulates_bit_identically() {
        // The scheduler contract: replaying the same event times yields the
        // same readings to the last bit — including awkward increments whose
        // sums depend on association order.
        let events = [25.0, 25.0 + 280.3, 25.0 + 280.3 + 0.1, 1e9, 1e9 + 1e-7];
        let run = || {
            let mut clock = VirtualClock::new();
            events
                .iter()
                .map(|&t| clock.advance_to(t).to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
        let readings = run();
        for w in readings.windows(2) {
            assert!(f64::from_bits(w[1]) >= f64::from_bits(w[0]));
        }
    }

    #[test]
    fn step_metrics_aggregate_per_step() {
        let m = aggregate_step_metrics(&sample_events());
        // Steps 0 (full) and 1 (checkpoint only — no aggregatable events, so
        // absent).
        assert_eq!(m.len(), 1);
        let s0 = &m[0];
        assert_eq!(s0.step, 0);
        assert_eq!(s0.fit_mode, Some("optimize"));
        assert_eq!(s0.model_fit_seconds, 0.25);
        assert_eq!(s0.nll_evals, 900);
        assert_eq!(s0.restarts_run, 2);
        assert_eq!(s0.scoring_seconds, 0.03125);
        assert_eq!(s0.picks, vec![(42, 1)]);
        assert_eq!(s0.candidates_scored, 40);
        assert_eq!(s0.tool_runs, 2);
        assert_eq!(s0.invalid_runs, 1);
        assert_eq!(s0.tool_seconds, 270.0);
        assert_eq!(s0.hv, Some([10.5, 9.25, 8.0]));
        // The init-phase tool run (step: None) is not attributed to any step.
        let metrics_tracer = MemoryTracer::new();
        for ev in sample_events() {
            metrics_tracer.record(&ev);
        }
        assert_eq!(metrics_tracer.step_metrics(), m);
    }
}
