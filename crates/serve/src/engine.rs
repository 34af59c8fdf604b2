//! The session engine: a bounded worker pool multiplexing optimization
//! sessions with admission control, per-tenant persistence, and
//! crash-resumable execution.
//!
//! ## Lifecycle
//!
//! ```text
//!            submit (admission check, job.json persisted)
//!                    │
//!                    ▼
//!   Queued ──worker picks──▶ Running ──ok──▶ Finished (result.json)
//!     ▲                        │
//!     │ daemon restart:        └─error/panic──▶ Failed (job.json kept)
//!     │ recover() re-enqueues
//!     └── any session with job.json and no result.json
//! ```
//!
//! A session whose stored `job.json` no longer loads is recovered straight
//! into `Failed`, so one stale job never stops the others.
//!
//! A `Running` session checkpoints after every optimizer step, so a killed
//! worker (or a killed daemon) loses at most the step in flight; recovery
//! re-runs the session via `run_with_checkpoints`, which replays the
//! checkpoint and continues **bit-identically** — the resumed session's
//! `result.json` equals the one an uninterrupted run would have written (the
//! contract tier-1 tests pin). Recovery also repairs a torn final journal
//! line (`trace::recover_journal`) before appending.
//!
//! ## Admission
//!
//! The engine holds at most `capacity` sessions in flight (queued +
//! running). A `submit` past that returns
//! [`ServeError::AdmissionRejected`] *before* anything is persisted, so a
//! rejected job leaves no trace. Recovery bypasses admission: sessions that
//! were already admitted before a crash never bounce.

use crate::error::ServeError;
use crate::job::JobSpec;
use crate::session::{persist_job, SessionPaths, SessionResult, SessionState};
use cmmf::{Optimizer, TraceEvent, Tracer, TracerHandle};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use trace::JsonlTracer;

/// Engine sizing and storage configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Storage root; sessions live at `<root>/<tenant>/<session>/`.
    pub root: PathBuf,
    /// Worker threads (at least 1 is always spawned).
    pub workers: usize,
    /// Maximum sessions in flight (queued + running); submits past this are
    /// rejected with [`ServeError::AdmissionRejected`].
    pub capacity: usize,
}

/// A session key: `(tenant, session)`.
pub type SessionKey = (String, String);

#[derive(Debug)]
struct SessionEntry {
    /// The job the session runs; `None` only for a session that recovery
    /// entered as failed because its stored `job.json` no longer loads.
    spec: Option<JobSpec>,
    state: SessionState,
    subscribers: Vec<Sender<TraceEvent>>,
}

#[derive(Debug, Default)]
struct State {
    sessions: BTreeMap<SessionKey, SessionEntry>,
    queue: VecDeque<SessionKey>,
    stop: bool,
}

#[derive(Debug)]
struct Shared {
    cfg: EngineConfig,
    /// The host's hardware threads, shared out among running sessions (see
    /// [`session_threads`]).
    hardware: usize,
    state: Mutex<State>,
    /// Signals workers: queue grew or stop was set.
    wake: Condvar,
    /// Signals waiters: some session reached a terminal state.
    done: Condvar,
}

/// Acquires the state lock even if a previous holder panicked: entries are
/// updated in single assignments, so a poisoned value is still well-formed,
/// and the engine must keep serving other tenants after one session panics.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The multi-tenant session engine. See the module docs for the contract.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Engine {
    /// Creates the storage root and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`] if the root directory cannot be created.
    pub fn start(cfg: EngineConfig) -> Result<Engine, ServeError> {
        fs::create_dir_all(&cfg.root).map_err(|e| ServeError::storage(&cfg.root, e))?;
        let workers = cfg.workers.max(1);
        let hardware = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let shared = Arc::new(Shared {
            hardware,
            cfg,
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Engine {
            shared,
            workers: Mutex::new(handles),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    /// Submits a job. On admission the spec is persisted as the session's
    /// `job.json` and the session is queued; the optional `subscriber`
    /// then receives every `TraceEvent` of the run and is dropped
    /// (disconnecting the channel) when the session completes.
    ///
    /// Submitting an already-finished `(tenant, session)` returns
    /// [`SessionState::Finished`] without re-running; re-submitting an
    /// in-flight session with the *same* spec attaches to it (resume
    /// semantics), with a different spec it is rejected.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidJob`] — validation failed or the session is
    ///   active under a different spec.
    /// * [`ServeError::AdmissionRejected`] — in-flight cap reached; nothing
    ///   was persisted.
    /// * [`ServeError::Storage`] — the session directory is sick.
    /// * [`ServeError::ShuttingDown`].
    pub fn submit(
        &self,
        spec: JobSpec,
        subscriber: Option<Sender<TraceEvent>>,
    ) -> Result<SessionState, ServeError> {
        spec.validate()?;
        let key: SessionKey = (spec.tenant.clone(), spec.session.clone());
        let paths = self.paths(&key);
        let mut state = lock_state(&self.shared);
        if state.stop {
            return Err(ServeError::ShuttingDown);
        }
        if let Some(entry) = state.sessions.get_mut(&key) {
            match entry.state {
                SessionState::Queued | SessionState::Running => {
                    if entry.spec.as_ref() != Some(&spec) {
                        return Err(ServeError::invalid(format!(
                            "session {}/{} is active with a different spec",
                            key.0, key.1
                        )));
                    }
                    if let Some(sub) = subscriber {
                        entry.subscribers.push(sub);
                    }
                    return Ok(entry.state.clone());
                }
                SessionState::Finished => return Ok(SessionState::Finished),
                SessionState::Failed { .. } => {
                    // Fall through: a failed session may be retried.
                }
            }
        } else if paths.result().exists() {
            return Ok(SessionState::Finished);
        }
        let active = state
            .sessions
            .values()
            .filter(|e| matches!(e.state, SessionState::Queued | SessionState::Running))
            .count();
        if active >= self.shared.cfg.capacity {
            return Err(ServeError::AdmissionRejected {
                active,
                cap: self.shared.cfg.capacity,
            });
        }
        // Reserve the slot under the lock, then persist with the lock
        // released — `persist_job` is a blocking write, and holding `state`
        // across it would stall every status/list/submit on disk latency
        // (the linter's S2 pass flags exactly that). The reserved entry
        // keeps admission atomic: a concurrent identical submit attaches,
        // a different spec is rejected, and the capacity count sees it.
        let subscribers = subscriber.into_iter().collect();
        state.sessions.insert(
            key.clone(),
            SessionEntry {
                spec: Some(spec.clone()),
                state: SessionState::Queued,
                subscribers,
            },
        );
        drop(state);
        if let Err(e) = persist_job(&paths, &spec) {
            // Roll the reservation back; the session was never durable.
            let mut state = lock_state(&self.shared);
            state.sessions.remove(&key);
            self.shared.done.notify_all();
            return Err(e);
        }
        let mut state = lock_state(&self.shared);
        if state.stop {
            // Shutdown began while persisting: withdraw the reservation.
            // The job.json stays on disk, so `recover` re-enqueues it on
            // the next start — the same contract as a crash after admit.
            state.sessions.remove(&key);
            self.shared.done.notify_all();
            return Err(ServeError::ShuttingDown);
        }
        state.queue.push_back(key);
        self.shared.wake.notify_one();
        Ok(SessionState::Queued)
    }

    /// Scans the storage root and re-enqueues every unfinished session
    /// (`job.json` present, `result.json` absent), bypassing admission —
    /// these sessions were admitted before the crash. Returns the
    /// re-enqueued keys in deterministic (sorted) order. Call once at daemon
    /// start, before accepting connections.
    ///
    /// A stored `job.json` that cannot be read, no longer parses or no
    /// longer validates fails only its own session: the session (keyed by
    /// its directory names) is entered as [`SessionState::Failed`] with a
    /// message naming the file and the reason, so [`Engine::status`],
    /// [`Engine::list`] and [`Engine::wait`] report it, and a resubmit with
    /// a valid spec retries it. Every other session is still recovered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`] if the root cannot be walked.
    pub fn recover(&self) -> Result<Vec<SessionKey>, ServeError> {
        let root = &self.shared.cfg.root;
        let mut unfinished: Vec<(SessionKey, JobSpec)> = Vec::new();
        let mut unloadable: Vec<(SessionKey, String)> = Vec::new();
        let read_dir = |p: &PathBuf| -> Result<Vec<PathBuf>, ServeError> {
            let mut dirs = Vec::new();
            for entry in fs::read_dir(p).map_err(|e| ServeError::storage(p, e))? {
                let entry = entry.map_err(|e| ServeError::storage(p, e))?;
                if entry.path().is_dir() {
                    dirs.push(entry.path());
                }
            }
            dirs.sort();
            Ok(dirs)
        };
        for tenant_dir in read_dir(root)? {
            for session_dir in read_dir(&tenant_dir)? {
                let job_path = session_dir.join("job.json");
                if !job_path.exists() || session_dir.join("result.json").exists() {
                    continue;
                }
                let loaded = fs::read_to_string(&job_path)
                    .map_err(|e| ServeError::storage(&job_path, e))
                    .and_then(|text| JobSpec::parse(&text));
                match loaded {
                    Ok(spec) => {
                        unfinished.push(((spec.tenant.clone(), spec.session.clone()), spec));
                    }
                    Err(e) => {
                        let name = |dir: &PathBuf| {
                            dir.file_name()
                                .map_or_else(String::new, |n| n.to_string_lossy().into_owned())
                        };
                        let message = format!("stored job {} is invalid: {e}", job_path.display());
                        unloadable.push(((name(&tenant_dir), name(&session_dir)), message));
                    }
                }
            }
        }
        let mut state = lock_state(&self.shared);
        for (key, message) in unloadable {
            state.sessions.entry(key).or_insert(SessionEntry {
                spec: None,
                state: SessionState::Failed { message },
                subscribers: Vec::new(),
            });
        }
        let mut keys = Vec::with_capacity(unfinished.len());
        for (key, spec) in unfinished {
            if state.sessions.contains_key(&key) {
                continue;
            }
            state.sessions.insert(
                key.clone(),
                SessionEntry {
                    spec: Some(spec),
                    state: SessionState::Queued,
                    subscribers: Vec::new(),
                },
            );
            state.queue.push_back(key.clone());
            keys.push(key);
        }
        self.shared.wake.notify_all();
        Ok(keys)
    }

    /// The session's current state: the in-memory one if the session is
    /// known to this engine instance, otherwise reconstructed from disk
    /// (`result.json` ⇒ finished, `job.json` alone ⇒ queued-for-recovery).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn status(&self, tenant: &str, session: &str) -> Result<SessionState, ServeError> {
        let key = (tenant.to_string(), session.to_string());
        if let Some(entry) = lock_state(&self.shared).sessions.get(&key) {
            return Ok(entry.state.clone());
        }
        let paths = self.paths(&key);
        if paths.result().exists() {
            Ok(SessionState::Finished)
        } else if paths.job().exists() {
            Ok(SessionState::Queued)
        } else {
            Err(ServeError::UnknownSession {
                tenant: key.0,
                session: key.1,
            })
        }
    }

    /// All sessions known to this engine instance, with their states, in
    /// deterministic (sorted-key) order. Sessions finished before the last
    /// daemon restart appear once addressed via [`Engine::status`] or
    /// [`Engine::wait`], not here.
    pub fn list(&self) -> Vec<(SessionKey, SessionState)> {
        lock_state(&self.shared)
            .sessions
            .iter()
            .map(|(k, e)| (k.clone(), e.state.clone()))
            .collect()
    }

    /// Blocks until the session reaches a terminal state and returns its
    /// result manifest.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] — never submitted here or on disk.
    /// * [`ServeError::SessionFailed`] — the run errored; message recorded.
    /// * [`ServeError::ShuttingDown`] — engine stopped while the session
    ///   was still queued (it will be recovered by the next daemon).
    /// * [`ServeError::Storage`] / [`ServeError::Protocol`] — sick
    ///   `result.json`.
    pub fn wait(&self, tenant: &str, session: &str) -> Result<SessionResult, ServeError> {
        let key = (tenant.to_string(), session.to_string());
        let paths = self.paths(&key);
        let mut state = lock_state(&self.shared);
        loop {
            match state.sessions.get(&key) {
                None => {
                    drop(state);
                    return if paths.result().exists() {
                        SessionResult::load(&paths.result())
                    } else {
                        Err(ServeError::UnknownSession {
                            tenant: key.0,
                            session: key.1,
                        })
                    };
                }
                Some(entry) => match &entry.state {
                    SessionState::Finished => {
                        drop(state);
                        return SessionResult::load(&paths.result());
                    }
                    SessionState::Failed { message } => {
                        return Err(ServeError::SessionFailed {
                            message: message.clone(),
                        });
                    }
                    SessionState::Queued if state.stop => {
                        return Err(ServeError::ShuttingDown);
                    }
                    SessionState::Queued | SessionState::Running => {
                        state = self
                            .shared
                            .done
                            .wait(state)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                },
            }
        }
    }

    /// Stops accepting work, lets each worker finish its current session,
    /// and joins the pool. Queued sessions stay on disk and are picked up
    /// by the next daemon's [`Engine::recover`].
    pub fn shutdown(&self) {
        {
            let mut state = lock_state(&self.shared);
            state.stop = true;
            self.shared.wake.notify_all();
            self.shared.done.notify_all();
        }
        let handles: Vec<_> = {
            let mut workers = self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            workers.drain(..).collect()
        };
        for h in handles {
            // A worker that somehow panicked outside catch_unwind has
            // nothing left to clean up; joining is best-effort.
            if h.join().is_err() {}
        }
    }

    fn paths(&self, key: &SessionKey) -> SessionPaths {
        SessionPaths::new(&self.shared.cfg.root, &key.0, &key.1)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: pop, run, record, repeat. A stop request is honoured between
/// sessions — the one in flight always completes (and checkpoints, so even
/// a hard kill loses at most a step).
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (key, spec, threads) = {
            let mut state = lock_state(shared);
            loop {
                if let Some(key) = state.queue.pop_front() {
                    // Only sessions with a spec are ever queued.
                    let Some(entry) = state.sessions.get_mut(&key) else {
                        continue;
                    };
                    let Some(spec) = entry.spec.clone() else {
                        continue;
                    };
                    entry.state = SessionState::Running;
                    let busy = busy_workers(&state, shared.cfg.workers);
                    break (key, spec, session_threads(shared.hardware, busy));
                }
                if state.stop {
                    return;
                }
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_session(shared, &key, &spec, threads)
        }));
        let new_state = match outcome {
            Ok(Ok(())) => SessionState::Finished,
            Ok(Err(e)) => SessionState::Failed {
                message: e.to_string(),
            },
            Err(panic) => SessionState::Failed {
                message: format!("panic: {}", panic_message(&panic)),
            },
        };
        let mut state = lock_state(shared);
        if let Some(entry) = state.sessions.get_mut(&key) {
            entry.state = new_state;
            // Dropping the senders disconnects every subscriber's stream,
            // signalling end-of-events.
            entry.subscribers.clear();
        }
        shared.done.notify_all();
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Workers that are busy once the idle ones have taken what is queued: the
/// running sessions (the one just picked included) plus the queued ones, at
/// most `workers`.
fn busy_workers(state: &State, workers: usize) -> usize {
    let running = state
        .sessions
        .values()
        .filter(|e| matches!(e.state, SessionState::Running))
        .count();
    (running + state.queue.len()).min(workers)
}

/// The threads a session may use: its share of the host's `hardware`
/// threads among the `busy` workers when it starts, `max(1, hardware /
/// max(1, busy))`. A session that starts alone gets every core; with every
/// worker busy the sessions together stay within the cores, so no session's
/// parallel calls pay for thread spawns that only contend with the other
/// workers' sessions. The share is fixed for the session's run.
/// Result-transparent: any thread count yields a bit-identical run, and
/// `CmmfConfig::threads` is excluded from checkpoint fingerprints, so a
/// session resumes under a different share.
fn session_threads(hardware: usize, busy: usize) -> usize {
    (hardware / busy.max(1)).max(1)
}

/// Runs one session to completion: journal (recovered + appended),
/// checkpointed optimizer run (auto-resuming), result manifest.
fn run_session(
    shared: &Arc<Shared>,
    key: &SessionKey,
    spec: &JobSpec,
    threads: usize,
) -> Result<(), ServeError> {
    let paths = SessionPaths::new(&shared.cfg.root, &key.0, &key.1);
    // `append_recovered` truncates a torn final line (a kill mid-write)
    // before reopening the journal in append mode, so one file accumulates
    // the whole logical run across any number of kills.
    let (journal, _recovery) = JsonlTracer::append_recovered(&paths.journal())
        .map_err(|e| ServeError::storage(paths.journal(), e))?;
    let tracer = FanoutTracer {
        journal,
        shared: Arc::clone(shared),
        key: key.clone(),
    };
    let mut cfg = spec.to_config();
    cfg.threads = threads;
    cfg.tracer = TracerHandle::new(Arc::new(tracer));
    let (space, sim) = spec.build_problem()?;
    let result = Optimizer::new(cfg).run_with_checkpoints(&space, &sim, &paths.checkpoint())?;
    SessionResult::from_run(&result).save(&paths.result())
}

/// A tracer that journals every event to the session's `journal.jsonl` and
/// fans the event out to the session's live subscribers, which serialize
/// it into their own frames.
struct FanoutTracer {
    journal: JsonlTracer,
    shared: Arc<Shared>,
    key: SessionKey,
}

impl fmt::Debug for FanoutTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutTracer")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

impl Tracer for FanoutTracer {
    fn record(&self, event: &TraceEvent) {
        self.journal.record(event);
        let mut state = lock_state(&self.shared);
        if let Some(entry) = state.sessions.get_mut(&self.key) {
            if entry.subscribers.is_empty() {
                return;
            }
            entry.subscribers.retain(|s| s.send(event.clone()).is_ok());
        }
    }

    fn flush(&self) {
        self.journal.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::{busy_workers, session_threads, SessionEntry, State};
    use crate::job::{JobSpec, Problem};
    use crate::session::SessionState;
    use hls_model::benchmarks::Benchmark;

    #[test]
    fn each_busy_worker_gets_its_share_of_the_cores() {
        // (hardware threads, busy workers) -> threads per session.
        for (hardware, busy, share) in [(2, 2, 1), (8, 2, 4), (1, 4, 1), (6, 4, 1), (4, 0, 4)] {
            assert_eq!(
                session_threads(hardware, busy),
                share,
                "{hardware} threads, {busy} busy workers"
            );
        }
    }

    #[test]
    fn busy_workers_counts_running_and_queued_sessions_up_to_the_pool() {
        fn add(state: &mut State, name: &str, session_state: SessionState) {
            let key = ("t".to_string(), name.to_string());
            if session_state == SessionState::Queued {
                state.queue.push_back(key.clone());
            }
            let spec = JobSpec::new("t", name, Problem::Benchmark(Benchmark::Gemm));
            let entry = SessionEntry {
                spec: Some(spec),
                state: session_state,
                subscribers: Vec::new(),
            };
            state.sessions.insert(key, entry);
        }
        let mut state = State::default();
        add(&mut state, "done", SessionState::Finished);
        let failed = SessionState::Failed {
            message: "boom".into(),
        };
        add(&mut state, "broken", failed);
        add(&mut state, "lone", SessionState::Running);
        // A lone session on an otherwise idle pool: every core is its own.
        assert_eq!(busy_workers(&state, 2), 1);
        add(&mut state, "next", SessionState::Queued);
        add(&mut state, "later", SessionState::Queued);
        // The queue will occupy the idle workers, but no more than the pool.
        assert_eq!(busy_workers(&state, 2), 2);
        assert_eq!(busy_workers(&state, 8), 3);
    }
}
