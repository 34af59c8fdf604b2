//! Session persistence: the per-tenant directory layout and the result
//! manifest.
//!
//! Every session lives at `<root>/<tenant>/<session>/` and owns four files:
//!
//! | file              | written by          | contents                              |
//! |-------------------|---------------------|---------------------------------------|
//! | `job.json`        | submit (atomic)     | the [`JobSpec`], exact round trip     |
//! | `checkpoint.json` | every BO step       | `cmmf::RunCheckpoint` (atomic)        |
//! | `journal.jsonl`   | the whole run       | one `TraceEvent` per line, append     |
//! | `result.json`     | completion (atomic) | the [`SessionResult`] manifest        |
//!
//! `job.json` without `result.json` marks a session as *unfinished*: daemon
//! recovery re-enqueues exactly those, and `run_with_checkpoints` resumes
//! them from `checkpoint.json` bit-identically. All one-shot files are
//! written with `trace::write_atomic` (temp file, then rename), so a kill
//! can only ever leave the previous complete version (the journal instead
//! recovers its torn tail on resume, see `trace::recover_journal`). Every
//! file is one compact JSON document per line, written by
//! `trace::json::JsonWriter`.

use crate::error::ServeError;
use crate::job::JobSpec;
use cmmf::RunResult;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use trace::json::{self, JsonValue, JsonWriter};

/// The file layout of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPaths {
    /// `<root>/<tenant>/<session>/`.
    pub dir: PathBuf,
}

impl SessionPaths {
    /// The layout for `tenant`/`session` under `root`. Callers must have
    /// validated the names (see [`crate::job::validate_name`]).
    pub fn new(root: &Path, tenant: &str, session: &str) -> Self {
        SessionPaths {
            dir: root.join(tenant).join(session),
        }
    }

    /// `job.json` — the submitted spec.
    pub fn job(&self) -> PathBuf {
        self.dir.join("job.json")
    }

    /// `checkpoint.json` — the resumable optimizer state.
    pub fn checkpoint(&self) -> PathBuf {
        self.dir.join("checkpoint.json")
    }

    /// `journal.jsonl` — the append-only event journal.
    pub fn journal(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// `result.json` — the completion manifest.
    pub fn result(&self) -> PathBuf {
        self.dir.join("result.json")
    }
}

/// A session's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is driving the run.
    Running,
    /// Completed; `result.json` holds the manifest.
    Finished,
    /// The run errored or panicked; the message says why. The session's
    /// `job.json` remains, so a daemon restart retries it.
    Failed {
        /// What went wrong.
        message: String,
    },
}

impl SessionState {
    /// Protocol name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Finished => "finished",
            SessionState::Failed { .. } => "failed",
        }
    }
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionState::Failed { message } => write!(f, "failed: {message}"),
            other => f.write_str(other.name()),
        }
    }
}

/// The completion manifest: the run's result reduced to the bit-exact facts
/// the determinism contract is pinned on. Objective values are stored as
/// IEEE-754 bit patterns, so "the resumed run equals the uninterrupted run"
/// is `==` on this struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionResult {
    /// Number of configurations the run evaluated.
    pub evaluated: usize,
    /// `RunResult::sim_seconds` as bits.
    pub sim_seconds_bits: u64,
    /// `RunResult::measured_pareto`, each objective vector as bits.
    pub pareto_bits: Vec<[u64; 3]>,
}

impl SessionResult {
    /// Reduces a finished [`RunResult`] to its manifest.
    pub fn from_run(result: &RunResult) -> Self {
        SessionResult {
            evaluated: result.evaluated_configs.len(),
            sim_seconds_bits: result.sim_seconds.to_bits(),
            pareto_bits: result
                .measured_pareto
                .iter()
                .map(|p| [p[0].to_bits(), p[1].to_bits(), p[2].to_bits()])
                .collect(),
        }
    }

    /// Serializes to one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(64 + 64 * self.pareto_bits.len());
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the [`SessionResult::to_json`] object into `w`, so a caller can
    /// embed the manifest in a larger document (the `finished` frame).
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("evaluated").usize(self.evaluated);
        w.key("sim_seconds_bits").u64(self.sim_seconds_bits);
        w.key("pareto_bits").begin_array();
        for p in &self.pareto_bits {
            w.u64s(p);
        }
        w.end_array();
        w.end_object();
    }

    /// Parses a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on unparsable or ill-shaped input.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        let doc = json::parse(text)
            .map_err(|e| ServeError::protocol(format!("result is not JSON: {e}")))?;
        Self::from_json(&doc)
    }

    /// Parses a manifest from a JSON object (e.g. a protocol frame field).
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on missing or ill-typed fields.
    pub fn from_json(doc: &JsonValue) -> Result<Self, ServeError> {
        let missing = |key: &str| ServeError::protocol(format!("result field `{key}` missing"));
        let evaluated = doc
            .get("evaluated")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| missing("evaluated"))?;
        let sim_seconds_bits = doc
            .get("sim_seconds_bits")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| missing("sim_seconds_bits"))?;
        let rows = doc
            .get("pareto_bits")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| missing("pareto_bits"))?;
        let mut pareto_bits = Vec::with_capacity(rows.len());
        for row in rows {
            let row = row
                .as_array()
                .ok_or_else(|| ServeError::protocol("pareto row is not an array"))?;
            match row {
                [a, b, c] => {
                    let bit = |v: &JsonValue| {
                        v.as_u64()
                            .ok_or_else(|| ServeError::protocol("pareto bits must be u64"))
                    };
                    pareto_bits.push([bit(a)?, bit(b)?, bit(c)?]);
                }
                _ => return Err(ServeError::protocol("pareto row must have 3 entries")),
            }
        }
        Ok(SessionResult {
            evaluated,
            sim_seconds_bits,
            pareto_bits,
        })
    }

    /// Writes the manifest to `path` atomically.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`].
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        save_line(path, self.to_json())
    }

    /// Loads a manifest from `path`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`] if the file cannot be read,
    /// [`ServeError::Protocol`] if it does not parse.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let text = fs::read_to_string(path).map_err(|e| ServeError::storage(path, e))?;
        Self::parse(&text)
    }
}

/// Persists a submitted job spec into its session directory (creating it).
///
/// # Errors
///
/// [`ServeError::Storage`].
pub fn persist_job(paths: &SessionPaths, spec: &JobSpec) -> Result<(), ServeError> {
    fs::create_dir_all(&paths.dir).map_err(|e| ServeError::storage(&paths.dir, e))?;
    save_line(&paths.job(), spec.to_json())
}

/// Writes one JSON document plus a newline to `path` with
/// [`trace::write_atomic`].
fn save_line(path: &Path, mut json: String) -> Result<(), ServeError> {
    json.push('\n');
    trace::write_atomic(path, &json).map_err(|e| ServeError::storage(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_manifest_round_trips() {
        let r = SessionResult {
            evaluated: 17,
            sim_seconds_bits: 4_638_387_860_618_067_968,
            pareto_bits: vec![[1, 2, 3], [u64::MAX, 0, 42]],
        };
        assert_eq!(SessionResult::parse(&r.to_json()).unwrap(), r);
        // The manifest as written before result files took the compact
        // layout, byte for byte: it still loads as the same result.
        let old = r#"{"evaluated": 17, "sim_seconds_bits": 4638387860618067968, "pareto_bits": [[1, 2, 3], [18446744073709551615, 0, 42]]}"#;
        assert_ne!(old, r.to_json());
        assert_eq!(SessionResult::parse(old).unwrap(), r);
        assert_eq!(
            r.to_json(),
            r#"{"evaluated":17,"sim_seconds_bits":4638387860618067968,"pareto_bits":[[1,2,3],[18446744073709551615,0,42]]}"#
        );
    }
}
