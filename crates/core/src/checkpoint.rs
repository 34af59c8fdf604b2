//! Versioned JSON checkpoints for the Algorithm-2 loop.
//!
//! A checkpoint records the *decisions* of a run — the initialization draw,
//! every dispatch decision's picks, the interleaved dispatch/completion
//! event log, the candidate-ordering state, and the RNG stream position —
//! not the derived state (observations, surrogates). Because the flow
//! simulator and the GP fits are deterministic, [`Optimizer::resume`]
//! replays those decisions to reconstruct the observation sets, the
//! surrogate stack, the virtual clock and the runs in flight bit-for-bit,
//! then continues the loop as if it had never stopped; the resumed
//! [`RunResult`] is bit-identical to an uninterrupted run (pinned by
//! `resume_is_bit_identical`).
//!
//! Floating-point state is stored as `u64` bit patterns (`_bits` fields), so
//! the round-trip is exact; the JSON layer keeps raw number tokens precisely
//! so these survive (see [`trace::json`]). The `fingerprint` field pins every
//! result-relevant configuration field — resuming under a different
//! configuration is an error, not a silent divergence. `threads` and `tracer`
//! are excluded: neither can change a result (see ARCHITECTURE.md,
//! "Determinism & parallelism").
//!
//! [`Optimizer::resume`]: crate::Optimizer::resume
//! [`RunResult`]: crate::RunResult

use crate::optimizer::{CandidateChoice, CmmfConfig};
use crate::CmmfError;
use std::path::Path;
use trace::json::{self, JsonValue, JsonWriter};

/// Current checkpoint schema version. Bumped on any incompatible change;
/// loading a different version is a [`CmmfError::Checkpoint`] naming both.
/// Version 3 has one layout for every run: per-decision `picks`, the
/// `schedule` log and the `in_flight` set. Version 2 kept a sequential and an
/// asynchronous layout apart (`is_async`, `dispatches`) and fingerprinted
/// the since-removed `batch_parallel_tools`, so it has no upgrade path.
pub const CHECKPOINT_VERSION: u64 = 3;

/// One recorded pick of a dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PickRecord {
    /// Chosen configuration index.
    pub config: usize,
    /// Chosen fidelity as [`fidelity_sim::Stage::index`].
    pub stage_index: usize,
    /// The winning (penalized) acquisition value, as `f64` bits.
    pub acquisition_bits: u64,
}

impl PickRecord {
    /// The record of one pick.
    pub(crate) fn of(choice: &CandidateChoice) -> Self {
        PickRecord {
            config: choice.config,
            stage_index: choice.stage.index(),
            acquisition_bits: choice.acquisition.to_bits(),
        }
    }
}

/// One event of a run's BO phase, in virtual-clock order. The event log is
/// what makes a mid-overlap kill resumable: replaying it interleaves the
/// recorded dispatch decisions and completions exactly as the interrupted
/// run did, reconstructing the surrogate-fit chain and the virtual clock
/// bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleEvent {
    /// The `i`-th entry of `picks` (one decision's group) was dispatched.
    Dispatch(usize),
    /// The `i`-th group finished its simulated flows and was observed.
    Complete(usize),
    /// The candidate pool was found empty at a dispatch attempt (the loop
    /// stops dispatching but keeps draining in-flight runs). Records the
    /// surrogate fit the attempt performed.
    Exhausted,
}

impl ScheduleEvent {
    /// The `[kind, index]` encoding used by the JSON schema.
    fn encode(self) -> [u64; 2] {
        match self {
            ScheduleEvent::Dispatch(i) => [0, i as u64],
            ScheduleEvent::Complete(i) => [1, i as u64],
            ScheduleEvent::Exhausted => [2, 0],
        }
    }

    fn decode(kind: u64, index: u64) -> Option<Self> {
        // `index` comes from untrusted on-disk JSON: a value past the
        // platform's usize range is corruption, not a valid event.
        match kind {
            0 => Some(ScheduleEvent::Dispatch(usize::try_from(index).ok()?)),
            1 => Some(ScheduleEvent::Complete(usize::try_from(index).ok()?)),
            2 => Some(ScheduleEvent::Exhausted),
            _ => None,
        }
    }
}

/// A serializable snapshot of the loop after `completed_steps` steps.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Fingerprint of every result-relevant [`CmmfConfig`] field.
    pub fingerprint: String,
    /// Optimization steps completed: groups dispatched and observed.
    pub completed_steps: usize,
    /// The initialization draw, in observation order (rank decides each
    /// configuration's top stage).
    pub init: Vec<usize>,
    /// Per dispatch decision, its picks in pick order — completed groups and
    /// groups still in flight alike.
    pub picks: Vec<Vec<PickRecord>>,
    /// The interleaved dispatch/completion event log of the BO phase
    /// (initialization runs replay implicitly from `init`).
    pub schedule: Vec<ScheduleEvent>,
    /// The in-flight set — groups dispatched but not complete at the
    /// snapshot, as `[decision index, finish-time f64 bits]` in dispatch
    /// order. Redundant with a `schedule` replay; stored so resume can verify
    /// the replayed schedule against the recorded one (a mismatched simulator
    /// or space fails loudly instead of diverging).
    pub in_flight: Vec<[u64; 2]>,
    /// The not-yet-sampled configuration indices, in the exact (shuffled)
    /// order the interrupted run held them.
    pub unsampled: Vec<usize>,
    /// The master RNG's xoshiro256++ state at the end of the last step.
    pub rng_state: [u64; 4],
    /// The virtual-clock reading (simulated tool seconds) as `f64` bits.
    pub sim_seconds_bits: u64,
    /// Per completed step, the observed-front hypervolume per fidelity, as
    /// `f64` bits.
    pub hv_history_bits: Vec<[u64; 3]>,
}

impl RunCheckpoint {
    /// The configuration fingerprint a checkpoint of `cfg` carries: every
    /// field that can influence the result, formatted deterministically
    /// (floats as bit patterns). `threads` and `tracer` are deliberately
    /// absent — both are result-transparent.
    ///
    /// The text is the one version 3 has always written. Four settings it
    /// names are now constants — the cost-penalty switch (on) and the
    /// search's `optimize` (on), initial noise (0.01) and noise floor
    /// (1e-8) — and are spelled at those values, so checkpoints stored
    /// before they became constants still resume.
    pub fn fingerprint_of(cfg: &CmmfConfig) -> String {
        format!(
            "v{CHECKPOINT_VERSION};n_init={};n_init_syn={};n_init_impl={};n_iter={};\
             variant={:?};use_cost_penalty=true;cost_exponent={:#x};candidate_pool={};\
             mc_samples={};batch_size={};final_prediction_pool={};\
             escalate_threshold={:#x};refit_every={};async_slots={};\
             gp=GpConfig {{ optimize: true, restarts: {}, max_evals: {}, \
             init_noise_var: 0.01, noise_floor: 1e-8, seed: {} }};seed={}",
            cfg.n_init,
            cfg.n_init_syn,
            cfg.n_init_impl,
            cfg.n_iter,
            cfg.variant,
            cfg.cost_exponent.to_bits(),
            cfg.candidate_pool,
            cfg.mc_samples,
            cfg.batch_size,
            cfg.final_prediction_pool,
            cfg.escalate_threshold.to_bits(),
            cfg.refit_every,
            cfg.async_slots,
            cfg.gp.restarts,
            cfg.gp.max_evals,
            cfg.gp.seed,
            cfg.seed,
        )
    }

    /// Serializes the checkpoint as one compact JSON document (no trailing
    /// newline). [`Self::from_json`] accepts any whitespace, so files
    /// written in the older indented layout still load.
    pub fn to_json(&self) -> String {
        // Room for every number at its usual width, so the buffer is
        // allocated once.
        let picks: usize = self.picks.iter().map(Vec::len).sum();
        let mut w = JsonWriter::with_capacity(
            256 + self.fingerprint.len()
                + 8 * (self.init.len() + self.unsampled.len() + self.schedule.len())
                + 32 * (picks + self.in_flight.len())
                + 64 * self.hv_history_bits.len(),
        );
        w.begin_object();
        w.key("version").u64(self.version);
        w.key("fingerprint").str(&self.fingerprint);
        w.key("completed_steps").usize(self.completed_steps);
        w.key("init").usizes(&self.init);
        w.key("picks").begin_array();
        for group in &self.picks {
            w.begin_array();
            for p in group {
                w.begin_array()
                    .usize(p.config)
                    .usize(p.stage_index)
                    .u64(p.acquisition_bits)
                    .end_array();
            }
            w.end_array();
        }
        w.end_array();
        w.key("schedule").begin_array();
        for event in &self.schedule {
            w.u64s(&event.encode());
        }
        w.end_array();
        w.key("in_flight").begin_array();
        for run in &self.in_flight {
            w.u64s(run);
        }
        w.end_array();
        w.key("unsampled").usizes(&self.unsampled);
        w.key("rng_state").u64s(&self.rng_state);
        w.key("sim_seconds_bits").u64(self.sim_seconds_bits);
        w.key("hv_history_bits").begin_array();
        for hv in &self.hv_history_bits {
            w.u64s(hv);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses a checkpoint from its JSON document.
    ///
    /// # Errors
    ///
    /// [`CmmfError::Checkpoint`] on malformed JSON, missing fields, an
    /// inconsistent event log, or a version other than
    /// [`CHECKPOINT_VERSION`].
    pub fn from_json(text: &str) -> Result<Self, CmmfError> {
        let doc = json::parse(text).map_err(|e| CmmfError::Checkpoint {
            reason: format!("malformed checkpoint: {e}"),
        })?;
        let version = req_u64(&doc, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "checkpoint version {version} is not the supported {CHECKPOINT_VERSION}"
                ),
            });
        }
        let fingerprint = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| missing("fingerprint"))?
            .to_string();
        let completed_steps = usize::try_from(req_u64(&doc, "completed_steps")?)
            .map_err(|_| malformed("completed_steps"))?;
        let init = usizes(&doc, "init")?;
        let unsampled = usizes(&doc, "unsampled")?;
        let picks_raw = doc
            .get("picks")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| missing("picks"))?;
        let mut picks = Vec::with_capacity(picks_raw.len());
        for step in picks_raw {
            let step = step.as_array().ok_or_else(|| malformed("picks"))?;
            let mut recs = Vec::with_capacity(step.len());
            for p in step {
                recs.push(pick_record(p, "picks")?);
            }
            picks.push(recs);
        }
        let schedule: Vec<ScheduleEvent> = pairs(&doc, "schedule")?
            .into_iter()
            .map(|[kind, index]| {
                ScheduleEvent::decode(kind, index).ok_or_else(|| malformed("schedule"))
            })
            .collect::<Result<_, _>>()?;
        let in_flight = pairs(&doc, "in_flight")?;
        let rng_raw = doc
            .get("rng_state")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| missing("rng_state"))?;
        if rng_raw.len() != 4 {
            return Err(malformed("rng_state"));
        }
        let mut rng_state = [0u64; 4];
        for (d, v) in rng_state.iter_mut().zip(rng_raw) {
            *d = v.as_u64().ok_or_else(|| malformed("rng_state"))?;
        }
        let sim_seconds_bits = req_u64(&doc, "sim_seconds_bits")?;
        let hv_raw = doc
            .get("hv_history_bits")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| missing("hv_history_bits"))?;
        let mut hv_history_bits = Vec::with_capacity(hv_raw.len());
        for row in hv_raw {
            let row = row.as_array().ok_or_else(|| malformed("hv_history_bits"))?;
            if row.len() != 3 {
                return Err(malformed("hv_history_bits"));
            }
            let mut hv = [0u64; 3];
            for (d, v) in hv.iter_mut().zip(row) {
                *d = v.as_u64().ok_or_else(|| malformed("hv_history_bits"))?;
            }
            hv_history_bits.push(hv);
        }
        if hv_history_bits.len() != completed_steps {
            return Err(CmmfError::Checkpoint {
                reason: format!(
                    "inconsistent checkpoint: {} steps but {} hv rows",
                    completed_steps,
                    hv_history_bits.len()
                ),
            });
        }
        let ckpt = RunCheckpoint {
            version,
            fingerprint,
            completed_steps,
            init,
            picks,
            schedule,
            in_flight,
            unsampled,
            rng_state,
            sim_seconds_bits,
            hv_history_bits,
        };
        ckpt.check_schedule()?;
        Ok(ckpt)
    }

    /// Structural validation of the event log against `picks` and
    /// `completed_steps`: decisions are dispatched once each, in order;
    /// completions follow their dispatches and number `completed_steps`;
    /// nothing is dispatched after pool exhaustion.
    ///
    /// # Errors
    ///
    /// [`CmmfError::Checkpoint`] naming the first violation.
    pub(crate) fn check_schedule(&self) -> Result<(), CmmfError> {
        let nd = self.picks.len();
        let mut next_dispatch = 0usize;
        let mut done = vec![false; nd];
        let mut n_complete = 0usize;
        let mut exhausted = false;
        let malformed = |reason: &str| CmmfError::Checkpoint {
            reason: format!("malformed schedule: {reason}"),
        };
        for event in &self.schedule {
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
        if next_dispatch != nd || n_complete != self.completed_steps {
            return Err(malformed(
                "event counts disagree with the picks and completed_steps",
            ));
        }
        Ok(())
    }

    /// Writes the checkpoint to `path` atomically with [`trace::write_atomic`]
    /// (temp file + rename), so a kill mid-write leaves the previous
    /// checkpoint intact. Returns the number of bytes written (reported by
    /// `checkpoint_written` journal events).
    ///
    /// # Errors
    ///
    /// [`CmmfError::Checkpoint`] wrapping the I/O failure.
    pub fn save(&self, path: &Path) -> Result<usize, CmmfError> {
        let mut text = self.to_json();
        text.push('\n');
        trace::write_atomic(path, &text).map_err(|e| CmmfError::Checkpoint {
            reason: format!("writing {}: {e}", path.display()),
        })?;
        Ok(text.len())
    }

    /// Reads and parses a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CmmfError::Checkpoint`] on I/O failure or any [`Self::from_json`]
    /// error.
    pub fn load(path: &Path) -> Result<Self, CmmfError> {
        let text = std::fs::read_to_string(path).map_err(|e| CmmfError::Checkpoint {
            reason: format!("reading {}: {e}", path.display()),
        })?;
        Self::from_json(&text)
    }
}

fn missing(field: &str) -> CmmfError {
    CmmfError::Checkpoint {
        reason: format!("checkpoint is missing field `{field}`"),
    }
}

fn malformed(field: &str) -> CmmfError {
    CmmfError::Checkpoint {
        reason: format!("checkpoint field `{field}` is malformed"),
    }
}

fn pick_record(v: &JsonValue, field: &str) -> Result<PickRecord, CmmfError> {
    let triple = v.as_array().ok_or_else(|| malformed(field))?;
    if triple.len() != 3 {
        return Err(malformed(field));
    }
    Ok(PickRecord {
        config: triple[0].as_usize().ok_or_else(|| malformed(field))?,
        stage_index: triple[1].as_usize().ok_or_else(|| malformed(field))?,
        acquisition_bits: triple[2].as_u64().ok_or_else(|| malformed(field))?,
    })
}

fn pairs(doc: &JsonValue, field: &str) -> Result<Vec<[u64; 2]>, CmmfError> {
    doc.get(field)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| missing(field))?
        .iter()
        .map(|v| {
            let pair = v.as_array().ok_or_else(|| malformed(field))?;
            if pair.len() != 2 {
                return Err(malformed(field));
            }
            Ok([
                pair[0].as_u64().ok_or_else(|| malformed(field))?,
                pair[1].as_u64().ok_or_else(|| malformed(field))?,
            ])
        })
        .collect()
}

fn req_u64(doc: &JsonValue, field: &str) -> Result<u64, CmmfError> {
    doc.get(field)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| missing(field))
}

fn usizes(doc: &JsonValue, field: &str) -> Result<Vec<usize>, CmmfError> {
    doc.get(field)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| missing(field))?
        .iter()
        .map(|v| v.as_usize().ok_or_else(|| malformed(field)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(config: usize, stage_index: usize, acquisition: f64) -> PickRecord {
        PickRecord {
            config,
            stage_index,
            acquisition_bits: acquisition.to_bits(),
        }
    }

    /// A mid-overlap snapshot: two groups dispatched and completed (one of
    /// two picks), one still in flight, and a pool-exhaustion event.
    fn sample() -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: RunCheckpoint::fingerprint_of(&CmmfConfig::default()),
            completed_steps: 2,
            init: vec![5, 9, 1, 0, 12, 3, 7, 2],
            picks: vec![
                vec![pick(42, 1, 0.125)],
                vec![pick(17, 0, f64::MAX), pick(18, 2, 0.0)],
                vec![pick(19, 2, -0.0)],
            ],
            schedule: vec![
                ScheduleEvent::Dispatch(0),
                ScheduleEvent::Dispatch(1),
                ScheduleEvent::Complete(1),
                ScheduleEvent::Dispatch(2),
                ScheduleEvent::Exhausted,
                ScheduleEvent::Complete(0),
            ],
            in_flight: vec![[2, 3100.25f64.to_bits()]],
            unsampled: vec![11, 4, 6, 8, 10],
            rng_state: [u64::MAX, 1, 0x9E37_79B9_7F4A_7C15, 7],
            sim_seconds_bits: 1234.5f64.to_bits(),
            hv_history_bits: vec![
                [1.0f64.to_bits(), 2.0f64.to_bits(), 3.0f64.to_bits()],
                [1.5f64.to_bits(), 2.5f64.to_bits(), 3.5f64.to_bits()],
            ],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let ckpt = sample();
        let parsed = RunCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(ckpt, parsed);
    }

    #[test]
    fn fingerprint_keeps_its_v3_text_for_a_zero_cost_exponent() {
        // Recorded before the cost-penalty switch and three search settings
        // became constants, when the configuration was printed through
        // `{:?}`: a configuration that still exists fingerprints to the same
        // text, so its stored checkpoints still resume.
        let mut cfg = CmmfConfig {
            cost_exponent: 0.0,
            ..Default::default()
        };
        cfg.gp.restarts = 4;
        cfg.gp.max_evals = 123;
        assert_eq!(
            RunCheckpoint::fingerprint_of(&cfg),
            "v3;n_init=8;n_init_syn=5;n_init_impl=3;n_iter=40;variant=ModelVariant { correlated_objectives: true, nonlinear_fidelity: true };use_cost_penalty=true;cost_exponent=0x0;candidate_pool=200;mc_samples=24;batch_size=1;final_prediction_pool=4000;escalate_threshold=0x3fa999999999999a;refit_every=5;async_slots=0;gp=GpConfig { optimize: true, restarts: 4, max_evals: 123, init_noise_var: 0.01, noise_floor: 1e-8, seed: 12648430 };seed=2021"
        );
    }

    #[test]
    fn checkpoints_in_the_old_indented_layout_still_load() {
        // `sample().to_json()` as written before checkpoints took the compact
        // layout, byte for byte: the same document, only with whitespace.
        let old = r#"{
  "version": 3,
  "fingerprint": "v3;n_init=8;n_init_syn=5;n_init_impl=3;n_iter=40;variant=ModelVariant { correlated_objectives: true, nonlinear_fidelity: true };use_cost_penalty=true;cost_exponent=0x3fd3333333333333;candidate_pool=200;mc_samples=24;batch_size=1;final_prediction_pool=4000;escalate_threshold=0x3fa999999999999a;refit_every=5;async_slots=0;gp=GpConfig { optimize: true, restarts: 2, max_evals: 450, init_noise_var: 0.01, noise_floor: 1e-8, seed: 12648430 };seed=2021",
  "completed_steps": 2,
  "init": [5,9,1,0,12,3,7,2],
  "picks": [[[42,1,4593671619917905920]],[[17,0,9218868437227405311],[18,2,0]],[[19,2,9223372036854775808]]],
  "schedule": [[0,0],[0,1],[1,1],[0,2],[2,0],[1,0]],
  "in_flight": [[2,4659035936921747456]],
  "unsampled": [11,4,6,8,10],
  "rng_state": [18446744073709551615,1,11400714819323198485,7],
  "sim_seconds_bits": 4653144203864309760,
  "hv_history_bits": [[4607182418800017408,4611686018427387904,4613937818241073152],[4609434218613702656,4612811918334230528,4615063718147915776]]
}
"#;
        let new = sample().to_json();
        assert_ne!(old, new);
        assert_eq!(json::parse(old).unwrap(), json::parse(&new).unwrap());
        assert_eq!(RunCheckpoint::from_json(old).unwrap(), sample());
        // Indentation, line breaks and the space after each colon; `save`
        // still ends the file with a newline.
        assert_eq!(old.len() - new.len(), 46);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // Version 2 kept two layouts apart, so its files load as a typed
        // error naming both versions, not as a conversion.
        for version in [2, CHECKPOINT_VERSION + 1] {
            let mut ckpt = sample();
            ckpt.version = version;
            match RunCheckpoint::from_json(&ckpt.to_json()) {
                Err(CmmfError::Checkpoint { reason }) => assert!(
                    reason.contains(&format!("version {version}"))
                        && reason.contains(&format!("supported {CHECKPOINT_VERSION}")),
                    "{reason}"
                ),
                other => panic!("version {version}: expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in ["", "{", "{}", "[1,2,3]", r#"{"version": 1}"#] {
            assert!(
                matches!(
                    RunCheckpoint::from_json(text),
                    Err(CmmfError::Checkpoint { .. })
                ),
                "accepted {text:?}"
            );
        }
        // The event log must agree with the picks and the completed steps.
        let mut dispatch_without_picks = sample();
        dispatch_without_picks.picks.pop();
        let mut completions_disagree = sample();
        completions_disagree.schedule.pop();
        let mut complete_before_dispatch = sample();
        complete_before_dispatch.schedule.swap(1, 2);
        let mut dispatch_after_exhaustion = sample();
        dispatch_after_exhaustion.schedule.swap(3, 4);
        for (label, ckpt) in [
            ("dispatch without picks", dispatch_without_picks),
            ("completions disagree", completions_disagree),
            ("complete before dispatch", complete_before_dispatch),
            ("dispatch after exhaustion", dispatch_after_exhaustion),
        ] {
            assert!(
                matches!(
                    RunCheckpoint::from_json(&ckpt.to_json()),
                    Err(CmmfError::Checkpoint { .. })
                ),
                "{label}"
            );
        }
    }

    #[test]
    fn fingerprint_pins_result_relevant_fields_only() {
        let base = CmmfConfig::default();
        let fp = RunCheckpoint::fingerprint_of(&base);
        // threads and tracer are result-transparent: same fingerprint.
        let mut threaded = base.clone();
        threaded.threads = 7;
        assert_eq!(fp, RunCheckpoint::fingerprint_of(&threaded));
        // Anything that steers the run changes it.
        let mut other = base.clone();
        other.seed += 1;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
        let mut other = base.clone();
        other.mc_samples += 1;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
        // The slot count and the batch size steer the schedule.
        let mut other = base.clone();
        other.async_slots = 7;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
        let mut other = base.clone();
        other.batch_size = 3;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
        let mut other = base;
        other.gp.seed ^= 1;
        assert_ne!(fp, RunCheckpoint::fingerprint_of(&other));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("cmmf-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        assert_eq!(RunCheckpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_and_corrupt_files_load_as_typed_errors() {
        let dir = std::env::temp_dir().join(format!("cmmf-ckpt-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = sample().to_json();

        // Every strict prefix of a valid checkpoint — the on-disk states a
        // kill mid-write could leave without the atomic rename — must come
        // back as a typed error, never a panic. (save() writes temp+rename,
        // so these arise only from foreign writers, but load must not trust.)
        // Prefixes keeping the closing `}` (only trailing whitespace cut) are
        // complete documents, so stop before it.
        for cut in 0..full.trim_end().len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let path = dir.join("truncated.json");
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(
                    RunCheckpoint::load(&path),
                    Err(CmmfError::Checkpoint { .. })
                ),
                "accepted truncation at byte {cut}"
            );
        }

        // Overwritten garbage and binary junk are equally typed.
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"\x00\xff\xfeRIFF not json at all").unwrap();
        assert!(matches!(
            RunCheckpoint::load(&path),
            Err(CmmfError::Checkpoint { .. })
        ));

        // A missing file is a typed error too (callers gate resume on
        // path.exists(), but a racing delete must not panic).
        assert!(matches!(
            RunCheckpoint::load(&dir.join("nope.json")),
            Err(CmmfError::Checkpoint { .. })
        ));

        // Out-of-range indices in the schedule section are corruption, not
        // panics: past u64 the number fails to parse as an index, and past
        // usize (32-bit targets) ScheduleEvent::decode refuses the cast.
        let big = full.replace(
            "\"schedule\":[[0,0]",
            "\"schedule\":[[0,99999999999999999999]",
        );
        assert_ne!(big, full, "sample schedule shape changed");
        assert!(matches!(
            RunCheckpoint::from_json(&big),
            Err(CmmfError::Checkpoint { .. })
        ));

        std::fs::remove_dir_all(&dir).ok();
    }
}
