//! CI smoke for the observability and resume layer: runs a quick BO
//! configuration with a JSONL journal attached, kills it (deterministically)
//! after four of six steps, resumes from the on-disk checkpoint, and verifies
//! that
//!
//! 1. the resumed run's `RunResult` is **bit-identical** to an uninterrupted
//!    run of the same configuration,
//! 2. every journal line parses as JSON and carries a known `event` kind, and
//! 3. the journal frames the run (`run_started` first, `run_finished` last),
//!    records the resume point, and holds one `run_completed` and one
//!    `checkpoint_written` per live step.
//!
//! Usage: `cargo run --release -p cmmf-bench --bin smoke_resume [--keep DIR]`
//! (`--keep DIR` writes the artifacts under DIR instead of a temp directory
//! and leaves them behind for inspection).
//!
//! Exits non-zero with a message on the first violated property.

use cmmf::{CmmfConfig, JsonlTracer, Optimizer, RunResult, TracerHandle};
use fidelity_sim::{FlowSimulator, SimParams};
use hls_model::benchmarks::{self, Benchmark};
use std::process::ExitCode;
use std::sync::Arc;
use trace::json;

/// The step the run is killed after. With `refit_every` 3 the resume
/// replays the fits from the step-3 hyperparameter search on, not from
/// step 0.
const KILL_AT: usize = 4;

fn quick_cfg() -> CmmfConfig {
    let mut cfg = CmmfConfig {
        n_iter: 6,
        candidate_pool: 40,
        mc_samples: 8,
        refit_every: 3,
        seed: 2024,
        ..Default::default()
    };
    cfg.gp.restarts = 0;
    cfg.gp.max_evals = 60;
    cfg
}

fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("FAILED: {what}"))
    }
}

fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.candidate_set == b.candidate_set
        && a.evaluated_configs == b.evaluated_configs
        && a.measured_pareto == b.measured_pareto
        && a.sim_seconds.to_bits() == b.sim_seconds.to_bits()
        && a.hv_history == b.hv_history
}

fn run(dir: &std::path::Path) -> Result<(), String> {
    let b = Benchmark::SpmvCrs;
    let space = benchmarks::build(b)
        .map_err(|e| e.to_string())?
        .pruned_space()
        .map_err(|e| e.to_string())?;
    let sim = FlowSimulator::new(SimParams::for_benchmark(b));

    // Reference: one uninterrupted, untraced run.
    let reference = Optimizer::new(quick_cfg())
        .run(&space, &sim)
        .map_err(|e| e.to_string())?;

    // "Crash": run KILL_AT of the 6 steps and leave only the checkpoint
    // behind.
    let ckpt_path = dir.join("smoke.ckpt.json");
    Optimizer::new(quick_cfg())
        .run_until(&space, &sim, KILL_AT)
        .map_err(|e| e.to_string())?
        .save(&ckpt_path)
        .map_err(|e| e.to_string())?;

    // Recovery: re-run the same command with a journal attached.
    let journal_path = dir.join("smoke.journal.jsonl");
    let mut cfg = quick_cfg();
    cfg.tracer = TracerHandle::new(Arc::new(
        JsonlTracer::create(&journal_path).map_err(|e| e.to_string())?,
    ));
    let resumed = Optimizer::new(cfg)
        .run_with_checkpoints(&space, &sim, &ckpt_path)
        .map_err(|e| e.to_string())?;
    check(
        same_result(&reference, &resumed),
        &format!("kill-at-step-{KILL_AT} + resume is bit-identical to the uninterrupted run"),
    )?;

    // The final checkpoint on disk covers the whole run and reparses.
    let last = cmmf::RunCheckpoint::load(&ckpt_path).map_err(|e| e.to_string())?;
    check(
        last.completed_steps == quick_cfg().n_iter,
        "final checkpoint records all steps",
    )?;

    // The journal is valid JSONL with known event kinds, framed by the
    // lifecycle events, and records where the run resumed.
    let text = std::fs::read_to_string(&journal_path).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    check(!lines.is_empty(), "journal is non-empty")?;
    const KINDS: [&str; 11] = [
        "run_started",
        "step_started",
        "model_fit",
        "acquisition_scored",
        "tool_run",
        "run_dispatched",
        "run_completed",
        "front_updated",
        "checkpoint_written",
        "run_finished",
        "repeat_finished",
    ];
    let mut kinds = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let doc = json::parse(line).map_err(|e| format!("journal line {}: {e}", i + 1))?;
        let kind = doc
            .get("event")
            .and_then(|v| v.as_str().map(str::to_owned))
            .ok_or_else(|| format!("journal line {} has no event field", i + 1))?;
        check(
            KINDS.contains(&kind.as_str()),
            &format!("journal line {} kind `{kind}` is known", i + 1),
        )?;
        kinds.push(kind);
    }
    check(
        kinds.first().map(String::as_str) == Some("run_started"),
        "journal starts with run_started",
    )?;
    check(
        kinds.last().map(String::as_str) == Some("run_finished"),
        "journal ends with run_finished",
    )?;
    let started = json::parse(lines[0]).map_err(|e| e.to_string())?;
    check(
        started.get("resumed_at").and_then(|v| v.as_u64()) == Some(KILL_AT as u64),
        &format!("run_started records resumed_at = {KILL_AT}"),
    )?;
    // The replayed runs already happened, so only the live steps journal
    // their completions and checkpoints.
    let live_steps = quick_cfg().n_iter - KILL_AT;
    for kind in ["run_completed", "checkpoint_written"] {
        check(
            kinds.iter().filter(|k| *k == kind).count() == live_steps,
            &format!("one {kind} per live step ({live_steps} after resuming at {KILL_AT})"),
        )?;
    }

    println!(
        "smoke_resume OK: {} journal events, resumed at step {KILL_AT}/{}, bit-identical result",
        lines.len(),
        quick_cfg().n_iter
    );
    Ok(())
}

fn main() -> ExitCode {
    let (dir, keep) = match cmmf_bench::harness_args(&["--keep"]).keep {
        Some(dir) => (dir, true),
        None => (
            std::env::temp_dir().join(format!("cmmf-smoke-resume-{}", std::process::id())),
            false,
        ),
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let outcome = run(&dir);
    if !keep {
        let _ = std::fs::remove_dir_all(&dir);
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
