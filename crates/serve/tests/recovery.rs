//! Crash-recovery contract tests: a session interrupted at *any* point —
//! after any number of optimizer steps, with a torn journal tail — and
//! recovered by a fresh engine produces a result manifest bit-identical to
//! the uninterrupted run's. Plus the admission-control and typed-error
//! surface of the engine.

use cmmf::checkpoint::CHECKPOINT_VERSION;
use cmmf::Optimizer;
use cmmf_serve::engine::{Engine, EngineConfig};
use cmmf_serve::job::{JobSpec, Overrides, Problem};
use cmmf_serve::session::{persist_job, SessionPaths, SessionResult};
use cmmf_serve::ServeError;
use hls_model::benchmarks::Benchmark;
use proptest::prelude::*;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch root per test case.
fn scratch_root(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cmmf-serve-recovery-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// A small but non-trivial job: a few steps of BO on GEMM.
fn quick_job(tenant: &str, session: &str, seed: u64, async_slots: usize) -> JobSpec {
    let mut job = JobSpec::new(tenant, session, Problem::Benchmark(Benchmark::Gemm));
    job.iters = 3;
    job.seed = seed;
    job.async_slots = async_slots;
    job.overrides = Overrides::quick();
    job
}

/// The uninterrupted ground truth for `job`, computed without any engine.
fn expected_result(job: &JobSpec) -> SessionResult {
    let cfg = job.to_config();
    let (space, sim) = job.build_problem().expect("problem builds");
    let run = Optimizer::new(cfg)
        .run(&space, &sim)
        .expect("uninterrupted run succeeds");
    SessionResult::from_run(&run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill a session after `kill_step` steps (checkpoint on disk, journal
    /// with a torn final line), then let a fresh engine recover it: the
    /// recovered result must be bit-identical to the uninterrupted run.
    #[test]
    fn any_checkpoint_prefix_plus_torn_journal_resumes_bit_identically(
        kill_step in 0usize..=3,
        seed in proptest::sample::select(vec![7u64, 41, 2021]),
        torn in proptest::collection::vec(0u8..=255, 0..48),
        use_async in any::<bool>(),
    ) {
        let root = scratch_root("prefix");
        let job = quick_job("acme", "s", seed, if use_async { 2 } else { 0 });
        let expected = expected_result(&job);

        // Simulate the killed worker: persist the job, run only a prefix of
        // the steps, save the checkpoint, and leave a torn journal tail
        // (a kill mid-`write`).
        let paths = SessionPaths::new(&root, &job.tenant, &job.session);
        persist_job(&paths, &job).expect("job persists");
        let cfg = job.to_config();
        let (space, sim) = job.build_problem().expect("problem builds");
        let ckpt = Optimizer::new(cfg)
            .run_until(&space, &sim, kill_step)
            .expect("prefix run succeeds");
        ckpt.save(&paths.checkpoint()).expect("checkpoint saves");
        let mut journal = fs::File::create(paths.journal()).expect("journal opens");
        journal
            .write_all(b"{\"event\": \"run_started\", \"seed\": 1, \"n_iter\": 3, \"resumed_at\": null}\n")
            .expect("complete line writes");
        journal.write_all(&torn).expect("torn tail writes");
        drop(journal);

        // Recovery: a fresh engine re-enqueues the unfinished session and
        // resumes it from the checkpoint.
        let engine = Engine::start(EngineConfig {
            root: root.clone(),
            workers: 1,
            capacity: 4,
        })
        .expect("engine starts");
        let recovered = engine.recover().expect("recovery scans");
        prop_assert_eq!(recovered, vec![("acme".to_string(), "s".to_string())]);
        let result = engine.wait("acme", "s").expect("recovered session finishes");
        prop_assert_eq!(result, expected);
        engine.shutdown();
        fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn submitted_sessions_match_direct_runs_per_tenant() {
    // Two tenants, same job seed: each session's result must equal the
    // direct run under that tenant's derived seeds — and the two tenants
    // must not share RNG streams.
    let root = scratch_root("direct");
    let engine = Engine::start(EngineConfig {
        root: root.clone(),
        workers: 2,
        capacity: 8,
    })
    .expect("engine starts");
    let jobs = [quick_job("acme", "s", 11, 0), quick_job("bolt", "s", 11, 0)];
    for job in &jobs {
        engine.submit(job.clone(), None).expect("job admitted");
    }
    let results: Vec<SessionResult> = jobs
        .iter()
        .map(|j| {
            engine
                .wait(&j.tenant, &j.session)
                .expect("session finishes")
        })
        .collect();
    for (job, result) in jobs.iter().zip(&results) {
        assert_eq!(result, &expected_result(job), "tenant {}", job.tenant);
    }
    assert_ne!(
        results[0], results[1],
        "tenants with the same job seed must get isolated streams"
    );
    engine.shutdown();
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_job_with_more_slots_than_memory_finishes_and_the_engine_serves_on() {
    // `async_slots` has no upper bound, and the loop sizes nothing by it: a
    // job asking for 2^40 slots puts every run in flight at once and
    // finishes equal to the direct run. The worker then serves the next job.
    let root = scratch_root("slots");
    let engine = Engine::start(EngineConfig {
        root: root.clone(),
        workers: 1,
        capacity: 4,
    })
    .expect("engine starts");
    for job in [
        quick_job("acme", "huge", 3, 1 << 40),
        quick_job("acme", "next", 4, 0),
    ] {
        engine.submit(job.clone(), None).expect("job admitted");
        let result = engine
            .wait(&job.tenant, &job.session)
            .expect("session finishes");
        assert_eq!(result, expected_result(&job), "{}", job.session);
    }
    engine.shutdown();
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_version_2_checkpoint_fails_its_session_until_the_operator_removes_it() {
    // Checkpoints from before the one-loop layout have no upgrade path. A
    // session that stored one fails with a message naming both versions and
    // keeps its job.json. Once checkpoint.json is deleted, the next start
    // reruns the session from the beginning, equal to the uninterrupted run.
    let root = scratch_root("v2");
    let job = quick_job("acme", "old", 17, 0);
    let paths = SessionPaths::new(&root, &job.tenant, &job.session);
    persist_job(&paths, &job).expect("job persists");
    let (space, sim) = job.build_problem().expect("problem builds");
    let v3 = Optimizer::new(job.to_config())
        .run_until(&space, &sim, 1)
        .expect("prefix run succeeds")
        .to_json();
    let v2 = v3.replacen(
        &format!("\"version\":{CHECKPOINT_VERSION}"),
        "\"version\":2",
        1,
    );
    assert_ne!(v2, v3);
    fs::write(paths.checkpoint(), v2).expect("checkpoint writes");
    let start = || {
        Engine::start(EngineConfig {
            root: root.clone(),
            workers: 1,
            capacity: 4,
        })
        .expect("engine starts")
    };

    let engine = start();
    engine.recover().expect("recovery scans");
    match engine.wait("acme", "old") {
        Err(ServeError::SessionFailed { message }) => assert!(
            message.contains("version 2")
                && message.contains(&format!("supported {CHECKPOINT_VERSION}")),
            "{message}"
        ),
        other => panic!("expected the session to fail, got {other:?}"),
    }
    assert!(paths.job().exists(), "a failed session keeps its job.json");
    engine.shutdown();

    fs::remove_file(paths.checkpoint()).expect("checkpoint removes");
    let engine = start();
    let recovered = engine.recover().expect("recovery scans");
    assert_eq!(recovered, vec![("acme".to_string(), "old".to_string())]);
    let result = engine.wait("acme", "old").expect("rerun finishes");
    assert_eq!(result, expected_result(&job));
    engine.shutdown();
    fs::remove_dir_all(&root).ok();
}

#[test]
fn admission_past_capacity_is_a_typed_rejection_and_persists_nothing() {
    let root = scratch_root("admission");
    let engine = Engine::start(EngineConfig {
        root: root.clone(),
        workers: 1,
        capacity: 1,
    })
    .expect("engine starts");
    engine
        .submit(quick_job("acme", "first", 1, 0), None)
        .expect("first job admitted");
    let err = engine
        .submit(quick_job("acme", "second", 2, 0), None)
        .expect_err("second job must bounce");
    match &err {
        ServeError::AdmissionRejected { active, cap } => {
            assert_eq!((*active, *cap), (1, 1));
        }
        other => panic!("wrong error: {other:?}"),
    }
    assert_eq!(err.kind(), "admission-rejected");
    assert!(
        !SessionPaths::new(&root, "acme", "second").dir.exists(),
        "a rejected job must leave no trace on disk"
    );
    // Rejection is transient: once the queue drains, the job is admitted.
    engine.wait("acme", "first").expect("first finishes");
    engine
        .submit(quick_job("acme", "second", 2, 0), None)
        .expect("second job admitted after drain");
    engine.wait("acme", "second").expect("second finishes");
    engine.shutdown();
    fs::remove_dir_all(&root).ok();
}

#[test]
fn engine_errors_are_typed_not_panics() {
    let root = scratch_root("typed");
    let engine = Engine::start(EngineConfig {
        root: root.clone(),
        workers: 1,
        capacity: 4,
    })
    .expect("engine starts");
    // Unknown sessions.
    assert!(matches!(
        engine.status("ghost", "s"),
        Err(ServeError::UnknownSession { .. })
    ));
    assert!(matches!(
        engine.wait("ghost", "s"),
        Err(ServeError::UnknownSession { .. })
    ));
    // Invalid jobs (path traversal, zero budget) never reach the queue.
    let mut bad = quick_job("acme", "s", 1, 0);
    bad.tenant = "../escape".into();
    assert!(matches!(
        engine.submit(bad, None),
        Err(ServeError::InvalidJob { .. })
    ));
    let mut bad = quick_job("acme", "s", 1, 0);
    bad.iters = 0;
    assert!(matches!(
        engine.submit(bad, None),
        Err(ServeError::InvalidJob { .. })
    ));
    // Re-submitting an active session with a different spec is rejected;
    // with the same spec it attaches.
    let job = quick_job("acme", "s", 1, 0);
    engine.submit(job.clone(), None).expect("admitted");
    let mut different = job.clone();
    different.seed = 999;
    assert!(matches!(
        engine.submit(different, None),
        Err(ServeError::InvalidJob { .. })
    ));
    engine
        .submit(job.clone(), None)
        .expect("same-spec resubmit attaches");
    engine.wait("acme", "s").expect("finishes");
    // A finished session reports Finished instead of re-running.
    assert_eq!(
        engine
            .submit(job, None)
            .expect("finished submit is idempotent"),
        cmmf_serve::SessionState::Finished
    );
    engine.shutdown();
    fs::remove_dir_all(&root).ok();
}

#[test]
fn stored_jobs_from_before_mixed_precision_was_removed() {
    // Older daemons wrote `"mixed_precision": false` and `"warm_start"`
    // (`true` unless the job turned warm starts off) into every job.json, so
    // such an unfinished session recovers and finishes as the same job,
    // whichever `warm_start` it stored. One stored with
    // `"mixed_precision": true` stops the recovery scan with a typed error
    // naming its file, and nothing is enqueued. Once the operator removes
    // that session, the others recover.
    let root = scratch_root("mixed");
    let keep = quick_job("acme", "keep", 5, 0);
    let cold = quick_job("acme", "cold", 7, 0);
    let refused = quick_job("bolt", "mixed", 6, 0);
    for (job, mixed, warm) in [
        (&keep, false, true),
        (&cold, false, false),
        (&refused, true, true),
    ] {
        let paths = SessionPaths::new(&root, &job.tenant, &job.session);
        persist_job(&paths, job).expect("job persists");
        let text = fs::read_to_string(paths.job()).expect("job reads");
        let stored = text.replacen(
            '{',
            &format!("{{\"mixed_precision\": {mixed}, \"warm_start\": {warm}, "),
            1,
        );
        assert_ne!(stored, text);
        fs::write(paths.job(), stored).expect("job rewrites");
    }
    let engine = Engine::start(EngineConfig {
        root: root.clone(),
        workers: 1,
        capacity: 4,
    })
    .expect("engine starts");
    match engine.recover() {
        Err(ServeError::InvalidJob { message }) => {
            assert!(message.contains("no longer supported"), "{message}");
            let path = root.join("bolt").join("mixed").join("job.json");
            assert!(message.contains(&path.display().to_string()), "{message}");
        }
        other => panic!("expected a typed InvalidJob, got {other:?}"),
    }
    fs::remove_dir_all(root.join("bolt").join("mixed")).expect("session removes");
    let recovered = engine.recover().expect("recovery scans");
    assert_eq!(
        recovered,
        vec![
            ("acme".to_string(), "cold".to_string()),
            ("acme".to_string(), "keep".to_string())
        ]
    );
    for job in [&cold, &keep] {
        let result = engine
            .wait(&job.tenant, &job.session)
            .expect("recovered session finishes");
        assert_eq!(result, expected_result(job), "{}", job.session);
    }
    engine.shutdown();
    fs::remove_dir_all(&root).ok();
}
