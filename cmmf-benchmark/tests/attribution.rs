//! Attribution arithmetic on synthetic event streams: every gap lands in
//! exactly one layer, and the layers sum to the job's wall time.

use cmmf_benchmark::attribution::{attribute, Breakdown, Event, FitKind, Layer, Stamp};
use cmmf_hls::cmmf::TraceEvent;
use trace::json;

fn fit(kind: FitKind) -> Event {
    Event::ModelFit {
        kind,
        nll_evals: 100,
        restarts_run: 2,
        warm_hits: 1,
        warm_misses: 1,
    }
}

fn scored(seconds: f64) -> Event {
    Event::Scored {
        seconds,
        candidates: 50,
    }
}

fn stamps(events: &[(f64, Event)]) -> Vec<Stamp> {
    events
        .iter()
        .map(|&(at, event)| Stamp { at, event })
        .collect()
}

fn assert_layers(b: &Breakdown, end: f64, expected: &[(Layer, f64)]) {
    for layer in Layer::ALL {
        let want = expected
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, s)| *s);
        assert!(
            (b.get(layer) - want).abs() < 1e-12,
            "{layer:?}: got {}, want {want}",
            b.get(layer)
        );
    }
    assert!(
        (b.attributed_s() - end).abs() < 1e-12,
        "layers do not sum to the wall"
    );
}

#[test]
fn sequential_loop() {
    let events = stamps(&[
        (1.0, Event::RunStarted),
        (2.0, Event::ToolRun),
        (4.0, Event::StepStarted),
        (10.0, fit(FitKind::Optimize)),
        (15.0, scored(2.0)),
        (16.0, Event::ToolRun),
        (18.0, Event::FrontUpdated),
        (19.0, Event::StepStarted),
        (21.0, fit(FitKind::Extend)),
        (24.0, scored(1.0)),
        (25.0, Event::ToolRun),
        (26.0, Event::FrontUpdated),
        (30.0, Event::RunFinished),
    ]);
    let b = attribute(&events, 31.0);
    assert_layers(
        &b,
        31.0,
        &[
            (Layer::Init, 4.0),
            (Layer::Fit, 8.0),
            (Layer::Prepare, 5.0),
            (Layer::Score, 3.0),
            (Layer::Observe, 6.0),
            (Layer::Finish, 5.0),
        ],
    );
    assert!(!b.served);
    assert_eq!((b.fit_optimize_s, b.fit_extend_s), (6.0, 2.0));
    assert_eq!((b.fits, b.nll_evals, b.restarts_run), (2, 200, 4));
    assert_eq!((b.warm_hits, b.warm_misses, b.candidates), (2, 2, 100));
    assert_eq!(b.tool_runs, 3);
    assert_eq!(b.step_s, vec![15.0]);
    assert_eq!(b.compute_s, 29.0);
    assert_eq!(b.dispatches, 0);
}

#[test]
fn async_loop() {
    let dispatched = |bo, in_flight| Event::Dispatched { bo, in_flight };
    let events = stamps(&[
        (1.0, Event::RunStarted),
        (2.0, dispatched(false, 1)),
        (3.0, Event::ToolRun),
        (3.5, Event::Completed),
        (4.0, Event::StepStarted),
        (10.0, fit(FitKind::Optimize)),
        (15.0, scored(2.0)),
        (16.0, dispatched(true, 1)),
        (17.0, Event::StepStarted),
        (19.0, fit(FitKind::Extend)),
        (21.0, scored(1.0)),
        (22.0, dispatched(true, 2)),
        (24.0, Event::ToolRun),
        (25.0, Event::Completed),
        (27.0, Event::FrontUpdated),
        (28.0, Event::ToolRun),
        (29.0, Event::Completed),
        (30.0, Event::FrontUpdated),
        (34.0, Event::RunFinished),
    ]);
    let b = attribute(&events, 35.0);
    assert_layers(
        &b,
        35.0,
        &[
            (Layer::Init, 4.0),
            (Layer::Fit, 8.0),
            (Layer::Prepare, 4.0),
            (Layer::Score, 3.0),
            (Layer::Scheduler, 5.0),
            (Layer::Observe, 6.0),
            (Layer::Finish, 5.0),
        ],
    );
    // Initialization dispatches are not scheduler decisions.
    assert_eq!((b.dispatches, b.in_flight_sum), (2, 3));
    assert_eq!(b.step_s, vec![13.0]);
}

#[test]
fn streamed_serve_session() {
    let events = stamps(&[
        (1.0, Event::Admitted),
        (5.0, Event::RunStarted),
        (6.0, Event::ToolRun),
        (7.0, Event::StepStarted),
        (9.0, fit(FitKind::Optimize)),
        (11.0, scored(1.0)),
        (12.0, Event::ToolRun),
        (13.0, Event::FrontUpdated),
        (15.0, Event::CheckpointWritten { bytes: 500 }),
        (16.0, Event::RunFinished),
    ]);
    let b = attribute(&events, 20.0);
    assert_layers(
        &b,
        20.0,
        &[
            (Layer::Admit, 1.0),
            (Layer::Start, 4.0),
            (Layer::Init, 2.0),
            (Layer::Fit, 2.0),
            (Layer::Prepare, 1.0),
            (Layer::Score, 1.0),
            (Layer::Observe, 2.0),
            (Layer::Checkpoint, 2.0),
            (Layer::Finish, 1.0),
            (Layer::Deliver, 4.0),
        ],
    );
    assert!(b.served);
    assert_eq!(b.checkpoint_save_s, vec![2.0]);
    assert_eq!(b.checkpoint_bytes, 500);
    assert_eq!(b.compute_s, 11.0);
}

#[test]
fn scoring_seconds_never_exceed_their_gap() {
    // A clock that ran ahead of the stamp: scoring takes the whole gap.
    let b = attribute(
        &stamps(&[(1.0, Event::StepStarted), (2.0, scored(5.0))]),
        2.0,
    );
    assert_eq!((b.get(Layer::Score), b.get(Layer::Prepare)), (1.0, 0.0));
}

#[test]
fn streamed_frames_and_in_process_events_read_alike() {
    let events = [
        TraceEvent::RunStarted {
            seed: 1,
            n_iter: 2,
            resumed_at: None,
        },
        TraceEvent::StepStarted {
            step: 0,
            observed: [8, 5, 3],
        },
        TraceEvent::ModelFit {
            step: 0,
            fit_mode: "extend",
            seconds: 0.25,
            nll_evals: 7,
            restarts_run: 1,
            warm_start_hits: 2,
            warm_start_misses: 3,
        },
        TraceEvent::AcquisitionScored {
            step: 0,
            slot: 0,
            config: 4,
            fidelity: 1,
            candidates: 40,
            eipv: 0.5,
            penalized: 0.25,
            seconds: 0.125,
        },
        TraceEvent::ToolRun {
            step: None,
            config: 4,
            stage: "hls",
            seconds: 30.0,
            valid: true,
        },
        TraceEvent::RunDispatched {
            seq: 9,
            step: Some(1),
            config: 4,
            fidelity: 2,
            clock: 1.0,
            finish: 2.0,
            in_flight: 3,
        },
        TraceEvent::RunDispatched {
            seq: 0,
            step: None,
            config: 4,
            fidelity: 2,
            clock: 0.0,
            finish: 2.0,
            in_flight: 1,
        },
        TraceEvent::RunCompleted {
            seq: 9,
            step: Some(1),
            config: 4,
            fidelity: 2,
            clock: 2.0,
            in_flight: 2,
        },
        TraceEvent::FrontUpdated {
            step: 0,
            hv: [1.0, 2.0, 3.0],
            front_sizes: [1, 2, 3],
        },
        TraceEvent::CheckpointWritten {
            step: 1,
            bytes: 512,
        },
        TraceEvent::RunFinished {
            steps: 2,
            sim_seconds: 10.0,
            pareto_points: 3,
        },
    ];
    for e in &events {
        let doc = json::parse(&e.to_json()).expect("journal lines parse");
        let direct = Event::from_trace(e);
        assert!(direct.is_some(), "{e:?} closes no layer");
        assert_eq!(Event::from_json(&doc), direct, "{e:?}");
    }
    let repeat = TraceEvent::RepeatFinished {
        repeat: 0,
        adrs: 0.1,
        sim_seconds: 1.0,
    };
    assert_eq!(Event::from_trace(&repeat), None);
    assert_eq!(
        Event::from_json(&json::parse(&repeat.to_json()).expect("parses")),
        None
    );
}
