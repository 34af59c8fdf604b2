//! The in-process workloads: optimizer campaigns run back to back by one
//! caller, the way a DSE user waits on each campaign before starting the
//! next (a closed loop with one client).

use crate::attribution::{attribute, Event, Stamp};
use crate::metrics::{peak_rss_mb, Outcome, SetupTimes, TracedPass, UntracedPass};
use crate::speed;
use crate::stats::{paced_wall, rank};
use crate::workload::{Campaign, Scale, WorkSet, Workload};
use cmmf_hls::cmmf::runner::TrueFront;
use cmmf_hls::cmmf::{
    AsyncOptimizer, CmmfError, Optimizer, RunResult, TraceEvent, Tracer, TracerHandle,
};
use cmmf_hls::fidelity_sim::{FlowSimulator, SimParams};
use cmmf_hls::hls_model::benchmarks::{self, Benchmark};
use cmmf_hls::hls_model::DesignSpace;
use cmmf_hls::pareto::dominates;
use std::sync::{Arc, Mutex, PoisonError};
use trace::Stopwatch;

/// One benchmark's design space, simulator and true Pareto front.
#[derive(Debug)]
pub struct Problem {
    /// The benchmark's tree-pruned design space.
    pub space: DesignSpace,
    /// Its flow simulator.
    pub sim: FlowSimulator,
    /// Its exhaustively computed true front.
    pub front: TrueFront,
}

/// Builds the problems of `benches`, timing each layer's public call.
///
/// # Errors
///
/// A benchmark whose space fails to build.
pub fn build_problems(benches: &[Benchmark]) -> Result<(Vec<Problem>, SetupTimes), String> {
    let wall = Stopwatch::start();
    let mut times = SetupTimes::default();
    let mut problems = Vec::with_capacity(benches.len());
    for &benchmark in benches {
        let t = Stopwatch::start();
        let space = benchmarks::build(benchmark)
            .and_then(|model| model.pruned_space())
            .map_err(|e| format!("{}: {e}", benchmark.name()))?;
        times.build_s += t.seconds();
        times.configs += space.len();
        let sim = FlowSimulator::new(SimParams::for_benchmark(benchmark));
        let t = Stopwatch::start();
        let front = TrueFront::compute(&space, &sim);
        times.truth_s += t.seconds();
        problems.push(Problem { space, sim, front });
    }
    times.wall_s = wall.seconds();
    Ok((problems, times))
}

/// Runs `set_up` [`Scale::setup_repeats`] times, probing the host's speed
/// before each repeat and after the last (set-up runs on one thread).
/// Returns the last repeat's output and the times of the repeat with the
/// median wall time at the reference speed, parts and all, so its layers
/// still sum to its wall.
///
/// # Errors
///
/// The first failing repeat's error.
pub fn repeat_setup<T>(
    scale: Scale,
    mut set_up: impl FnMut() -> Result<(T, SetupTimes), String>,
) -> Result<(T, SetupTimes), String> {
    let repeats = scale.setup_repeats();
    let mut runs = Vec::with_capacity(repeats);
    let mut before = speed::probe(1);
    let mut last = None;
    for _ in 0..repeats {
        // Dropped first, so two repeats' problems never count in the peak
        // resident set together.
        drop(last.take());
        let (built, mut times) = set_up()?;
        let after = speed::probe(1);
        times.reference_s = speed::at_reference(times.wall_s, before, after);
        before = after;
        runs.push(times);
        last = Some(built);
    }
    runs.sort_by(|a, b| a.reference_s.total_cmp(&b.reference_s));
    let median = runs[rank(50.0, runs.len()) - 1];
    Ok((last.ok_or("set-up never ran")?, median))
}

/// What is wrong with a learned front, if anything: it must be non-empty,
/// finite, mutually non-dominated, and dominate no point of the true front.
pub fn front_problem(front: &TrueFront, learned: &[[f64; 3]]) -> Option<&'static str> {
    let normalized: Vec<Vec<f64>> = learned.iter().map(|y| front.normalize(y)).collect();
    if learned.is_empty() {
        Some("learned front is empty")
    } else if normalized.iter().flatten().any(|v| !v.is_finite()) {
        Some("learned front is not finite")
    } else if normalized
        .iter()
        .any(|a| normalized.iter().any(|b| dominates(a, b)))
    {
        Some("learned front dominates itself")
    } else if normalized
        .iter()
        .any(|a| front.points.iter().any(|t| dominates(a, t)))
    {
        Some("learned front beats the true front")
    } else {
        None
    }
}

/// A tracer that stamps every event with its arrival time on the job's own
/// stopwatch, keeping the stamps in memory until the job ends.
#[derive(Debug)]
struct StampTracer {
    clock: Stopwatch,
    stamps: Mutex<Vec<(f64, TraceEvent)>>,
}

impl Tracer for StampTracer {
    fn record(&self, event: &TraceEvent) {
        let at = self.clock.seconds();
        self.stamps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((at, event.clone()));
    }
}

fn run_campaign(c: &Campaign, p: &Problem, tracer: TracerHandle) -> Result<RunResult, CmmfError> {
    let mut cfg = c.cfg.clone();
    cfg.tracer = tracer;
    if c.asynchronous {
        AsyncOptimizer::new(cfg).run(&p.space, &p.sim)
    } else {
        Optimizer::new(cfg).run(&p.space, &p.sim)
    }
}

/// Runs a campaign untraced: its result and wall seconds.
fn untraced(c: &Campaign, p: &Problem) -> (Result<RunResult, CmmfError>, f64) {
    let t = Stopwatch::start();
    let r = run_campaign(c, p, TracerHandle::null());
    (r, t.seconds())
}

/// Runs a campaign traced: its result, wall seconds and event stamps.
fn traced(c: &Campaign, p: &Problem) -> (Result<RunResult, CmmfError>, f64, Vec<Stamp>) {
    let tracer = Arc::new(StampTracer {
        clock: Stopwatch::start(),
        stamps: Mutex::new(Vec::new()),
    });
    let r = run_campaign(c, p, TracerHandle::new(tracer.clone()));
    let wall = tracer.clock.seconds();
    let stamps = tracer
        .stamps
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .filter_map(|(at, e)| Event::from_trace(e).map(|event| Stamp { at: *at, event }))
        .collect();
    (r, wall, stamps)
}

/// Whether two results agree bit for bit on every deterministic field.
fn same_result(a: &RunResult, b: &RunResult) -> bool {
    let choices = |r: &RunResult| -> Vec<(usize, usize, u64)> {
        r.candidate_set
            .iter()
            .map(|c| (c.config, c.stage.index(), c.acquisition.to_bits()))
            .collect()
    };
    let bits =
        |v: &[[f64; 3]]| -> Vec<[u64; 3]> { v.iter().map(|p| p.map(f64::to_bits)).collect() };
    choices(a) == choices(b)
        && a.evaluated_configs == b.evaluated_configs
        && bits(&a.measured_pareto) == bits(&b.measured_pareto)
        && a.sim_seconds.to_bits() == b.sim_seconds.to_bits()
        && bits(&a.hv_history) == bits(&b.hv_history)
}

/// Checks one campaign's result and returns its ADRS.
fn check(k: usize, c: &Campaign, r: &RunResult, front: &TrueFront) -> Result<f64, String> {
    let adrs = front.adrs_of(&r.measured_pareto);
    let problem = [
        (!adrs.is_finite(), "ADRS is not finite"),
        (
            r.candidate_set.len() != c.cfg.n_iter,
            "candidate set is short",
        ),
        (
            r.hv_history.len() != c.cfg.n_iter,
            "hypervolume history is short",
        ),
        (
            !(r.sim_seconds.is_finite() && r.sim_seconds > 0.0),
            "simulated time is not positive",
        ),
    ]
    .iter()
    .find(|(bad, _)| *bad)
    .map(|(_, why)| *why)
    .or_else(|| front_problem(front, &r.measured_pareto));
    match problem {
        Some(why) => Err(format!("campaign {k}: {why}")),
        None => Ok(adrs),
    }
}

/// Runs an in-process workload and measures it.
///
/// # Errors
///
/// A set-up failure (no metrics can be measured).
pub fn run(workload: Workload, set: WorkSet, trace: bool) -> Result<Outcome, String> {
    let benches = workload.benchmarks(set.scale);
    let (problems, setup) = repeat_setup(set.scale, || build_problems(&benches))?;
    measure(&workload.campaigns(set), &problems, setup, trace)
}

/// Runs `campaigns` on `problems` (indexed by [`Campaign::problem`]) back to
/// back, checks every result, and records the pass's metrics. A campaign
/// that errors fails the pass. Untraced, the host's speed is probed before
/// the first campaign and after each one, on the campaigns' threads.
///
/// # Errors
///
/// The peak resident set cannot be read.
pub fn measure(
    campaigns: &[Campaign],
    problems: &[Problem],
    setup: SetupTimes,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        attempted: campaigns.len() * if trace { 2 } else { 1 },
        ..Outcome::default()
    };
    let mut results = Vec::with_capacity(campaigns.len());
    let mut walls = Vec::with_capacity(campaigns.len());
    let mut traced_walls = Vec::new();
    let mut breakdowns = Vec::new();
    let threads = |c: &Campaign| match c.cfg.threads {
        0 => speed::hardware_threads(),
        n => n,
    };
    let mut probes = Vec::with_capacity(campaigns.len() + 1);
    if let (false, Some(c)) = (trace, campaigns.first()) {
        probes.push(speed::probe(threads(c)));
    }
    for (k, c) in campaigns.iter().enumerate() {
        let p = &problems[c.problem];
        let (r, wall) = untraced(c, p);
        walls.push(wall);
        if trace {
            let (rt, wall_t, stamps) = traced(c, p);
            match (&r, &rt) {
                (Ok(a), Ok(b)) if !same_result(a, b) => out
                    .mismatches
                    .push(format!("campaign {k}: traced result differs from untraced")),
                (_, Err(e)) => out.fail(format!("campaign {k} failed traced: {e}")),
                _ => {}
            }
            traced_walls.push(wall_t);
            breakdowns.push(attribute(&stamps, wall_t));
        } else {
            probes.push(speed::probe(threads(c)));
        }
        results.push(r);
    }

    let adrs_clock = Stopwatch::start();
    let mut adrs = Vec::new();
    let mut sim_s = Vec::new();
    for (k, (c, r)) in campaigns.iter().zip(&results).enumerate() {
        match r {
            Ok(r) => match check(k, c, r, &problems[c.problem].front) {
                Ok(a) => {
                    adrs.push(a);
                    sim_s.push(r.sim_seconds);
                }
                Err(e) => out.mismatches.push(e),
            },
            Err(e) => out.fail(format!("campaign {k} failed: {e}")),
        }
    }
    let adrs_s = adrs_clock.seconds();

    if trace {
        TracedPass {
            setup,
            jobs: &breakdowns,
            traced_walls: &traced_walls,
            untraced_walls: &walls,
            adrs_s,
        }
        .record(&mut out);
    } else {
        let paced: Vec<(usize, f64)> = campaigns
            .iter()
            .zip(&walls)
            .zip(probes.windows(2))
            .map(|((c, &w), p)| (c.round, speed::at_reference(w, p[0], p[1])))
            .collect();
        let pass = UntracedPass {
            setup,
            measured_s: walls.iter().sum(),
            wall_s: paced_wall(&paced, 1),
            probes: &probes,
            adrs: &adrs,
            sim_s: &sim_s,
            peak_rss_mb: peak_rss_mb(None)?,
        };
        eprintln!("{}", pass.note());
        pass.record(&mut out);
    }
    Ok(out)
}
