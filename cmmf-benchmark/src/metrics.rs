//! The declared metrics, the values a pass produced, and their rendering.
//!
//! Every name here is declared in the repository's `BENCHMARK.json` with the
//! same unit and direction (a test keeps the two in step). An untraced pass
//! prints exactly [`END_TO_END`]; a traced pass prints exactly
//! [`PER_LAYER`], every workload printing every name so runs line up.

use crate::attribution::{Breakdown, Layer};
use crate::stats::{median, percentile, sorted, tail};
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, `^[A-Za-z0-9_.-]+$`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: [Metric; 5] = [
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("adrs_mean", "ratio"),
    lower("sim_s_mean", "sim_s"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer self times, counts and ratios from the traced pass.
pub const PER_LAYER: [Metric; 45] = [
    lower("hls_model.build_s", "s"),
    higher("hls_model.configs", "count"),
    lower("fidelity_sim.truth_s", "s"),
    lower("fidelity_sim.tool_runs", "count"),
    lower("models.fit_s", "s"),
    lower("models.fit_optimize_s", "s"),
    lower("models.fit_extend_s", "s"),
    lower("models.fits", "count"),
    lower("gp.nll_evals", "count"),
    lower("gp.nll_eval_us", "us"),
    lower("gp.restarts_run", "count"),
    higher("gp.warm_hit_ratio", "ratio"),
    higher("gp.warm_searches", "count"),
    lower("core.init_s", "s"),
    lower("core.prepare_s", "s"),
    lower("core.prepare_us_per_candidate", "us"),
    lower("eipv.score_s", "s"),
    higher("eipv.candidates_scored", "count"),
    lower("eipv.score_us_per_candidate", "us"),
    lower("core.observe_s", "s"),
    lower("core.finish_s", "s"),
    higher("core.steps", "count"),
    lower("core.step_p50_ms", "ms"),
    lower("core.step_tail_ms", "ms"),
    higher("core.step_tail_pct", "%"),
    higher("scheduler.dispatches", "count"),
    higher("scheduler.in_flight_mean", "count"),
    lower("scheduler.self_s", "s"),
    lower("checkpoint.saves", "count"),
    lower("checkpoint.save_ms", "ms"),
    lower("checkpoint.bytes", "bytes"),
    lower("checkpoint.self_s", "s"),
    lower("serve.spawn_ms", "ms"),
    lower("serve.admit_ms", "ms"),
    lower("serve.start_ms", "ms"),
    lower("serve.compute_ms", "ms"),
    lower("serve.finish_ms", "ms"),
    lower("runner.adrs_s", "s"),
    higher("run.jobs", "count"),
    lower("run.job_p50_ms", "ms"),
    lower("run.job_tail_ms", "ms"),
    higher("run.job_tail_pct", "%"),
    lower("trace.wall_s", "s"),
    lower("trace.overhead_frac", "ratio"),
    higher("attributed_frac", "ratio"),
];

/// The declared metrics of a pass.
pub fn declared(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// What one pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Jobs attempted in the measured pass.
    pub attempted: usize,
    /// Jobs that errored, were rejected or never finished.
    pub failed: usize,
    /// Correctness checks that failed, failed jobs included; empty when
    /// every output checked out.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a job that errored, was rejected or never finished. A failed
    /// job fails the run: left out, it would shorten the wall time and drop
    /// out of the quality metrics.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Whether every job finished and every output checked out.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The printed result: one `<workload> <metric> <value> <unit>` line per
    /// declared metric, then the JSON summary line. When a check failed the
    /// summary reports `"correct": false` and no metrics.
    ///
    /// # Errors
    ///
    /// A declared metric without a finite value, or a value that is not
    /// declared — a bug in the workload code.
    pub fn render(&self, workload: &str, defs: &[Metric]) -> Result<String, String> {
        let correct = self.correct();
        let mut lines = String::new();
        let mut json = Vec::new();
        if correct {
            for name in self.values.keys() {
                if !defs.iter().any(|m| m.name == *name) {
                    return Err(format!("metric `{name}` is not declared"));
                }
            }
            for m in defs {
                let v = *self
                    .values
                    .get(m.name)
                    .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
                if !v.is_finite() {
                    return Err(format!("metric `{}` is not finite: {v}", m.name));
                }
                lines.push_str(&format!("{workload} {} {v} {}\n", m.name, m.unit));
                json.push(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ));
            }
        }
        lines.push_str(&format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.attempted,
            self.failed,
            json.join(", ")
        ));
        Ok(lines)
    }
}

/// The untraced pass of a workload, which the end-to-end metrics describe.
#[derive(Debug, Clone, Copy)]
pub struct UntracedPass<'a> {
    /// The median set-up.
    pub setup: SetupTimes,
    /// Measured seconds of all jobs.
    pub measured_s: f64,
    /// Seconds of the work set at the reference speed.
    pub wall_s: f64,
    /// The host-speed probes taken between the jobs.
    pub probes: &'a [f64],
    /// ADRS of each job's result.
    pub adrs: &'a [f64],
    /// Simulated tool seconds of each job's result.
    pub sim_s: &'a [f64],
    /// Peak resident set of the process that ran the jobs, in MiB.
    pub peak_rss_mb: f64,
}

impl UntracedPass<'_> {
    /// Records every [`END_TO_END`] metric.
    pub fn record(&self, out: &mut Outcome) {
        out.set("setup_s", self.setup.reference_s);
        out.set("wall_s", self.wall_s);
        out.set("adrs_mean", mean(self.adrs));
        out.set("sim_s_mean", mean(self.sim_s));
        out.set("peak_rss_mb", self.peak_rss_mb);
    }
}

impl UntracedPass<'_> {
    /// The measured times behind the reported ones, for stderr.
    pub fn note(&self) -> String {
        format!(
            "measured: set-up {:.4} s, jobs {:.3} s in all; host probe median {:.3} ms against {:.3} ms on the reference host",
            self.setup.wall_s,
            self.measured_s,
            median(self.probes) * 1e3,
            crate::speed::REFERENCE_PROBE_S * 1e3
        )
    }
}

/// Set-up timings of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Seconds building the pruned design spaces (`hls-model`).
    pub build_s: f64,
    /// Seconds computing the true fronts (`fidelity-sim` ground truth).
    pub truth_s: f64,
    /// Seconds from spawning the daemon to its first `ping` answer.
    pub spawn_s: f64,
    /// Wall seconds of the whole set-up.
    pub wall_s: f64,
    /// The same at the reference host's speed.
    pub reference_s: f64,
    /// Configurations across the built spaces.
    pub configs: usize,
}

/// The traced pass of a workload: every job run untraced, then traced.
#[derive(Debug, Clone, Copy)]
pub struct TracedPass<'a> {
    /// The pass's set-up.
    pub setup: SetupTimes,
    /// Per-job attribution of the traced runs.
    pub jobs: &'a [Breakdown],
    /// Wall seconds of each traced run.
    pub traced_walls: &'a [f64],
    /// Wall seconds of each untraced run.
    pub untraced_walls: &'a [f64],
    /// Seconds spent computing the jobs' ADRS values.
    pub adrs_s: f64,
}

impl TracedPass<'_> {
    /// Records every [`PER_LAYER`] metric.
    pub fn record(&self, out: &mut Outcome) {
        let jobs = self.jobs;
        let sum = |f: &dyn Fn(&Breakdown) -> f64| jobs.iter().map(f).sum::<f64>();
        let count = |f: &dyn Fn(&Breakdown) -> usize| jobs.iter().map(f).sum::<usize>();
        let layer = |l: Layer| sum(&|b| b.get(l));
        let ratio = |num: f64, den: usize| if den == 0 { 0.0 } else { num / den as f64 };
        let served: Vec<&Breakdown> = jobs.iter().filter(|b| b.served).collect();
        let served_p50_ms = |f: &dyn Fn(&Breakdown) -> f64| {
            median(&served.iter().map(|b| f(b)).collect::<Vec<_>>()) * 1e3
        };
        let s = &self.setup;

        out.set("hls_model.build_s", s.build_s);
        out.set("hls_model.configs", s.configs as f64);
        out.set("fidelity_sim.truth_s", s.truth_s);
        out.set("fidelity_sim.tool_runs", count(&|b| b.tool_runs) as f64);

        let fit_optimize_s = sum(&|b| b.fit_optimize_s);
        let nll_evals = count(&|b| b.nll_evals);
        let warm_hits = count(&|b| b.warm_hits);
        let warm_searches = warm_hits + count(&|b| b.warm_misses);
        out.set("models.fit_s", layer(Layer::Fit));
        out.set("models.fit_optimize_s", fit_optimize_s);
        out.set("models.fit_extend_s", sum(&|b| b.fit_extend_s));
        out.set("models.fits", count(&|b| b.fits) as f64);
        out.set("gp.nll_evals", nll_evals as f64);
        out.set("gp.nll_eval_us", ratio(fit_optimize_s * 1e6, nll_evals));
        out.set("gp.restarts_run", count(&|b| b.restarts_run) as f64);
        out.set("gp.warm_hit_ratio", ratio(warm_hits as f64, warm_searches));
        out.set("gp.warm_searches", warm_searches as f64);

        let candidates = count(&|b| b.candidates);
        out.set("core.init_s", layer(Layer::Init));
        out.set("core.prepare_s", layer(Layer::Prepare));
        out.set(
            "core.prepare_us_per_candidate",
            ratio(layer(Layer::Prepare) * 1e6, candidates),
        );
        out.set("eipv.score_s", layer(Layer::Score));
        out.set("eipv.candidates_scored", candidates as f64);
        out.set(
            "eipv.score_us_per_candidate",
            ratio(layer(Layer::Score) * 1e6, candidates),
        );
        out.set("core.observe_s", layer(Layer::Observe));
        out.set("core.finish_s", layer(Layer::Finish));
        let steps = sorted(
            &jobs
                .iter()
                .flat_map(|b| b.step_s.iter().copied())
                .collect::<Vec<_>>(),
        );
        let (step_pct, step_tail) = tail(&steps).unwrap_or((0.0, 0.0));
        out.set("core.steps", steps.len() as f64);
        out.set(
            "core.step_p50_ms",
            percentile(&steps, 50.0).unwrap_or(0.0) * 1e3,
        );
        out.set("core.step_tail_ms", step_tail * 1e3);
        out.set("core.step_tail_pct", step_pct);

        let dispatches = count(&|b| b.dispatches);
        out.set("scheduler.dispatches", dispatches as f64);
        out.set(
            "scheduler.in_flight_mean",
            ratio(count(&|b| b.in_flight_sum) as f64, dispatches),
        );
        out.set("scheduler.self_s", layer(Layer::Scheduler));

        let saves: Vec<f64> = jobs
            .iter()
            .flat_map(|b| b.checkpoint_save_s.iter().copied())
            .collect();
        out.set("checkpoint.saves", saves.len() as f64);
        out.set("checkpoint.save_ms", median(&saves) * 1e3);
        out.set(
            "checkpoint.bytes",
            ratio(count(&|b| b.checkpoint_bytes) as f64, saves.len()),
        );
        out.set("checkpoint.self_s", layer(Layer::Checkpoint));

        out.set("serve.spawn_ms", s.spawn_s * 1e3);
        out.set("serve.admit_ms", served_p50_ms(&|b| b.get(Layer::Admit)));
        out.set("serve.start_ms", served_p50_ms(&|b| b.get(Layer::Start)));
        out.set("serve.compute_ms", served_p50_ms(&|b| b.compute_s));
        out.set("serve.finish_ms", served_p50_ms(&|b| b.get(Layer::Deliver)));

        out.set("runner.adrs_s", self.adrs_s);
        let walls = sorted(self.untraced_walls);
        let (job_pct, job_tail) = tail(&walls).unwrap_or((0.0, 0.0));
        out.set("run.jobs", walls.len() as f64);
        out.set(
            "run.job_p50_ms",
            percentile(&walls, 50.0).unwrap_or(0.0) * 1e3,
        );
        out.set("run.job_tail_ms", job_tail * 1e3);
        out.set("run.job_tail_pct", job_pct);

        let traced: f64 = self.traced_walls.iter().sum();
        let untraced: f64 = self.untraced_walls.iter().sum();
        let whole = s.wall_s + traced + self.adrs_s;
        let attributed = s.build_s
            + s.truth_s
            + s.spawn_s
            + jobs.iter().map(Breakdown::attributed_s).sum::<f64>()
            + self.adrs_s;
        out.set("trace.wall_s", whole);
        out.set(
            "trace.overhead_frac",
            if untraced > 0.0 {
                traced / untraced - 1.0
            } else {
                0.0
            },
        );
        out.set(
            "attributed_frac",
            if whole > 0.0 { attributed / whole } else { 0.0 },
        );
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Arithmetic mean, summed in ascending order so that the order the jobs
/// ran in cannot move its last bits; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        sorted(values).iter().sum::<f64>() / values.len() as f64
    }
}
