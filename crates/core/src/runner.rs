//! Experiment driver: true Pareto fronts, normalized ADRS (Eq. 11), and
//! multi-repeat statistics — the machinery behind Table I and Fig. 8.

use crate::{CmmfConfig, CmmfError, Optimizer};
use fidelity_sim::{FlowSimulator, N_OBJECTIVES};
use hls_model::DesignSpace;
use pareto::{adrs, pareto_front};
use rand::derive_stream_seed;
use trace::TraceEvent;

/// The ground-truth Pareto front of a design space, with the normalization
/// used to make ADRS comparable across objectives.
#[derive(Debug, Clone)]
pub struct TrueFront {
    /// Normalized Pareto-front points.
    pub points: Vec<Vec<f64>>,
    /// Per-objective minima over valid configurations.
    pub mins: [f64; N_OBJECTIVES],
    /// Per-objective spans over valid configurations.
    pub spans: [f64; N_OBJECTIVES],
}

impl TrueFront {
    /// Computes the true front by exhaustively evaluating the simulator's
    /// ground truth over the whole space (only possible because the substrate
    /// is a simulator; the paper pre-computed its reference fronts the same
    /// exhaustive way on the real tool).
    ///
    /// # Panics
    ///
    /// Panics if the space has no valid configuration.
    pub fn compute(space: &DesignSpace, sim: &FlowSimulator) -> Self {
        let truth = sim.truth_objectives(space);
        let valid: Vec<[f64; N_OBJECTIVES]> = truth.iter().flatten().copied().collect();
        assert!(!valid.is_empty(), "space has no valid configuration");
        let mut mins = [f64::INFINITY; N_OBJECTIVES];
        let mut maxs = [f64::NEG_INFINITY; N_OBJECTIVES];
        for y in &valid {
            for d in 0..N_OBJECTIVES {
                mins[d] = mins[d].min(y[d]);
                maxs[d] = maxs[d].max(y[d]);
            }
        }
        let mut spans = [1.0; N_OBJECTIVES];
        for d in 0..N_OBJECTIVES {
            // A degenerate objective (constant over all valid configurations)
            // has zero span; dividing by it — or by a denormal stand-in like
            // 1e-12 — turns every later `normalize` into ±inf/NaN and poisons
            // ADRS. A constant axis carries no ranking information, so its
            // span clamps to 1.0: the axis contributes the raw offset only.
            let raw = maxs[d] - mins[d];
            spans[d] = if raw > 1e-12 { raw } else { 1.0 };
        }
        let normalized: Vec<Vec<f64>> = valid
            .iter()
            .map(|y| {
                (0..N_OBJECTIVES)
                    .map(|d| (y[d] - mins[d]) / spans[d])
                    .collect()
            })
            .collect();
        TrueFront {
            points: pareto_front(&normalized),
            mins,
            spans,
        }
    }

    /// Normalizes a raw objective vector into this front's coordinates.
    ///
    /// Guarded against degenerate fronts: a zero, negative, or non-finite
    /// span (possible when a `TrueFront` is built by hand or deserialized)
    /// falls back to 1.0 instead of producing NaN/±inf coordinates.
    pub fn normalize(&self, y: &[f64; N_OBJECTIVES]) -> Vec<f64> {
        (0..N_OBJECTIVES)
            .map(|d| {
                let span = self.spans[d];
                let span = if span.is_finite() && span > 1e-12 {
                    span
                } else {
                    1.0
                };
                (y[d] - self.mins[d]) / span
            })
            .collect()
    }

    /// ADRS (Eq. 11) of a learned set of raw objective vectors against this
    /// front, using Euclidean distance in normalized space.
    ///
    /// Returns the worst case (the normalized-space diagonal) when the learned
    /// set is empty, so failed runs are penalized rather than crashing.
    pub fn adrs_of(&self, learned: &[[f64; N_OBJECTIVES]]) -> f64 {
        if learned.is_empty() {
            return (N_OBJECTIVES as f64).sqrt();
        }
        let normalized: Vec<Vec<f64>> = learned.iter().map(|y| self.normalize(y)).collect();
        adrs(&self.points, &normalized)
    }
}

/// Summary statistics over repeated runs of one method on one benchmark —
/// one cell group of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodStats {
    /// Mean ADRS over repeats.
    pub mean_adrs: f64,
    /// Sample standard deviation of ADRS over repeats.
    pub std_adrs: f64,
    /// Mean simulated tool seconds over repeats.
    pub mean_seconds: f64,
    /// Per-repeat ADRS values.
    pub adrs_values: Vec<f64>,
}

/// Runs the optimizer `repeats` times with distinct seeds and aggregates ADRS
/// and runtime statistics (Sec. V-B runs 10 tests per benchmark and averages).
///
/// Each repeat's loop seed and GP seed are separate SplitMix64 streams
/// derived from `(base seed, repeat index)` via [`derive_stream_seed`] — the
/// previous affine scheme (`base + rep · 0x9E37`) made different
/// `(base, rep)` pairs collide, silently re-running the same experiment (see
/// `repeat_seed_streams_are_collision_free`). The base tracer, if any, gets a
/// `repeat_finished` event per repeat.
///
/// # Errors
///
/// Propagates the first run error.
pub fn repeat_optimizer_runs(
    base_cfg: &CmmfConfig,
    space: &DesignSpace,
    sim: &FlowSimulator,
    front: &TrueFront,
    repeats: usize,
) -> Result<MethodStats, CmmfError> {
    let mut adrs_values = Vec::with_capacity(repeats);
    let mut seconds = Vec::with_capacity(repeats);
    for rep in 0..repeats {
        let mut cfg = base_cfg.clone();
        cfg.seed = derive_stream_seed(base_cfg.seed, &[rep as u64, 0]);
        cfg.gp.seed = derive_stream_seed(base_cfg.seed, &[rep as u64, 1]);
        let result = Optimizer::new(cfg).run(space, sim)?;
        let run_adrs = front.adrs_of(&result.measured_pareto);
        base_cfg.tracer.emit(|| TraceEvent::RepeatFinished {
            repeat: rep,
            adrs: run_adrs,
            sim_seconds: result.sim_seconds,
        });
        adrs_values.push(run_adrs);
        seconds.push(result.sim_seconds);
    }
    Ok(MethodStats {
        mean_adrs: linalg::stats::mean(&adrs_values),
        std_adrs: linalg::stats::std_dev(&adrs_values),
        mean_seconds: linalg::stats::mean(&seconds),
        adrs_values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelVariant;
    use fidelity_sim::SimParams;
    use gp::GpConfig;
    use hls_model::benchmarks::{self, Benchmark};

    fn setup() -> (DesignSpace, FlowSimulator) {
        (
            benchmarks::build(Benchmark::SpmvCrs)
                .unwrap()
                .pruned_space()
                .unwrap(),
            FlowSimulator::new(SimParams::for_benchmark(Benchmark::SpmvCrs)),
        )
    }

    fn quick_cfg() -> CmmfConfig {
        CmmfConfig {
            n_iter: 5,
            candidate_pool: 30,
            mc_samples: 8,
            refit_every: 3,
            gp: GpConfig {
                restarts: 0,
                max_evals: 50,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn true_front_is_nondominated_and_normalized() {
        let (space, sim) = setup();
        let front = TrueFront::compute(&space, &sim);
        assert!(!front.points.is_empty());
        for p in &front.points {
            assert!(p.iter().all(|v| (-1e-9..=1.0 + 1e-9).contains(v)));
        }
        // No point dominates another.
        for (i, a) in front.points.iter().enumerate() {
            for (j, b) in front.points.iter().enumerate() {
                if i != j {
                    assert!(!pareto::dominates(a, b));
                }
            }
        }
    }

    #[test]
    fn adrs_of_true_front_is_zero() {
        let (space, sim) = setup();
        let front = TrueFront::compute(&space, &sim);
        let raw: Vec<[f64; 3]> = front
            .points
            .iter()
            .map(|p| {
                [
                    p[0] * front.spans[0] + front.mins[0],
                    p[1] * front.spans[1] + front.mins[1],
                    p[2] * front.spans[2] + front.mins[2],
                ]
            })
            .collect();
        assert!(front.adrs_of(&raw) < 1e-9);
    }

    #[test]
    fn empty_learned_set_gets_worst_case() {
        let (space, sim) = setup();
        let front = TrueFront::compute(&space, &sim);
        assert!((front.adrs_of(&[]) - 3.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn constant_objective_front_stays_finite() {
        // A degenerate (constant) objective axis must not poison
        // normalization or ADRS with NaN/±inf — the guard clamps its span
        // to 1.0 so only the offset contributes.
        let front = TrueFront {
            points: vec![vec![0.0, 0.0, 0.0], vec![1.0, 0.0, 0.5]],
            mins: [1.0, 2.0, 3.0],
            spans: [0.0, f64::NAN, 1e-300],
        };
        let n = front.normalize(&[1.5, 2.0, 3.25]);
        assert!(n.iter().all(|v| v.is_finite()), "normalize produced {n:?}");
        assert_eq!(n, vec![0.5, 0.0, 0.25]);
        let a = front.adrs_of(&[[1.5, 2.0, 3.25]]);
        assert!(a.is_finite(), "adrs produced {a}");
    }

    #[test]
    fn repeat_seed_streams_are_collision_free() {
        // Regression for the old affine derivation (`base + rep * 0x9E37`,
        // gp seed `^ 0xABCD`): base 0 repeat 1 and base 0x9E37 repeat 0
        // produced the *same* seeds, silently re-running one experiment as
        // two. Stream derivation keeps every (base, rep, role) seed distinct.
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for base in [0u64, 0x9E37, 1, 2021, u64::MAX] {
            for rep in 0..50u64 {
                for role in [0u64, 1] {
                    assert!(
                        seen.insert(rand::derive_stream_seed(base, &[rep, role])),
                        "seed collision at base={base:#x} rep={rep} role={role}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeats_emit_repeat_finished_events() {
        let (space, sim) = setup();
        let front = TrueFront::compute(&space, &sim);
        let sink = std::sync::Arc::new(trace::MemoryTracer::new());
        let mut cfg = quick_cfg();
        cfg.tracer = trace::TracerHandle::new(sink.clone());
        let stats = repeat_optimizer_runs(&cfg, &space, &sim, &front, 2).unwrap();
        let finished: Vec<(usize, f64)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RepeatFinished { repeat, adrs, .. } => Some((*repeat, *adrs)),
                _ => None,
            })
            .collect();
        assert_eq!(finished.len(), 2);
        for ((rep, adrs), expected) in finished.iter().zip(&stats.adrs_values) {
            assert_eq!(finished[*rep].0, *rep);
            assert_eq!(adrs, expected);
        }
    }

    #[test]
    fn repeats_aggregate() {
        let (space, sim) = setup();
        let front = TrueFront::compute(&space, &sim);
        let stats = repeat_optimizer_runs(&quick_cfg(), &space, &sim, &front, 2).unwrap();
        assert_eq!(stats.adrs_values.len(), 2);
        assert!(stats.mean_adrs >= 0.0);
        assert!(stats.mean_seconds > 0.0);
    }

    #[test]
    fn optimizer_beats_random_subset_on_average() {
        // The whole point: BO finds a better front than random sampling with
        // the same number of evaluations.
        let (space, sim) = setup();
        let front = TrueFront::compute(&space, &sim);
        let mut cfg = quick_cfg();
        cfg.n_iter = 12;
        cfg.variant = ModelVariant::paper();
        cfg.seed = 1;
        let stats = repeat_optimizer_runs(&cfg, &space, &sim, &front, 3).unwrap();

        // Random baseline with the same budget (8 + 12 evaluations).
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let truth = sim.truth_objectives(&space);
        let mut rand_adrs = Vec::new();
        for rep in 0..4 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(900 + rep);
            let mut idx: Vec<usize> = (0..space.len()).collect();
            idx.shuffle(&mut rng);
            let picked: Vec<[f64; 3]> = idx[..20].iter().filter_map(|&i| truth[i]).collect();
            rand_adrs.push(front.adrs_of(&picked));
        }
        let rand_mean = linalg::stats::mean(&rand_adrs);
        assert!(
            stats.mean_adrs < rand_mean * 1.2,
            "BO {:.4} not competitive with random {:.4}",
            stats.mean_adrs,
            rand_mean
        );
    }
}
