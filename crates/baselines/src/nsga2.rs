//! NSGA-II over the directive design space — a classic multi-objective
//! evolutionary baseline (an *extension* beyond the paper's Table I, useful to
//! position the GP methods against the standard non-model-based alternative).
//!
//! The genome is the configuration's option-index vector; crossover is
//! uniform per site and mutation re-rolls a site to a random option. Because
//! the pruned design space is an explicit list (not a free cross product),
//! offspring are *repaired* to the nearest admissible configuration in
//! encoded-feature space.

use crate::BaselineError;
use fidelity_sim::{FlowSimulator, RunOutcome, Stage, N_OBJECTIVES};
use hls_model::DesignSpace;
use pareto::metrics::{crowding_distance, non_dominated_ranks};
use pareto::pareto_front_indices;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// NSGA-II settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-site mutation probability.
    pub mutation_rate: f64,
    /// Which flow stage evaluates fitness (the paper-equivalent protocol uses
    /// `Impl`, paying full cost per individual).
    pub stage: Stage,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 24,
            generations: 8,
            mutation_rate: 0.15,
            stage: Stage::Impl,
            seed: 0x25A6,
        }
    }
}

/// Result of one NSGA-II run.
#[derive(Debug, Clone)]
pub struct Nsga2Result {
    /// The final population's non-dominated configurations.
    pub pareto_configs: Vec<usize>,
    /// Ground-truth objective vectors of the valid proposed configurations.
    pub measured_pareto: Vec<[f64; N_OBJECTIVES]>,
    /// Simulated tool seconds consumed (each *distinct* individual evaluated
    /// once; the evaluation cache is free, as a real flow's result store
    /// would be).
    pub sim_seconds: f64,
    /// Number of distinct configurations evaluated.
    pub evaluations: usize,
}

/// Runs NSGA-II on `space`, evaluating individuals with `sim` at the
/// configured stage.
///
/// # Errors
///
/// [`BaselineError::SpaceTooSmall`] if the space is smaller than the
/// population.
pub fn run_nsga2(
    space: &DesignSpace,
    sim: &FlowSimulator,
    cfg: &Nsga2Config,
) -> Result<Nsga2Result, BaselineError> {
    if space.len() < cfg.population {
        return Err(BaselineError::SpaceTooSmall {
            requested: cfg.population,
            available: space.len(),
        });
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Fitness cache: config index -> objectives (invalid = worst-penalized).
    let mut cache: BTreeMap<usize, [f64; N_OBJECTIVES]> = BTreeMap::new();
    let mut sim_seconds = 0.0;
    let mut worst = [1.0f64; N_OBJECTIVES];
    let evaluate = |c: usize,
                    cache: &mut BTreeMap<usize, [f64; N_OBJECTIVES]>,
                    worst: &mut [f64; N_OBJECTIVES],
                    sim_seconds: &mut f64|
     -> [f64; N_OBJECTIVES] {
        if let Some(v) = cache.get(&c) {
            return *v;
        }
        *sim_seconds += sim.stage_seconds(space, c, cfg.stage);
        let v = match sim.run(space, c, cfg.stage) {
            RunOutcome::Valid(r) => {
                let o = r.objectives();
                for (w, x) in worst.iter_mut().zip(&o) {
                    *w = w.max(*x);
                }
                o
            }
            RunOutcome::Invalid { .. } => {
                let mut o = [0.0; N_OBJECTIVES];
                for (oo, w) in o.iter_mut().zip(worst.iter()) {
                    *oo = 10.0 * *w;
                }
                o
            }
        };
        cache.insert(c, v);
        v
    };

    // Initial population: random distinct configurations.
    let mut order: Vec<usize> = (0..space.len()).collect();
    order.shuffle(&mut rng);
    let mut population: Vec<usize> = order[..cfg.population].to_vec();

    for _gen in 0..cfg.generations {
        // Evaluate and rank the current population.
        let objs: Vec<Vec<f64>> = population
            .iter()
            .map(|&c| evaluate(c, &mut cache, &mut worst, &mut sim_seconds).to_vec())
            .collect();
        let ranks = non_dominated_ranks(&objs);
        let crowd = crowding_distance(&objs);

        // Binary-tournament parent selection on (rank, crowding).
        let select = |rng: &mut StdRng| -> usize {
            let a = rng.random_range(0..population.len());
            let b = rng.random_range(0..population.len());
            let a_wins = ranks[a] < ranks[b]
                || (ranks[a] == ranks[b] && crowd[a].total_cmp(&crowd[b]).is_ge());
            if a_wins {
                a
            } else {
                b
            }
        };

        // Offspring by uniform crossover + per-site mutation, repaired to the
        // nearest admissible configuration.
        let mut offspring = Vec::with_capacity(cfg.population);
        while offspring.len() < cfg.population {
            let pa = space.config(population[select(&mut rng)]).to_vec();
            let pb = space.config(population[select(&mut rng)]).to_vec();
            let mut child: Vec<usize> = pa
                .iter()
                .zip(&pb)
                .map(|(&x, &y)| if rng.random::<bool>() { x } else { y })
                .collect();
            for (d, site) in space.sites().iter().enumerate() {
                if rng.random::<f64>() < cfg.mutation_rate {
                    child[d] = rng.random_range(0..site.options.len());
                }
            }
            offspring.push(repair(space, &child));
        }

        // Environmental selection from parents + offspring.
        let mut pool: Vec<usize> = population.iter().copied().chain(offspring).collect();
        pool.sort_unstable();
        pool.dedup();
        let pool_objs: Vec<Vec<f64>> = pool
            .iter()
            .map(|&c| evaluate(c, &mut cache, &mut worst, &mut sim_seconds).to_vec())
            .collect();
        let pool_ranks = non_dominated_ranks(&pool_objs);
        let pool_crowd = crowding_distance(&pool_objs);
        let idx = environmental_order(&pool_ranks, &pool_crowd);
        population = idx[..cfg.population.min(idx.len())]
            .iter()
            .map(|&i| pool[i])
            .collect();
    }

    // Final proposal: the non-dominated members of the last population.
    let final_objs: Vec<Vec<f64>> = population
        .iter()
        .map(|&c| evaluate(c, &mut cache, &mut worst, &mut sim_seconds).to_vec())
        .collect();
    let front = pareto_front_indices(&final_objs);
    let pareto_configs: Vec<usize> = front.iter().map(|&i| population[i]).collect();
    let measured_pareto: Vec<[f64; N_OBJECTIVES]> = pareto_configs
        .iter()
        .filter_map(|&c| sim.truth_objective(space, c))
        .collect();

    Ok(Nsga2Result {
        pareto_configs,
        measured_pareto,
        sim_seconds,
        evaluations: cache.len(),
    })
}

/// Orders pool members for environmental selection: ascending non-domination
/// rank, ties broken by *descending* crowding distance. Uses `total_cmp`, so
/// the ordering stays total — and the sort panic-free — even when degenerate
/// objectives make crowding distances NaN.
fn environmental_order(ranks: &[usize], crowd: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ranks.len()).collect();
    idx.sort_by(|&a, &b| ranks[a].cmp(&ranks[b]).then(crowd[b].total_cmp(&crowd[a])));
    idx
}

/// Maps a free genome (option indices that may not correspond to any
/// admissible configuration) to the nearest admissible configuration in
/// encoded-feature space. A linear scan is fine at the spaces' sizes; ties
/// break toward the lower index, keeping repair deterministic.
fn repair(space: &DesignSpace, genome: &[usize]) -> usize {
    let target = hls_model::encode::encode_config(space.sites(), genome);
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    // Subsample large spaces for speed; exact for small ones.
    let step = (space.len() / 4096).max(1);
    for i in (0..space.len()).step_by(step) {
        let x = space.encode(i);
        let d: f64 = x.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_sim::SimParams;
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

    fn quick_cfg(seed: u64) -> Nsga2Config {
        Nsga2Config {
            population: 12,
            generations: 4,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn produces_a_nonempty_front() {
        let (space, sim) = setup();
        let r = run_nsga2(&space, &sim, &quick_cfg(1)).unwrap();
        assert!(!r.pareto_configs.is_empty());
        assert!(!r.measured_pareto.is_empty());
        assert!(r.sim_seconds > 0.0);
        assert!(r.evaluations >= 12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, sim) = setup();
        let a = run_nsga2(&space, &sim, &quick_cfg(5)).unwrap();
        let b = run_nsga2(&space, &sim, &quick_cfg(5)).unwrap();
        assert_eq!(a.pareto_configs, b.pareto_configs);
    }

    #[test]
    fn improves_over_generations() {
        // More generations should not hurt the hypervolume of the proposal
        // (soft check: compare 1 vs 6 generations under the same seed).
        let (space, sim) = setup();
        let truth = sim.truth_objectives(&space);
        let all: Vec<Vec<f64>> = truth.iter().flatten().map(|t| t.to_vec()).collect();
        let mut mins = [f64::INFINITY; 3];
        let mut maxs = [f64::NEG_INFINITY; 3];
        for y in &all {
            for d in 0..3 {
                mins[d] = mins[d].min(y[d]);
                maxs[d] = maxs[d].max(y[d]);
            }
        }
        let hv_of = |pts: &[[f64; 3]]| {
            let norm: Vec<Vec<f64>> = pts
                .iter()
                .map(|p| {
                    (0..3)
                        .map(|d| (p[d] - mins[d]) / (maxs[d] - mins[d]).max(1e-12))
                        .collect()
                })
                .collect();
            pareto::hypervolume(&norm, &[1.1, 1.1, 1.1])
        };
        let short = run_nsga2(
            &space,
            &sim,
            &Nsga2Config {
                generations: 1,
                ..quick_cfg(9)
            },
        )
        .unwrap();
        let long = run_nsga2(
            &space,
            &sim,
            &Nsga2Config {
                generations: 6,
                ..quick_cfg(9)
            },
        )
        .unwrap();
        assert!(
            hv_of(&long.measured_pareto) >= hv_of(&short.measured_pareto) * 0.95,
            "long {} vs short {}",
            hv_of(&long.measured_pareto),
            hv_of(&short.measured_pareto)
        );
    }

    #[test]
    fn rejects_tiny_space() {
        let (space, sim) = setup();
        let cfg = Nsga2Config {
            population: space.len() + 1,
            ..Default::default()
        };
        assert!(matches!(
            run_nsga2(&space, &sim, &cfg),
            Err(BaselineError::SpaceTooSmall { .. })
        ));
    }

    #[test]
    fn selection_survives_nan_objectives() {
        // Regression for the D4 rule: NSGA-II's ranking + crowding +
        // environmental-selection pipeline must stay panic-free and total
        // when objective vectors contain NaN/∞ (e.g. a degenerate span or a
        // penalized invalid). `sort_by` with `partial_cmp` would either
        // panic here or silently produce a non-total order.
        let objs: Vec<Vec<f64>> = vec![
            vec![0.1, f64::NAN, 0.3],
            vec![f64::NAN, f64::NAN, f64::NAN],
            vec![0.2, 0.1, 0.9],
            vec![0.0, 0.4, f64::INFINITY],
            vec![0.2, 0.1, 0.9],
        ];
        let ranks = non_dominated_ranks(&objs);
        let crowd = crowding_distance(&objs);
        assert_eq!(ranks.len(), objs.len());
        assert_eq!(crowd.len(), objs.len());
        let order = environmental_order(&ranks, &crowd);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "order must be a permutation");
        // Ranks must be non-decreasing along the selected order.
        for w in order.windows(2) {
            assert!(ranks[w[0]] <= ranks[w[1]], "rank order violated: {order:?}");
        }
    }

    #[test]
    fn environmental_order_is_deterministic_with_nan_crowding() {
        // total_cmp gives NaN a fixed place in the order, so two calls agree
        // bit-for-bit — the property the BO-loop comparisons rely on.
        let ranks = vec![0, 0, 1, 0, 1];
        let crowd = vec![f64::NAN, 1.0, f64::INFINITY, f64::NAN, 0.0];
        let a = environmental_order(&ranks, &crowd);
        let b = environmental_order(&ranks, &crowd);
        assert_eq!(a, b);
        assert_eq!(a[..3].iter().filter(|&&i| ranks[i] == 0).count(), 3);
    }

    #[test]
    fn repair_returns_admissible_index() {
        let (space, _) = setup();
        let genome = vec![0usize; space.sites().len()];
        let idx = repair(&space, &genome);
        assert!(idx < space.len());
    }
}
