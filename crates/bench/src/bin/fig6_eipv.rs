//! Regenerates **Fig. 6**: the grid-cell decomposition of a 2-objective
//! (Power, Delay) value space around a Pareto front, and the EIPV landscape
//! that identifies the next candidate (the paper's green point).
//!
//! Prints the front, the non-dominated cells, and a CSV of candidate
//! configurations with their EIPV; the argmax is marked.
//!
//! Usage: `cargo run --release -p cmmf-bench --bin fig6_eipv`

use cmmf::eipv::EipvScorer;
use fidelity_sim::{FlowSimulator, SimParams};
use gp::kernel::Matern52;
use gp::{GpConfig, MultiTaskGp};
use hls_model::benchmarks::{self, Benchmark};
use pareto::pareto_front;
use rand::rngs::StdRng;
use rand::SeedableRng;

use cmmf_bench::harness_args;

fn main() {
    harness_args(&["--threads"]);
    let b = Benchmark::Gemm;
    let space = benchmarks::build(b)
        .unwrap()
        .pruned_space()
        .expect("space builds");
    let sim = FlowSimulator::new(SimParams::for_benchmark(b));
    let truth = sim.truth_objectives(&space);

    // Observe a small sample; project onto (Power, Delay) and normalize.
    let observed: Vec<usize> = (0..space.len()).step_by(97).take(16).collect();
    let raw: Vec<(usize, [f64; 2])> = observed
        .iter()
        .filter_map(|&i| truth[i].map(|t| (i, [t[0], t[1]])))
        .collect();
    let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
    for (_, y) in &raw {
        for d in 0..2 {
            lo[d] = lo[d].min(y[d]);
            hi[d] = hi[d].max(y[d]);
        }
    }
    let norm = |y: &[f64; 2]| -> Vec<f64> {
        (0..2)
            .map(|d| (y[d] - lo[d]) / (hi[d] - lo[d]).max(1e-12))
            .collect()
    };
    let ys: Vec<Vec<f64>> = raw.iter().map(|(_, y)| norm(y)).collect();
    let front = pareto_front(&ys);
    println!("# Pareto front of the observed sample (normalized Power, Delay):");
    for p in &front {
        println!("front,{:.4},{:.4}", p[0], p[1]);
    }

    // The grid between the ideal corner and v_ref (Fig. 6's cells) is the
    // scorer's own decomposition, listed with axis 0 varying fastest.
    // Interval 0 is open below; its lower end prints at the ideal corner.
    let ideal = [-0.2, -0.2];
    let reference = vec![1.2, 1.2];
    let scorer = EipvScorer::new(&front, &reference);
    let index = scorer.index();
    let mut cells: Vec<usize> = (0..index.cell_count())
        .filter(|&c| !index.is_cell_dominated(c))
        .collect();
    cells.sort_by_key(|&c| (index.cell_coord(c, 1), index.cell_coord(c, 0)));
    println!(
        "# {} non-dominated cells (of {} total):",
        cells.len(),
        index.cell_count()
    );
    for c in cells {
        let [(lo0, hi0), (lo1, hi1)] = [0, 1].map(|d| {
            let (lo, hi) = index.interval(d, index.cell_coord(c, d));
            (if lo.is_finite() { lo } else { ideal[d] }, hi)
        });
        println!("cell,{lo0:.4},{lo1:.4},{hi0:.4},{hi1:.4}");
    }

    // Fit a 2-task correlated GP on the observations and score candidates.
    let xs: Vec<Vec<f64>> = raw.iter().map(|(i, _)| space.encode(*i)).collect();
    let gp = MultiTaskGp::fit(Matern52::ard(space.dim()), &xs, &ys, &GpConfig::default())
        .expect("2-objective GP fits");

    println!("candidate,power_mean,delay_mean,eipv");
    let mut best: Option<(usize, f64)> = None;
    for (k, i) in (0..space.len()).step_by(41).take(60).enumerate() {
        let p = gp.predict(&space.encode(i)).expect("predict succeeds");
        let mut rng = StdRng::seed_from_u64(99 + k as u64);
        let e = scorer.eipv_mc(&p, 128, &mut rng);
        println!("{i},{:.4},{:.4},{:.6}", p.mean[0], p.mean[1], e);
        if best.map(|(_, be)| e > be).unwrap_or(true) {
            best = Some((i, e));
        }
    }
    let (i, e) = best.expect("candidates scored");
    println!("# selected candidate (the paper's green point): config {i}, EIPV = {e:.6}");
}
