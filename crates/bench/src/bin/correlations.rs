//! Validates Sec. IV-B's qualitative claims from *learned* models: "latency
//! and resource consumption are negatively correlated; power and resource
//! consumption are positively correlated". Runs the paper's optimizer on each
//! benchmark and prints the base-fidelity task-correlation matrix the
//! correlated multi-objective GP learned (objectives: Power, Delay, LUT),
//! next to the empirical ground-truth correlations of the whole space.
//!
//! Usage: `cargo run --release -p cmmf-bench --bin correlations`

use cmmf::{CmmfConfig, Optimizer};
use cmmf_bench::{harness_args, BenchmarkSetup};
use hls_model::benchmarks::Benchmark;

fn main() {
    harness_args(&["--threads"]);
    println!(
        "{:<14} {:>18} {:>18} {:>18}",
        "benchmark", "corr(P,D)", "corr(P,LUT)", "corr(D,LUT)"
    );
    for b in Benchmark::all() {
        let setup = BenchmarkSetup::new(b);

        // Empirical correlations of the ground truth over the whole space.
        let truth = setup.sim.truth_objectives(&setup.space);
        let pts: Vec<[f64; 3]> = truth.iter().flatten().copied().collect();
        let emp = |a: usize, c: usize| -> f64 {
            let ma = pts.iter().map(|p| p[a]).sum::<f64>() / pts.len() as f64;
            let mc = pts.iter().map(|p| p[c]).sum::<f64>() / pts.len() as f64;
            let cov: f64 = pts.iter().map(|p| (p[a] - ma) * (p[c] - mc)).sum();
            let va: f64 = pts.iter().map(|p| (p[a] - ma) * (p[a] - ma)).sum();
            let vc: f64 = pts.iter().map(|p| (p[c] - mc) * (p[c] - mc)).sum();
            cov / (va * vc).sqrt()
        };

        // Learned correlations after a default optimizer run.
        let cfg = CmmfConfig {
            n_iter: 20,
            ..Default::default()
        };
        let r = Optimizer::new(cfg)
            .run(&setup.space, &setup.sim)
            .expect("optimizer run succeeds");
        let learned = r
            .objective_correlations
            .expect("paper variant is correlated");
        let base = &learned[0];

        let cell = |a: usize, c: usize| format!("{:+.2} (true {:+.2})", base[(a, c)], emp(a, c));
        println!(
            "{:<14} {:>18} {:>18} {:>18}",
            b.name(),
            cell(0, 1),
            cell(0, 2),
            cell(1, 2)
        );
    }
    println!();
    println!("# Sec. IV-B expects corr(Power, LUT) > 0 and corr(Delay, LUT) < 0;");
    println!("# the learned task covariances should track the empirical signs.");
}
