//! Regenerates **Fig. 8**: the learned Pareto points of every method on GEMM
//! and SPMV_ELLPACK, in the (LUT, Delay) and (Power, Delay) projections, next
//! to the full population and the real Pareto front.
//!
//! Prints CSV: `benchmark,series,power,delay,lut` with series in
//! {data, real_pareto, Ours, FPL18, ANN, BT, DAC19}; all values normalized
//! per benchmark as in the paper's axes.
//!
//! Usage: `cargo run --release -p cmmf-bench --bin fig8_pareto`

use cmmf_bench::{harness_args, run_method, BenchmarkSetup, Method};
use hls_model::benchmarks::Benchmark;

fn main() {
    harness_args(&["--threads"]);
    println!("benchmark,series,power,delay,lut");
    for b in [Benchmark::Gemm, Benchmark::SpmvEllpack] {
        let setup = BenchmarkSetup::new(b);
        let truth = setup.sim.truth_objectives(&setup.space);

        // Every valid design point (the grey "Data" cloud), subsampled for
        // plotting, then the real Pareto front.
        for (i, t) in truth.iter().enumerate() {
            if i % 3 != 0 {
                continue;
            }
            if let Some(t) = t {
                let n = setup.front.normalize(t);
                println!("{},data,{:.4},{:.4},{:.4}", b.name(), n[0], n[1], n[2]);
            }
        }
        for p in &setup.front.points {
            println!(
                "{},real_pareto,{:.4},{:.4},{:.4}",
                b.name(),
                p[0],
                p[1],
                p[2]
            );
        }

        for method in Method::all() {
            eprintln!("running {} on {} ...", method.name(), b.name());
            let r = run_method(&setup, method, 0xF18);
            for y in &r.pareto {
                let n = setup.front.normalize(y);
                println!(
                    "{},{},{:.4},{:.4},{:.4}",
                    b.name(),
                    method.name(),
                    n[0],
                    n[1],
                    n[2]
                );
            }
            eprintln!(
                "# {} {}: {} Pareto points, ADRS {:.4}",
                b.name(),
                method.name(),
                r.pareto.len(),
                r.adrs
            );
        }
    }
    eprintln!("# paper: our learned Pareto points lie much closer to the real front (Fig. 8)");
}
