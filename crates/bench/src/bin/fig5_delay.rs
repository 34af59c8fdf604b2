//! Regenerates **Fig. 5**: normalized Delay of every configuration at the
//! three fidelities, for GEMM (overlapping fidelities) and SPMV_ELLPACK
//! (divergent fidelities).
//!
//! Prints CSV: `benchmark,config,delay_hls,delay_syn,delay_impl` (each column
//! min-max normalized per benchmark as in the paper's plot), followed by the
//! mean absolute HLS-vs-Impl gap — the number that makes the Fig. 5a/5b
//! contrast quantitative.
//!
//! Usage: `cargo run --release -p cmmf-bench --bin fig5_delay`

use fidelity_sim::{FlowSimulator, RunOutcome, SimParams, Stage};
use hls_model::benchmarks::{self, Benchmark};

fn main() {
    cmmf_bench::harness_args(&[]);
    println!("benchmark,config,delay_hls,delay_syn,delay_impl");
    for b in [Benchmark::Gemm, Benchmark::SpmvEllpack] {
        let space = benchmarks::build(b)
            .unwrap()
            .pruned_space()
            .expect("space builds");
        let sim = FlowSimulator::new(SimParams::for_benchmark(b));

        // Collect raw delays per stage (invalid configs are skipped, matching
        // the paper's plotted population).
        let mut rows: Vec<(usize, [f64; 3])> = Vec::new();
        for i in 0..space.len() {
            let mut delays = [0.0; 3];
            let mut ok = true;
            for stage in Stage::all() {
                match sim.run(&space, i, stage) {
                    RunOutcome::Valid(r) => delays[stage.index()] = r.delay_ns(),
                    RunOutcome::Invalid { .. } => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                rows.push((i, delays));
            }
        }

        // Joint min-max normalization across all three stages, as in Fig. 5.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, d) in &rows {
            for v in d {
                lo = lo.min(*v);
                hi = hi.max(*v);
            }
        }
        let span = (hi - lo).max(1e-12);

        let mut gap = 0.0;
        for (i, d) in &rows {
            let n: Vec<f64> = d.iter().map(|v| (v - lo) / span).collect();
            println!("{},{i},{:.5},{:.5},{:.5}", b.name(), n[0], n[1], n[2]);
            gap += (n[0] - n[2]).abs();
        }
        gap /= rows.len() as f64;
        eprintln!(
            "# {}: {} valid configs, mean |hls - impl| normalized delay gap = {:.4}",
            b.name(),
            rows.len(),
            gap
        );
    }
    eprintln!(
        "# paper: GEMM's three fidelities overlap (Fig. 5a); SPMV_ELLPACK's diverge (Fig. 5b)"
    );
}
