//! Asynchronous scheduler makespan: virtual-clock time to finish the same
//! evaluation budget with `k` simulated tool runs in flight, vs the
//! sequential loop (`k = 1`), across `k ∈ {1, 2, 4, 8}`.
//!
//! Usage: `cargo run --release -p cmmf-bench --bin async_makespan`
//!        `cargo run --release -p cmmf-bench --bin async_makespan -- --smoke`
//!
//! The measured quantity is *simulated* seconds on the deterministic event
//! clock — the schedule, and therefore every number here, is a pure function
//! of the seed and the cost model, so this harness needs no wall-clock
//! statistics and runs identically on any host. The harness first asserts
//! that `k = 4` finishes the budget in at most half the sequential makespan.
//! `--smoke` runs only that assertion (the CI gate); a full run sweeps three
//! kernels, also reports ADRS at the end of each schedule, and writes
//! `BENCH_async.json`.
//!
//! ADRS-at-budget note: every schedule runs the same `n_init + n_iter`
//! evaluations, and an overlapped schedule finishes them strictly earlier on
//! the virtual clock — so its ADRS *at the sequential run's makespan* equals
//! its final ADRS (all evaluations are already in). The table therefore
//! reports final ADRS per `k`; equal ADRS at a smaller makespan is the win.

use cmmf::runner::TrueFront;
use cmmf::{CmmfConfig, Optimizer, RunResult};
use fidelity_sim::{FlowSimulator, SimParams};
use hls_model::benchmarks::{self, Benchmark};

const SLOTS: [usize; 4] = [1, 2, 4, 8];
const KERNELS: [Benchmark; 3] = [Benchmark::Gemm, Benchmark::SpmvCrs, Benchmark::Stencil3d];

fn cfg(slots: usize) -> CmmfConfig {
    let mut cfg = CmmfConfig {
        n_iter: 12,
        candidate_pool: 60,
        mc_samples: 8,
        refit_every: 4,
        final_prediction_pool: 400,
        async_slots: slots,
        seed: 2021,
        ..Default::default()
    };
    cfg.gp.restarts = 0;
    cfg.gp.max_evals = 60;
    cfg
}

fn setup(b: Benchmark) -> (hls_model::DesignSpace, FlowSimulator) {
    (
        benchmarks::build(b)
            .expect("builds")
            .pruned_space()
            .expect("prunes"),
        FlowSimulator::new(SimParams::for_benchmark(b)),
    )
}

/// Contract: four slots finish the same evaluation budget in at most half
/// the sequential virtual-clock makespan.
fn assert_makespan_contract() {
    let (space, sim) = setup(Benchmark::SpmvCrs);
    let seq = Optimizer::new(cfg(1)).run(&space, &sim).expect("runs");
    let k4 = Optimizer::new(cfg(4)).run(&space, &sim).expect("runs");
    assert_eq!(
        seq.candidate_set.len(),
        k4.candidate_set.len(),
        "same evaluation budget"
    );
    let ratio = k4.sim_seconds / seq.sim_seconds;
    assert!(
        ratio <= 0.5,
        "k=4 makespan must be at most half of sequential, got {ratio:.3} \
         ({:.0}s vs {:.0}s)",
        k4.sim_seconds,
        seq.sim_seconds
    );
    println!(
        "contract ok: k=4 makespan {:.3}x of sequential ({:.0}s vs {:.0}s)",
        ratio, k4.sim_seconds, seq.sim_seconds
    );
}

struct Row {
    benchmark: &'static str,
    slots: usize,
    makespan: f64,
    ratio: f64,
    adrs: f64,
}

fn sweep() -> Vec<Row> {
    let mut rows = Vec::new();
    for b in KERNELS {
        let (space, sim) = setup(b);
        let truth = TrueFront::compute(&space, &sim);
        let mut baseline = f64::NAN;
        for k in SLOTS {
            let r: RunResult = Optimizer::new(cfg(k)).run(&space, &sim).expect("runs");
            if k == 1 {
                baseline = r.sim_seconds;
            }
            let row = Row {
                benchmark: b.name(),
                slots: k,
                makespan: r.sim_seconds,
                ratio: r.sim_seconds / baseline,
                adrs: truth.adrs_of(&r.measured_pareto),
            };
            println!(
                "{:<12} k={}  makespan {:>9.0}s  ({:.3}x of k=1)  adrs {:.4}",
                row.benchmark, row.slots, row.makespan, row.ratio, row.adrs
            );
            rows.push(row);
        }
    }
    rows
}

fn write_report(rows: &[Row]) {
    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"slots\": {}, \"makespan_seconds\": {:.3}, \
             \"makespan_ratio\": {:.4}, \"adrs\": {:.6}}}{}\n",
            r.benchmark,
            r.slots,
            r.makespan,
            r.ratio,
            r.adrs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"hardware_threads\": {},\n  \"slots\": {:?},\n  \"rows\": [\n{}  ]\n}}\n",
        rayon::hardware_threads(),
        SLOTS,
        body,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_async.json");
    std::fs::write(path, json).expect("write BENCH_async.json");
    println!("wrote {path}");
}

fn main() {
    let smoke = cmmf_bench::harness_args(&["--smoke"]).smoke;
    assert_makespan_contract();
    if smoke {
        println!("smoke ok");
        return;
    }
    let rows = sweep();
    write_report(&rows);
}
