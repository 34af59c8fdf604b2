//! Ablations of the design choices the paper singles out, and of the
//! escalation guard this reproduction adds:
//!
//! * **A: objective correlation** (Sec. IV-B) — correlated multi-task GP vs
//!   independent per-objective GPs — crossed with **non-linear fidelity
//!   composition** (Sec. IV-A): Eq. 5, vs the linear AR(1) chain for
//!   independent objectives (FPL18) and no cross-fidelity transfer for
//!   correlated ones (`Corr+NoTransfer`),
//! * **B: the Eq. 10 cost penalty** — calibrated (γ = 0.3), literal
//!   (γ = 1.0), and disabled (γ = 0, the raw EIPV),
//! * **C: the fidelity-escalation guard** (`escalate_threshold`) — the
//!   default 0.05 vs 0, which never raises the picked fidelity.
//!
//! Usage: `cargo run --release -p cmmf-bench --bin ablation [--quick | --repeats N]`

use cmmf::{CmmfConfig, ModelVariant, Optimizer};
use cmmf_bench::{harness_args, BenchmarkSetup};
use fidelity_sim::Stage;
use hls_model::benchmarks::Benchmark;

fn main() {
    let repeats = harness_args(&["--threads", "--quick", "--repeats"])
        .repeats
        .min(6);
    let setups = [Benchmark::Gemm, Benchmark::SpmvEllpack].map(BenchmarkSetup::new);
    // The shipped configuration is section A's `Ours`, B's `calibrated 0.3`
    // and C's `threshold 0.05`: its campaigns run once per benchmark and
    // fill all three rows.
    let defaults = setups
        .each_ref()
        .map(|setup| run_repeats(setup, |_| {}, repeats));
    let shipped = CmmfConfig::default();

    println!("# Ablation A — model variants (correlation x fidelity composition)");
    println!(
        "{:<14} {:<16} {:>10} {:>10} {:>10}",
        "benchmark", "variant", "mean ADRS", "std ADRS", "sim hours"
    );
    let variants = [
        ModelVariant::paper(),
        ModelVariant {
            correlated_objectives: true,
            nonlinear_fidelity: false,
        },
        ModelVariant {
            correlated_objectives: false,
            nonlinear_fidelity: true,
        },
        ModelVariant::fpl18(),
    ];
    for (setup, default) in setups.iter().zip(&defaults) {
        for variant in variants {
            let row = if variant == shipped.variant {
                *default
            } else {
                run_repeats(setup, |cfg| cfg.variant = variant, repeats)
            };
            println!(
                "{:<14} {:<16} {:>10.4} {:>10.4} {:>10.1}",
                setup.benchmark.name(),
                variant.name(),
                row.mean,
                row.std,
                row.hours
            );
        }
    }
    println!();

    println!("# Ablation B — Eq. 10 cost penalty");
    println!(
        "{:<14} {:<16} {:>10} {:>10} {:>10} {:>8}",
        "benchmark", "penalty", "mean ADRS", "std ADRS", "sim hours", "hi-fid"
    );
    for (setup, default) in setups.iter().zip(&defaults) {
        for (label, gamma) in [
            ("calibrated 0.3", 0.3),
            ("literal 1.0", 1.0),
            ("disabled", 0.0),
        ] {
            let row = if gamma == shipped.cost_exponent {
                *default
            } else {
                run_repeats(setup, |cfg| cfg.cost_exponent = gamma, repeats)
            };
            print_counted_row(setup, label, row);
        }
    }
    println!();
    println!("# expected: the literal penalty never leaves HLS; disabling it runs the");
    println!("# expensive stages constantly; the calibrated exponent sits in between.");
    println!();

    println!("# Ablation C — fidelity-escalation guard");
    println!(
        "{:<14} {:<16} {:>10} {:>10} {:>10} {:>8}",
        "benchmark", "guard", "mean ADRS", "std ADRS", "sim hours", "hi-fid"
    );
    for (setup, default) in setups.iter().zip(&defaults) {
        for (label, threshold) in [("threshold 0.05", 0.05), ("disabled", 0.0)] {
            let row = if threshold == shipped.escalate_threshold {
                *default
            } else {
                run_repeats(setup, |cfg| cfg.escalate_threshold = threshold, repeats)
            };
            print_counted_row(setup, label, row);
        }
    }
}

/// One configuration's campaigns, summarized: mean and spread of ADRS,
/// mean simulated hours, and the mean number of configurations sampled
/// during the iterations that ran past HLS (`hi-fid`).
#[derive(Debug, Clone, Copy)]
struct Row {
    mean: f64,
    std: f64,
    hours: f64,
    hi_fid: f64,
}

/// Prints one row of sections B and C.
fn print_counted_row(setup: &BenchmarkSetup, label: &str, row: Row) {
    println!(
        "{:<14} {:<16} {:>10.4} {:>10.4} {:>10.1} {:>8.1}",
        setup.benchmark.name(),
        label,
        row.mean,
        row.std,
        row.hours,
        row.hi_fid
    );
}

/// Runs `repeats` campaigns of `setup` with `tweak` applied to the shipped
/// configuration, repeat `rep` seeded `71 + 97·rep`.
fn run_repeats(setup: &BenchmarkSetup, tweak: impl Fn(&mut CmmfConfig), repeats: usize) -> Row {
    let mut adrs = Vec::new();
    let mut hours = Vec::new();
    let mut hi_fid = 0usize;
    for rep in 0..repeats {
        let mut cfg = CmmfConfig {
            seed: 71 + rep as u64 * 97,
            ..Default::default()
        };
        tweak(&mut cfg);
        let r = Optimizer::new(cfg)
            .run(&setup.space, &setup.sim)
            .expect("ablation run succeeds");
        adrs.push(setup.front.adrs_of(&r.measured_pareto));
        hours.push(r.sim_seconds / 3600.0);
        hi_fid += r
            .candidate_set
            .iter()
            .filter(|c| c.stage != Stage::Hls)
            .count();
    }
    Row {
        mean: linalg::stats::mean(&adrs),
        std: linalg::stats::std_dev(&adrs),
        hours: linalg::stats::mean(&hours),
        hi_fid: hi_fid as f64 / repeats as f64,
    }
}
