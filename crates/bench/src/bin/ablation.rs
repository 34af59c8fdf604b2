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
use cmmf_bench::{install_threads_from_args, repeats_from_args, BenchmarkSetup};
use fidelity_sim::Stage;
use hls_model::benchmarks::Benchmark;

fn main() {
    install_threads_from_args();
    let repeats = repeats_from_args().min(6);
    let benches = [Benchmark::Gemm, Benchmark::SpmvEllpack];

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
    for b in benches {
        let setup = BenchmarkSetup::new(b);
        for variant in variants {
            let (mean, std, hours) = run_repeats(&setup, |cfg| cfg.variant = variant, repeats);
            println!(
                "{:<14} {:<16} {:>10.4} {:>10.4} {:>10.1}",
                b.name(),
                variant.name(),
                mean,
                std,
                hours
            );
        }
    }
    println!();

    println!("# Ablation B — Eq. 10 cost penalty");
    println!(
        "{:<14} {:<16} {:>10} {:>10} {:>10} {:>8}",
        "benchmark", "penalty", "mean ADRS", "std ADRS", "sim hours", "hi-fid"
    );
    for b in benches {
        let setup = BenchmarkSetup::new(b);
        for (label, gamma) in [
            ("calibrated 0.3", 0.3),
            ("literal 1.0", 1.0),
            ("disabled", 0.0),
        ] {
            print_counted_row(&setup, label, |cfg| cfg.cost_exponent = gamma, repeats);
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
    for b in benches {
        let setup = BenchmarkSetup::new(b);
        for (label, threshold) in [("threshold 0.05", 0.05), ("disabled", 0.0)] {
            print_counted_row(
                &setup,
                label,
                |cfg| cfg.escalate_threshold = threshold,
                repeats,
            );
        }
    }
}

/// Runs `repeats` campaigns of `setup` with `tweak` applied and prints one
/// row: mean and spread of ADRS, simulated hours, and the mean number of
/// configurations sampled during the iterations that ran past HLS
/// (`hi-fid`).
fn print_counted_row(
    setup: &BenchmarkSetup,
    label: &str,
    tweak: impl Fn(&mut CmmfConfig),
    repeats: usize,
) {
    let mut hi_fid = 0usize;
    let (mean, std, hours) = run_repeats_counting(setup, tweak, repeats, &mut hi_fid);
    println!(
        "{:<14} {:<16} {:>10.4} {:>10.4} {:>10.1} {:>8.1}",
        setup.benchmark.name(),
        label,
        mean,
        std,
        hours,
        hi_fid as f64 / repeats as f64
    );
}

fn run_repeats(
    setup: &BenchmarkSetup,
    tweak: impl Fn(&mut CmmfConfig),
    repeats: usize,
) -> (f64, f64, f64) {
    let mut unused = 0usize;
    run_repeats_counting(setup, tweak, repeats, &mut unused)
}

fn run_repeats_counting(
    setup: &BenchmarkSetup,
    tweak: impl Fn(&mut CmmfConfig),
    repeats: usize,
    hi_fid: &mut usize,
) -> (f64, f64, f64) {
    let mut adrs = Vec::new();
    let mut hours = Vec::new();
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
        *hi_fid += r
            .candidate_set
            .iter()
            .filter(|c| c.stage != Stage::Hls)
            .count();
    }
    (
        linalg::stats::mean(&adrs),
        linalg::stats::std_dev(&adrs),
        linalg::stats::mean(&hours),
    )
}
