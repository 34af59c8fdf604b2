//! Regenerates **Table I**: normalized ADRS, normalized standard deviation of
//! ADRS, and normalized overall running time for the six benchmarks and five
//! methods, all expressed as ratios to the ANN column (as in the paper).
//!
//! Usage: `cargo run --release -p cmmf-bench --bin table1 [--quick | --repeats N]
//!         [--checkpoint-dir DIR]`
//!
//! With `--checkpoint-dir`, every GP-method run (Ours/FPL18) checkpoints to
//! `DIR/<bench>-<method>-rep<k>.ckpt.json` after each BO step and resumes
//! from it on a re-run, so a killed sweep continues where it stopped (see
//! ARCHITECTURE.md, "Observability & resume").
//!
//! The paper runs 10 tests for Ours/FPL18 and reports averages; the regression
//! baselines are driven by their hyperparameter sweeps. We repeat every method
//! `repeats` times with distinct seeds.

use cmmf_bench::{harness_args, repeat_method_checkpointed, BenchmarkSetup, Method, MethodCell};
use hls_model::benchmarks::Benchmark;

fn main() {
    let args = harness_args(&["--threads", "--quick", "--repeats", "--checkpoint-dir"]);
    let (repeats, ckpt_dir) = (args.repeats, args.checkpoint_dir);
    if let Some(dir) = &ckpt_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "error: cannot create --checkpoint-dir {}: {e}",
                dir.display()
            );
            std::process::exit(2);
        }
    }
    println!("# Table I — Normalized Experimental Results ({repeats} repeats/method)");
    println!("# All values are ratios to the ANN column of the same benchmark.");
    println!();
    let header = |what: &str| {
        println!("## Normalized {what}");
        println!(
            "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "Model", "Ours", "FPL18", "ANN", "BT", "DAC19"
        );
    };

    let mut all_cells: Vec<(Benchmark, Vec<MethodCell>)> = Vec::new();
    for b in Benchmark::all() {
        eprintln!("running {} ...", b.name());
        let setup = BenchmarkSetup::new(b);
        let cells: Vec<MethodCell> = Method::all()
            .iter()
            .map(|&m| repeat_method_checkpointed(&setup, m, repeats, 0xDA7E, ckpt_dir.as_deref()))
            .collect();
        all_cells.push((b, cells));
    }

    let ann = 2usize; // index of the ANN column
    let mut avg = vec![[0.0f64; 3]; Method::all().len()];

    for (metric, what) in [
        (0usize, "ADRS"),
        (1, "Standard Deviation of ADRS"),
        (2, "Overall Running Time"),
    ] {
        header(what);
        for (b, cells) in &all_cells {
            let base = pick(&cells[ann], metric).max(1e-12);
            print!("{:<14}", b.name());
            for (mi, c) in cells.iter().enumerate() {
                let v = pick(c, metric) / base;
                avg[mi][metric] += v / all_cells.len() as f64;
                print!(" {:>8.2}", v);
            }
            println!();
        }
        print!("{:<14}", "Average");
        for m in &avg {
            print!(" {:>8.2}", m[metric]);
        }
        println!();
        println!();
    }

    println!("# Paper reference (Table I averages): ADRS 0.39 / 0.51 / 1.00 / 0.96 / 1.05;");
    println!("# std-dev 0.16 / 0.47 / 1.00 / 0.89 / 1.16; time 0.54 / 0.65 / 1.00 / 1.00 / 7.00.");
    println!("# Expected shape: Ours <= FPL18 < ANN/BT/DAC19 on ADRS; DAC19 time = 7x ANN.");
}

fn pick(c: &MethodCell, metric: usize) -> f64 {
    match metric {
        0 => c.mean_adrs,
        1 => c.std_adrs,
        _ => c.mean_seconds,
    }
}
