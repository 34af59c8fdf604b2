//! Regenerates **Fig. 3** (the tree-based pruning example) and the Sec. V-A
//! pruning statistics (e.g. SORT_RADIX: ~3.8e12 raw configurations pruned to
//! ~20 000).
//!
//! Usage: `cargo run --release -p cmmf-bench --bin fig3_pruning`

use hls_model::benchmarks::{self, Benchmark};
use hls_model::ir::KernelIr;
use hls_model::tree::merged_trees;
use hls_model::{DesignSpaceBuilder, PartitionKind};

fn main() {
    cmmf_bench::harness_args(&[]);
    // --- The paper's Fig. 3 toy: 3 loops, arrays A and B -------------------
    println!("# Fig. 3 — tree-based pruning example");
    let mut k = KernelIr::new("fig3");
    let l1 = k
        .add_loop("L1", 10, None, 0.5, 0.0, 0.0)
        .expect("valid loop");
    let l2 = k
        .add_loop("L2", 10, Some(l1), 1.0, 2.0, 0.0)
        .expect("valid loop");
    let l3 = k
        .add_loop("L3", 10, Some(l1), 1.0, 2.0, 0.0)
        .expect("valid loop");
    let a = k.add_array("A", 100, vec![l2, l3]).expect("valid array");
    let b = k.add_array("B", 100, vec![l3]).expect("valid array");

    for t in merged_trees(&k) {
        let arrays: Vec<&str> = t
            .arrays
            .iter()
            .map(|id| k.arrays()[id.index()].name.as_str())
            .collect();
        let acc: Vec<&str> = t
            .accessing_loops
            .iter()
            .map(|id| k.loops()[id.index()].name.as_str())
            .collect();
        let forced: Vec<&str> = t
            .forced_loops
            .iter()
            .map(|id| k.loops()[id.index()].name.as_str())
            .collect();
        println!("merged tree: arrays={arrays:?} unrollable-loops={acc:?} kept-rolled={forced:?}");
    }

    let mut builder = DesignSpaceBuilder::new(k);
    builder
        .unroll(l1, &[1, 2, 5, 10])
        .unroll(l2, &[1, 2, 5, 10])
        .unroll(l3, &[1, 2, 5, 10])
        .partition(
            a,
            &[1, 2, 5, 10],
            &[PartitionKind::Cyclic, PartitionKind::Block],
        )
        .partition(
            b,
            &[1, 2, 5, 10],
            &[PartitionKind::Cyclic, PartitionKind::Block],
        );
    let pruned = builder.build_pruned().expect("fig3 space builds");
    println!(
        "fig3 toy: raw cross product = {:.0}, pruned = {} (factor {:.0}x)",
        pruned.full_size(),
        pruned.len(),
        pruned.full_size() / pruned.len() as f64
    );
    println!("sample pruned configurations (as directive lists):");
    for i in [0, pruned.len() / 2, pruned.len() - 1] {
        let directives: Vec<String> = pruned
            .resolve(i)
            .directives()
            .iter()
            .map(|d| d.to_string())
            .collect();
        println!("  config {i}: [{}]", directives.join(", "));
    }
    println!();

    // --- Per-benchmark pruning statistics (Sec. V-A) ------------------------
    println!("# Per-benchmark design-space pruning (paper: SORT_RADIX 3.8e12 -> 20000)");
    println!(
        "{:<14} {:>12} {:>10} {:>14}",
        "benchmark", "raw size", "pruned", "pruning factor"
    );
    for bench in Benchmark::all() {
        let model = benchmarks::build(bench).unwrap();
        let space = model.pruned_space().expect("benchmark space builds");
        println!(
            "{:<14} {:>12.3e} {:>10} {:>13.1e}",
            bench.name(),
            model.full_size(),
            space.len(),
            model.full_size() / space.len() as f64
        );
    }
}
