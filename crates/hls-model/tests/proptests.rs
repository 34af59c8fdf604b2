//! Property-based tests of design-space construction, pruning, and encoding
//! over *randomly generated kernels* — the pruner's compatibility guarantees
//! must hold for any kernel shape, not just the shipped benchmarks.

use cmmf_hls_model::benchmarks::{self, Benchmark};
use cmmf_hls_model::ir::KernelIr;
use cmmf_hls_model::tree::{merged_trees, MergedTree};
use cmmf_hls_model::{DesignSpace, DesignSpaceBuilder, LoopId, PartitionKind, ResolvedConfig};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeSet;

/// A random kernel: 2-4 top-level nests of depth 1-2, each with an array, and
/// a random subset of factor options.
#[derive(Debug, Clone)]
struct RandomKernel {
    nests: Vec<(u32, u32, bool)>, // (outer trip, inner trip, has_inner)
    factors: Vec<u32>,
}

fn random_kernel() -> impl Strategy<Value = RandomKernel> {
    (
        proptest::collection::vec((2u32..64, 2u32..32, any::<bool>()), 2..=4),
        proptest::sample::subsequence(vec![2u32, 4, 8, 16], 1..=3),
    )
        .prop_map(|(nests, factors)| RandomKernel { nests, factors })
}

fn build(rk: &RandomKernel) -> DesignSpaceBuilder {
    let mut k = KernelIr::new("random");
    let mut arrays = Vec::new();
    let mut unroll_loops = Vec::new();
    for (i, &(t_out, t_in, has_inner)) in rk.nests.iter().enumerate() {
        let outer = k
            .add_loop(format!("o{i}"), t_out, None, 1.0, 1.0, 0.1)
            .expect("unique names");
        let accessing = if has_inner {
            k.add_loop(format!("i{i}"), t_in, Some(outer), 2.0, 2.0, 0.2)
                .expect("unique names")
        } else {
            outer
        };
        let a = k
            .add_array(format!("a{i}"), t_out * t_in, vec![accessing])
            .expect("valid array");
        arrays.push(a);
        unroll_loops.push(accessing);
    }
    let mut b = DesignSpaceBuilder::new(k);
    for (l, a) in unroll_loops.iter().zip(&arrays) {
        b.unroll(*l, &rk.factors)
            .partition(
                *a,
                &rk.factors,
                &[PartitionKind::Cyclic, PartitionKind::Block],
            )
            .pipeline(*l, &[0, 1]);
    }
    b.inline();
    b
}

/// Partition schemes every array offers in [`build_small`], first option
/// first.
const SCHEMES: [PartitionKind; 2] = [PartitionKind::Cyclic, PartitionKind::Block];

/// A kernel small enough to enumerate in full: 2-3 nests of depth 1-2, each
/// with an array; an array may also be read in the previous nest's accessing
/// loop, which merges the two trees. At most two factors besides 1.
#[derive(Debug, Clone)]
struct SmallKernel {
    nests: Vec<(bool, bool)>, // (has_inner, array also read in the previous nest)
    factors: Vec<u32>,
}

fn small_kernel() -> impl Strategy<Value = SmallKernel> {
    (
        proptest::collection::vec((any::<bool>(), any::<bool>()), 2..=3),
        proptest::sample::subsequence(vec![2u32, 4, 8], 1..=2),
    )
        .prop_map(|(nests, factors)| SmallKernel { nests, factors })
}

/// Unroll sites on every loop (outer loops of two-deep nests get factor 2,
/// so the forced-loop rule has something to prune), a partition factor and
/// scheme site per array, and the free inline site: at most 93,312
/// configurations in full.
fn build_small(sk: &SmallKernel) -> DesignSpaceBuilder {
    let mut k = KernelIr::new("small");
    let mut outers = Vec::new();
    let mut accessing = Vec::new();
    for (i, &(has_inner, _)) in sk.nests.iter().enumerate() {
        let outer = k
            .add_loop(format!("o{i}"), 16, None, 1.0, 1.0, 0.1)
            .expect("unique names");
        let acc = if has_inner {
            outers.push(outer);
            k.add_loop(format!("i{i}"), 8, Some(outer), 2.0, 2.0, 0.2)
                .expect("unique names")
        } else {
            outer
        };
        accessing.push(acc);
    }
    let mut arrays = Vec::new();
    for (i, &(_, shares_prev)) in sk.nests.iter().enumerate() {
        let mut read_in = vec![accessing[i]];
        if shares_prev && i > 0 {
            read_in.push(accessing[i - 1]);
        }
        arrays.push(
            k.add_array(format!("a{i}"), 128, read_in)
                .expect("valid array"),
        );
    }
    let mut b = DesignSpaceBuilder::new(k);
    for &l in &outers {
        b.unroll(l, &[2]);
    }
    for &l in &accessing {
        b.unroll(l, &sk.factors);
    }
    for &a in &arrays {
        b.partition(a, &sk.factors, &SCHEMES);
    }
    b.inline();
    b
}

/// Algorithm 1's compatibility rules over one resolved configuration,
/// written out independently of the pruned enumeration: within each merged
/// tree, the accessing loops share one unroll factor that every member
/// array's partition factor equals; loops that only enclose accessing loops
/// stay rolled; member arrays share a scheme, and at factor 1 it is the
/// first scheme option (Alg. 1 line 15's pin).
fn compatible(r: &ResolvedConfig, trees: &[MergedTree]) -> bool {
    trees.iter().all(|t| {
        let f = r.unroll[t.accessing_loops[0].index()];
        let kind = r.partition_kind[t.arrays[0].index()];
        t.forced_loops.iter().all(|l| r.unroll[l.index()] == 1)
            && t.accessing_loops.iter().all(|l| r.unroll[l.index()] == f)
            && t.arrays
                .iter()
                .all(|a| r.partition_factor[a.index()] == f && r.partition_kind[a.index()] == kind)
            && (f > 1 || kind == SCHEMES[0])
    })
}

/// A resolved configuration as an ordered key.
fn resolved_key(r: &ResolvedConfig) -> Vec<u32> {
    let scheme = |k: &PartitionKind| match k {
        PartitionKind::Cyclic => 0,
        PartitionKind::Block => 1,
        PartitionKind::Complete => 2,
    };
    r.unroll
        .iter()
        .chain(&r.pipeline_ii)
        .chain(&r.partition_factor)
        .copied()
        .chain(r.partition_kind.iter().map(scheme))
        .chain([u32::from(r.inline)])
        .collect()
}

fn resolved_set(space: &DesignSpace, keep: impl Fn(&ResolvedConfig) -> bool) -> BTreeSet<Vec<u32>> {
    (0..space.len())
        .map(|i| space.resolve(i))
        .filter(|r| keep(r))
        .map(|r| resolved_key(&r))
        .collect()
}

/// Pruning keeps exactly the compatible configurations of the full space:
/// the resolved pruned configurations, as a set, equal the full space
/// filtered by [`compatible`], and the pruned space holds no duplicates.
fn assert_pruning_is_complete(builder: &DesignSpaceBuilder) -> Result<(), TestCaseError> {
    let full = builder.build_full().expect("full space builds");
    let pruned = builder.build_pruned().expect("pruned space builds");
    let trees = merged_trees(full.kernel());
    let expected = resolved_set(&full, |r| compatible(r, &trees));
    let got = resolved_set(&pruned, |_| true);
    prop_assert_eq!(got.len(), pruned.len());
    let dropped: Vec<_> = expected.difference(&got).take(3).collect();
    let incompatible: Vec<_> = got.difference(&expected).take(3).collect();
    prop_assert!(
        dropped.is_empty() && incompatible.is_empty(),
        "pruning dropped {dropped:?} and kept {incompatible:?} (first 3 each)"
    );
    Ok(())
}

#[test]
fn pruning_keeps_every_compatible_config_of_a_merged_tree() {
    // Nest 1's array is also read in nest 0's inner loop, so both arrays
    // form one tree with both inner loops accessing and both outer loops
    // forced to stay rolled.
    let sk = SmallKernel {
        nests: vec![(true, false), (true, true)],
        factors: vec![2, 4],
    };
    let trees = merged_trees(build_small(&sk).build_pruned().unwrap().kernel());
    assert_eq!(trees.len(), 1);
    assert_eq!(trees[0].arrays.len(), 2);
    assert_eq!(trees[0].forced_loops.len(), 2);
    assert_pruning_is_complete(&build_small(&sk)).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pruning_keeps_every_compatible_config(sk in small_kernel()) {
        assert_pruning_is_complete(&build_small(&sk))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruned_space_is_nonempty_and_smaller(rk in random_kernel()) {
        let builder = build(&rk);
        let pruned = builder.build_pruned().expect("pruned space builds");
        prop_assert!(!pruned.is_empty());
        prop_assert!((pruned.len() as f64) <= builder.full_size());
    }

    #[test]
    fn pruned_configs_satisfy_compatibility(rk in random_kernel()) {
        let builder = build(&rk);
        let pruned = builder.build_pruned().expect("pruned space builds");
        let kernel = pruned.kernel();
        let trees = merged_trees(kernel);
        let step = (pruned.len() / 50).max(1);
        for i in (0..pruned.len()).step_by(step) {
            let r = pruned.resolve(i);
            for t in &trees {
                // Forced loops stay rolled.
                for l in &t.forced_loops {
                    prop_assert_eq!(r.unroll[l.index()], 1);
                }
                // Accessing loops share one factor, matched by every array.
                let factors: Vec<u32> = t
                    .accessing_loops
                    .iter()
                    .map(|l| r.unroll[l.index()])
                    .collect();
                for w in factors.windows(2) {
                    prop_assert_eq!(w[0], w[1]);
                }
                if let Some(&f) = factors.first() {
                    for a in &t.arrays {
                        prop_assert_eq!(r.partition_factor[a.index()], f);
                    }
                }
            }
        }
    }

    #[test]
    fn encodings_are_unit_box_and_injective_per_config(rk in random_kernel()) {
        let builder = build(&rk);
        let pruned = builder.build_pruned().expect("pruned space builds");
        let step = (pruned.len() / 30).max(1);
        let mut seen: Vec<Vec<u64>> = Vec::new();
        for i in (0..pruned.len()).step_by(step) {
            let x = pruned.encode(i);
            prop_assert_eq!(x.len(), pruned.dim());
            prop_assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            prop_assert!(!seen.contains(&bits), "duplicate encoding");
            seen.push(bits);
        }
    }

    #[test]
    fn resolve_is_consistent_with_directives(rk in random_kernel()) {
        let builder = build(&rk);
        let pruned = builder.build_pruned().expect("pruned space builds");
        let r = pruned.resolve(pruned.len() - 1);
        // Every emitted directive reflects a non-default resolved value.
        for d in r.directives() {
            match d {
                cmmf_hls_model::Directive::Unroll { loop_id, factor } => {
                    prop_assert_eq!(r.unroll[loop_id.index()], factor);
                    prop_assert!(factor > 1);
                }
                cmmf_hls_model::Directive::Pipeline { loop_id, ii } => {
                    prop_assert_eq!(r.pipeline_ii[loop_id.index()], ii);
                    prop_assert!(ii > 0);
                }
                cmmf_hls_model::Directive::ArrayPartition { array_id, factor, .. } => {
                    prop_assert_eq!(r.partition_factor[array_id.index()], factor);
                    prop_assert!(factor > 1);
                }
                cmmf_hls_model::Directive::Inline { on } => prop_assert!(on),
            }
        }
    }
}

#[test]
fn merged_trees_cover_every_array_exactly_once() {
    for b in Benchmark::all() {
        let space = benchmarks::build(b)
            .unwrap()
            .pruned_space()
            .expect("builds");
        let trees = merged_trees(space.kernel());
        let mut seen = vec![0usize; space.kernel().arrays().len()];
        for t in &trees {
            for a in &t.arrays {
                seen[a.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{}: {seen:?}", b.name());
    }
}

#[test]
fn loop_ids_in_trees_exist() {
    for b in Benchmark::all() {
        let space = benchmarks::build(b)
            .unwrap()
            .pruned_space()
            .expect("builds");
        let n = space.kernel().loops().len();
        for t in merged_trees(space.kernel()) {
            for l in t.all_loops() {
                assert!(l.index() < n);
            }
        }
    }
    let _ = LoopId::new(0); // silence unused-import lints on some toolchains
}
