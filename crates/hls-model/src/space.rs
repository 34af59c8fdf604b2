//! Directive design spaces: sites, configurations, pruned enumeration
//! (Algorithm 1), and resolution of a configuration into concrete directives.

use crate::directive::{Directive, PartitionKind};
use crate::ir::{ArrayId, KernelIr, LoopId};
use crate::tree::merged_trees;
use crate::ModelError;

/// What a tunable directive site controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// Unroll factor of a loop; options are factors (must include 1).
    Unroll(LoopId),
    /// Pipeline initiation interval of a loop; option 0 means "not pipelined".
    Pipeline(LoopId),
    /// Partition factor of an array; options are factors (must include 1).
    PartitionFactor(ArrayId),
    /// Partition scheme of an array; options index
    /// `[cyclic, block, complete]` (0, 1, 2).
    PartitionScheme(ArrayId),
    /// Function inlining; options are `0` (off) and `1` (on).
    Inline,
}

/// One tunable directive site with its candidate factor values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// What the site controls.
    pub kind: SiteKind,
    /// Candidate values, ascending.
    pub options: Vec<u32>,
}

/// A configuration resolved to concrete per-entity directive values, the form
/// consumed by the design-flow simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedConfig {
    /// Unroll factor per loop (index = [`LoopId::index`]), default 1.
    pub unroll: Vec<u32>,
    /// Pipeline II per loop, 0 = not pipelined.
    pub pipeline_ii: Vec<u32>,
    /// Partition factor per array, default 1.
    pub partition_factor: Vec<u32>,
    /// Partition scheme per array.
    pub partition_kind: Vec<PartitionKind>,
    /// Whether helper functions are inlined.
    pub inline: bool,
}

impl ResolvedConfig {
    /// Renders the configuration as a directive list (useful for logs and the
    /// Fig. 3 harness).
    pub fn directives(&self) -> Vec<Directive> {
        let mut out = Vec::new();
        for (i, &f) in self.unroll.iter().enumerate() {
            if f > 1 {
                out.push(Directive::Unroll {
                    loop_id: LoopId::new(i),
                    factor: f,
                });
            }
        }
        for (i, &ii) in self.pipeline_ii.iter().enumerate() {
            if ii > 0 {
                out.push(Directive::Pipeline {
                    loop_id: LoopId::new(i),
                    ii,
                });
            }
        }
        for (i, (&f, &k)) in self
            .partition_factor
            .iter()
            .zip(&self.partition_kind)
            .enumerate()
        {
            if f > 1 {
                out.push(Directive::ArrayPartition {
                    array_id: ArrayId::new(i),
                    kind: k,
                    factor: f,
                });
            }
        }
        if self.inline {
            out.push(Directive::Inline { on: true });
        }
        out
    }
}

/// Builder for a [`DesignSpace`]: declare the directive sites over a kernel,
/// then enumerate either the raw cross product or the tree-pruned space.
#[derive(Debug, Clone)]
pub struct DesignSpaceBuilder {
    kernel: KernelIr,
    sites: Vec<Site>,
    max_configs: usize,
}

impl DesignSpaceBuilder {
    /// Starts a design space over `kernel`.
    pub fn new(kernel: KernelIr) -> Self {
        DesignSpaceBuilder {
            kernel,
            sites: Vec::new(),
            max_configs: 200_000,
        }
    }

    /// Caps the number of enumerated configurations (default 200 000).
    pub fn max_configs(&mut self, cap: usize) -> &mut Self {
        self.max_configs = cap;
        self
    }

    /// Adds an unroll site on `l` with candidate `factors` (1 is added if
    /// missing).
    pub fn unroll(&mut self, l: LoopId, factors: &[u32]) -> &mut Self {
        self.sites.push(Site {
            kind: SiteKind::Unroll(l),
            options: with_one(factors),
        });
        self
    }

    /// Adds a pipeline site on `l` with candidate initiation intervals
    /// (0 = off is added if missing).
    pub fn pipeline(&mut self, l: LoopId, iis: &[u32]) -> &mut Self {
        let mut opts = iis.to_vec();
        if !opts.contains(&0) {
            opts.push(0);
        }
        opts.sort_unstable();
        opts.dedup();
        self.sites.push(Site {
            kind: SiteKind::Pipeline(l),
            options: opts,
        });
        self
    }

    /// Adds partition-factor and (when `schemes` has more than one entry)
    /// partition-scheme sites on `a`.
    pub fn partition(
        &mut self,
        a: ArrayId,
        factors: &[u32],
        schemes: &[PartitionKind],
    ) -> &mut Self {
        self.sites.push(Site {
            kind: SiteKind::PartitionFactor(a),
            options: with_one(factors),
        });
        let scheme_opts: Vec<u32> = schemes.iter().map(|s| scheme_code(*s)).collect();
        self.sites.push(Site {
            kind: SiteKind::PartitionScheme(a),
            options: if scheme_opts.is_empty() {
                vec![0]
            } else {
                dedup_sorted(scheme_opts)
            },
        });
        self
    }

    /// Adds the kernel-wide inline on/off site.
    pub fn inline(&mut self) -> &mut Self {
        self.sites.push(Site {
            kind: SiteKind::Inline,
            options: vec![0, 1],
        });
        self
    }

    /// Enumerates the **tree-pruned** design space (Algorithm 1): within each
    /// merged array/loop tree, unroll and partition factors must be equal and
    /// schemes shared; ancestor-only loops stay rolled. Pipeline and inline
    /// sites remain free.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidStructure`] if the pruned space still exceeds the
    ///   configured cap or a site references an unknown entity.
    /// * [`ModelError::EmptyDesignSpace`] if no compatible configuration exists.
    pub fn build_pruned(&self) -> Result<DesignSpace, ModelError> {
        self.validate()?;
        let trees = merged_trees(&self.kernel);

        // Per-tree choice lists: (common factor, scheme code) pairs.
        let mut tree_choices: Vec<Vec<(u32, u32)>> = Vec::new();
        for t in &trees {
            // Candidate common factors: intersection of the accessing loops'
            // unroll options and the member arrays' partition-factor options
            // (sites without an explicit list only allow factor 1).
            let mut common: Option<Vec<u32>> = None;
            let mut restrict = |opts: &[u32]| {
                common = Some(match &common {
                    None => opts.to_vec(),
                    Some(c) => c.iter().copied().filter(|v| opts.contains(v)).collect(),
                });
            };
            for &l in &t.accessing_loops {
                restrict(self.options_for(SiteKind::Unroll(l)).unwrap_or(&[1]));
            }
            for &a in &t.arrays {
                restrict(
                    self.options_for(SiteKind::PartitionFactor(a))
                        .unwrap_or(&[1]),
                );
            }
            let factors = common.unwrap_or_else(|| vec![1]);
            // Scheme options: intersection across member arrays' scheme sites.
            let mut schemes: Option<Vec<u32>> = None;
            for &a in &t.arrays {
                let opts = self
                    .options_for(SiteKind::PartitionScheme(a))
                    .unwrap_or(&[0]);
                schemes = Some(match &schemes {
                    None => opts.to_vec(),
                    Some(s) => s.iter().copied().filter(|v| opts.contains(v)).collect(),
                });
            }
            let schemes = schemes.unwrap_or_else(|| vec![0]);
            let mut choices = Vec::new();
            for &f in &factors {
                if f == 1 {
                    // Factor 1 makes the scheme irrelevant; pin it to avoid
                    // duplicate configurations (Alg. 1 line 15).
                    choices.push((1, schemes[0]));
                } else {
                    for &s in &schemes {
                        choices.push((f, s));
                    }
                }
            }
            if choices.is_empty() {
                return Err(ModelError::EmptyDesignSpace);
            }
            tree_choices.push(choices);
        }

        // Free sites: pipeline, inline, plus unroll sites on loops outside all
        // trees (no array interaction to constrain them).
        let mut free_sites: Vec<usize> = Vec::new();
        for (si, site) in self.sites.iter().enumerate() {
            match site.kind {
                SiteKind::Pipeline(_) | SiteKind::Inline => free_sites.push(si),
                SiteKind::Unroll(l) if !trees.iter().any(|t| t.all_loops().any(|tl| tl == l)) => {
                    free_sites.push(si);
                }
                _ => {}
            }
        }

        // Enumerate: per-tree choice index × free-site option indices.
        let mut radix: Vec<usize> = tree_choices.iter().map(Vec::len).collect();
        radix.extend(free_sites.iter().map(|&si| self.sites[si].options.len()));
        let total = capped_size(&radix, self.max_configs, "pruned space")?;

        let mut configs: Vec<Vec<usize>> = Vec::with_capacity(total);
        let mut counter = vec![0usize; radix.len()];
        for _ in 0..total {
            let mut cfg = vec![0usize; self.sites.len()];
            // Apply tree choices.
            for (ti, t) in trees.iter().enumerate() {
                let (factor, scheme) = tree_choices[ti][counter[ti]];
                for &l in &t.accessing_loops {
                    if let Some(si) = self.site_index(SiteKind::Unroll(l)) {
                        cfg[si] = option_index(&self.sites[si], factor);
                    }
                }
                for &l in &t.forced_loops {
                    if let Some(si) = self.site_index(SiteKind::Unroll(l)) {
                        cfg[si] = option_index(&self.sites[si], 1);
                    }
                }
                for &a in &t.arrays {
                    if let Some(si) = self.site_index(SiteKind::PartitionFactor(a)) {
                        cfg[si] = option_index(&self.sites[si], factor);
                    }
                    if let Some(si) = self.site_index(SiteKind::PartitionScheme(a)) {
                        cfg[si] = option_index(&self.sites[si], scheme);
                    }
                }
            }
            // Apply free sites.
            for (k, &si) in free_sites.iter().enumerate() {
                cfg[si] = counter[tree_choices.len() + k];
            }
            configs.push(cfg);
            // Increment mixed-radix counter.
            for d in 0..counter.len() {
                counter[d] += 1;
                if counter[d] < radix[d] {
                    break;
                }
                counter[d] = 0;
            }
        }
        configs.sort();
        configs.dedup();
        if configs.is_empty() {
            return Err(ModelError::EmptyDesignSpace);
        }

        Ok(DesignSpace {
            kernel: self.kernel.clone(),
            sites: self.sites.clone(),
            full_size: self.full_size(),
            configs,
        })
    }

    /// Enumerates the raw cross product of every site's options (no pruning).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidStructure`] if the product exceeds the cap.
    pub fn build_full(&self) -> Result<DesignSpace, ModelError> {
        self.validate()?;
        let radix: Vec<usize> = self.sites.iter().map(|s| s.options.len()).collect();
        let total = capped_size(&radix, self.max_configs, "full space")?;
        let mut configs = Vec::with_capacity(total);
        let mut counter = vec![0usize; radix.len()];
        for _ in 0..total {
            configs.push(counter.clone());
            for d in 0..counter.len() {
                counter[d] += 1;
                if counter[d] < radix[d] {
                    break;
                }
                counter[d] = 0;
            }
        }
        Ok(DesignSpace {
            kernel: self.kernel.clone(),
            sites: self.sites.clone(),
            full_size: self.full_size(),
            configs,
        })
    }

    /// Size of the un-pruned cross product (may be astronomically large, hence
    /// `f64`).
    pub fn full_size(&self) -> f64 {
        self.sites.iter().map(|s| s.options.len() as f64).product()
    }

    fn validate(&self) -> Result<(), ModelError> {
        for s in &self.sites {
            let ok = match s.kind {
                SiteKind::Unroll(l) | SiteKind::Pipeline(l) => {
                    l.index() < self.kernel.loops().len()
                }
                SiteKind::PartitionFactor(a) | SiteKind::PartitionScheme(a) => {
                    a.index() < self.kernel.arrays().len()
                }
                SiteKind::Inline => true,
            };
            if !ok {
                return Err(ModelError::UnknownEntity {
                    kind: "site target",
                    name: format!("{:?}", s.kind),
                });
            }
            if s.options.is_empty() {
                return Err(ModelError::InvalidStructure {
                    reason: format!("site {:?} has no options", s.kind),
                });
            }
        }
        Ok(())
    }

    fn site_index(&self, kind: SiteKind) -> Option<usize> {
        self.sites.iter().position(|s| s.kind == kind)
    }

    fn options_for(&self, kind: SiteKind) -> Option<&[u32]> {
        self.site_index(kind)
            .map(|i| self.sites[i].options.as_slice())
    }
}

/// An enumerated directive design space: the kernel, its sites, and the list of
/// admissible configurations (each an option index per site).
#[derive(Debug, Clone)]
pub struct DesignSpace {
    kernel: KernelIr,
    sites: Vec<Site>,
    configs: Vec<Vec<usize>>,
    full_size: f64,
}

impl DesignSpace {
    /// Number of enumerated configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the space is empty (never true for a successfully built space).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Size of the raw, un-pruned cross product.
    pub fn full_size(&self) -> f64 {
        self.full_size
    }

    /// The kernel this space is defined over.
    pub fn kernel(&self) -> &KernelIr {
        &self.kernel
    }

    /// The directive sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Option indices of configuration `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn config(&self, i: usize) -> &[usize] {
        &self.configs[i]
    }

    /// Encodes configuration `i` as a feature vector (Sec. III-B): one entry
    /// per site, min-max normalized over the site's option values.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn encode(&self, i: usize) -> Vec<f64> {
        crate::encode::encode_config(&self.sites, &self.configs[i])
    }

    /// Feature-vector dimension (= number of sites).
    pub fn dim(&self) -> usize {
        self.sites.len()
    }

    /// Resolves configuration `i` to concrete per-entity directive values.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn resolve(&self, i: usize) -> ResolvedConfig {
        let cfg = &self.configs[i];
        let n_loops = self.kernel.loops().len();
        let n_arrays = self.kernel.arrays().len();
        let mut r = ResolvedConfig {
            unroll: vec![1; n_loops],
            pipeline_ii: vec![0; n_loops],
            partition_factor: vec![1; n_arrays],
            partition_kind: vec![PartitionKind::Cyclic; n_arrays],
            inline: false,
        };
        for (site, &opt) in self.sites.iter().zip(cfg) {
            let v = site.options[opt];
            match site.kind {
                SiteKind::Unroll(l) => r.unroll[l.index()] = v.max(1),
                SiteKind::Pipeline(l) => r.pipeline_ii[l.index()] = v,
                SiteKind::PartitionFactor(a) => r.partition_factor[a.index()] = v.max(1),
                SiteKind::PartitionScheme(a) => r.partition_kind[a.index()] = scheme_from_code(v),
                SiteKind::Inline => r.inline = v != 0,
            }
        }
        r
    }
}

/// The number of configurations a mixed-radix enumeration over `radix`
/// visits, when it is at most `cap`. The count is exact: a product past
/// `u128` is above every cap and is reported as such, never wrapped.
///
/// # Errors
///
/// [`ModelError::InvalidStructure`] naming `what` and its size otherwise.
fn capped_size(radix: &[usize], cap: usize, what: &str) -> Result<usize, ModelError> {
    let count = radix
        .iter()
        .try_fold(1u128, |acc, &r| acc.checked_mul(r as u128));
    let count = match count {
        Some(c) => match usize::try_from(c) {
            Ok(c) if c <= cap => return Ok(c),
            _ => c.to_string(),
        },
        None => "at least 2^128".to_string(),
    };
    Err(ModelError::InvalidStructure {
        reason: format!("{what} has {count} configurations, above the cap {cap}"),
    })
}

fn with_one(factors: &[u32]) -> Vec<u32> {
    let mut opts: Vec<u32> = factors.iter().copied().filter(|f| *f >= 1).collect();
    if !opts.contains(&1) {
        opts.push(1);
    }
    dedup_sorted(opts)
}

fn dedup_sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

fn option_index(site: &Site, value: u32) -> usize {
    site.options
        .iter()
        .position(|&o| o == value)
        .unwrap_or_default()
}

fn scheme_code(k: PartitionKind) -> u32 {
    match k {
        PartitionKind::Cyclic => 0,
        PartitionKind::Block => 1,
        PartitionKind::Complete => 2,
    }
}

fn scheme_from_code(v: u32) -> PartitionKind {
    match v {
        1 => PartitionKind::Block,
        2 => PartitionKind::Complete,
        _ => PartitionKind::Cyclic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 3 kernel: two arrays sharing loops.
    fn fig3() -> (KernelIr, LoopId, LoopId, LoopId, ArrayId, ArrayId) {
        let mut k = KernelIr::new("fig3");
        let l1 = k.add_loop("L1", 10, None, 0.5, 0.0, 0.0).unwrap();
        let l2 = k.add_loop("L2", 10, Some(l1), 1.0, 2.0, 0.0).unwrap();
        let l3 = k.add_loop("L3", 10, Some(l1), 1.0, 2.0, 0.0).unwrap();
        let a = k.add_array("A", 100, vec![l2, l3]).unwrap();
        let b = k.add_array("B", 100, vec![l3]).unwrap();
        (k, l1, l2, l3, a, b)
    }

    fn fig3_builder() -> DesignSpaceBuilder {
        let (k, l1, l2, l3, a, b) = fig3();
        let mut builder = DesignSpaceBuilder::new(k);
        builder
            .unroll(l1, &[1, 2, 5])
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
            )
            .pipeline(l2, &[0, 1])
            .inline();
        builder
    }

    #[test]
    fn pruned_space_is_much_smaller_than_full() {
        let builder = fig3_builder();
        let pruned = builder.build_pruned().unwrap();
        assert!((pruned.len() as f64) < pruned.full_size() / 10.0);
    }

    #[test]
    fn pruned_configs_are_tree_compatible() {
        let builder = fig3_builder();
        let pruned = builder.build_pruned().unwrap();
        for i in 0..pruned.len() {
            let r = pruned.resolve(i);
            // L1 is ancestor-only: never unrolled.
            assert_eq!(r.unroll[0], 1, "config {i}: L1 must stay rolled");
            // Unroll factors of L2/L3 equal each other and both partitions.
            assert_eq!(r.unroll[1], r.unroll[2]);
            assert_eq!(r.partition_factor[0], r.unroll[1]);
            assert_eq!(r.partition_factor[1], r.unroll[1]);
            // Shared scheme.
            assert_eq!(r.partition_kind[0], r.partition_kind[1]);
        }
    }

    #[test]
    fn pruned_keeps_free_sites_free() {
        let builder = fig3_builder();
        let pruned = builder.build_pruned().unwrap();
        let mut saw_pipelined = false;
        let mut saw_inline = false;
        for i in 0..pruned.len() {
            let r = pruned.resolve(i);
            saw_pipelined |= r.pipeline_ii[1] > 0;
            saw_inline |= r.inline;
        }
        assert!(saw_pipelined && saw_inline);
    }

    #[test]
    fn full_space_is_exact_cross_product() {
        let (k, _, l2, _, _, _) = fig3();
        let mut b = DesignSpaceBuilder::new(k);
        b.unroll(l2, &[1, 2]).pipeline(l2, &[0, 1, 2]);
        let full = b.build_full().unwrap();
        assert_eq!(full.len(), 6);
        assert_eq!(full.full_size(), 6.0);
    }

    #[test]
    fn encode_matches_paper_example() {
        // Factors {2,5,10} encode to {0, 0.375, 1}.
        let (k, _, l2, _, _, _) = fig3();
        let mut b = DesignSpaceBuilder::new(k);
        b.unroll(l2, &[2, 5, 10]); // "1" is auto-added -> {1,2,5,10}
        let full = b.build_full().unwrap();
        // Options {1,2,5,10}: value 5 encodes to (5-1)/9.
        let idx5 = full.sites()[0]
            .options
            .iter()
            .position(|&v| v == 5)
            .unwrap();
        let cfg = (0..full.len())
            .find(|&i| full.config(i)[0] == idx5)
            .unwrap();
        assert!((full.encode(cfg)[0] - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn resolve_produces_directives() {
        let builder = fig3_builder();
        let pruned = builder.build_pruned().unwrap();
        let r = pruned.resolve(pruned.len() - 1);
        let ds = r.directives();
        // At least some configuration yields non-empty directive lists.
        let any_nonempty = (0..pruned.len()).any(|i| !pruned.resolve(i).directives().is_empty());
        assert!(any_nonempty);
        let _ = ds;
    }

    #[test]
    fn cap_is_enforced() {
        let (k, _, l2, l3, _, _) = fig3();
        let mut b = DesignSpaceBuilder::new(k);
        b.unroll(l2, &[1, 2, 5, 10])
            .unroll(l3, &[1, 2, 5, 10])
            .max_configs(3);
        assert!(matches!(
            b.build_full(),
            Err(ModelError::InvalidStructure { .. })
        ));
    }

    #[test]
    fn spaces_past_u128_are_over_the_cap_not_empty() {
        // 2^128 and 10^39 configurations overflow a `u128` product: both
        // builds must report them above the cap, never wrap to an empty or
        // smaller space (or panic on the multiplication in debug builds).
        for (sites, factors, size) in [
            (128, "2", "at least 2^128"),
            (39, "2,3,4,5,6,7,8,9,10", "at least 2^128"),
        ] {
            let mut text = String::from("kernel wide\n");
            for i in 0..sites {
                text.push_str(&format!(
                    "loop l{i} trip=64\nunroll l{i} factors={factors}\n"
                ));
            }
            let builder = crate::spec::parse(&text).unwrap();
            for (what, built) in [
                ("pruned space", builder.build_pruned()),
                ("full space", builder.build_full()),
            ] {
                match built {
                    Err(ModelError::InvalidStructure { reason }) => assert_eq!(
                        reason,
                        format!("{what} has {size} configurations, above the cap 200000"),
                        "{sites} sites"
                    ),
                    other => panic!("{sites} sites, {what}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_target_rejected() {
        let (k, ..) = fig3();
        let mut b = DesignSpaceBuilder::new(k);
        b.unroll(LoopId::new(99), &[1, 2]);
        assert!(matches!(
            b.build_pruned(),
            Err(ModelError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn no_duplicate_configs_in_pruned_space() {
        let builder = fig3_builder();
        let pruned = builder.build_pruned().unwrap();
        let mut seen: Vec<&[usize]> = (0..pruned.len()).map(|i| pruned.config(i)).collect();
        seen.sort();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len());
    }
}
