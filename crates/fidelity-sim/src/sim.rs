//! The flow simulator: ground-truth structural performance model plus
//! stage-specific estimation error.

use crate::{Board, Report, RunOutcome};
use hls_model::benchmarks::Benchmark;
use hls_model::{DesignSpace, KernelIr, LoopId, PartitionKind, ResolvedConfig};
use std::fmt;

/// Number of design objectives: Power, Delay, LUT (Sec. III-C).
pub const N_OBJECTIVES: usize = 3;

/// The three fidelities of the FPGA flow (Fig. 2), lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// High-level synthesis: fast, least accurate.
    Hls,
    /// Logic synthesis.
    Syn,
    /// Physical implementation: slow, ground truth.
    Impl,
}

impl Stage {
    /// All stages, lowest fidelity first.
    pub fn all() -> [Stage; 3] {
        [Stage::Hls, Stage::Syn, Stage::Impl]
    }

    /// Fidelity index: 0 = hls, 1 = syn, 2 = impl.
    pub fn index(self) -> usize {
        match self {
            Stage::Hls => 0,
            Stage::Syn => 1,
            Stage::Impl => 2,
        }
    }

    /// Inverse of [`Stage::index`]; `None` for indices above 2. Used when
    /// deserializing checkpointed decisions.
    pub fn from_index(index: usize) -> Option<Stage> {
        match index {
            0 => Some(Stage::Hls),
            1 => Some(Stage::Syn),
            2 => Some(Stage::Impl),
            _ => None,
        }
    }

    /// The lowercase stage name (`"hls"`, `"syn"`, `"impl"`), the journal's
    /// stage vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Hls => "hls",
            Stage::Syn => "syn",
            Stage::Impl => "impl",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Simulator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Target device region.
    pub board: Board,
    /// Cross-fidelity divergence in `[0, 1]`: amplitude of the systematic,
    /// configuration-dependent estimation bias of the lower stages. GEMM-like
    /// kernels are near 0 (Fig. 5a); SPMV_ELLPACK-like kernels are large
    /// (Fig. 5b).
    pub divergence: f64,
    /// Relative amplitude of per-stage measurement noise (0 disables).
    pub noise: f64,
    /// Seed for the (deterministic) noise and bias fields.
    pub seed: u64,
    /// Wall-clock cost in seconds of running the flow *from scratch up to*
    /// each stage (`T_i` of Eq. 10), for a baseline-size design.
    pub stage_seconds: [f64; 3],
    /// LUTs consumed per arithmetic operation instance (tech-mapping scale).
    pub luts_per_op: f64,
}

impl SimParams {
    /// Parameters reproducing each paper benchmark's fidelity behaviour.
    pub fn for_benchmark(b: Benchmark) -> Self {
        let (divergence, luts_per_op, seed) = match b {
            // Fig. 5a: fidelities highly overlapping.
            Benchmark::Gemm => (0.08, 560.0, 101),
            Benchmark::Ismart2 => (0.30, 620.0, 102),
            // Irregular memory accesses: hard for low fidelities (Sec. V-C
            // singles this benchmark out as challenging for the baselines).
            Benchmark::SortRadix => (0.55, 380.0, 103),
            // Fig. 5b: fidelities highly divergent.
            Benchmark::SpmvEllpack => (0.60, 900.0, 104),
            Benchmark::SpmvCrs => (0.50, 1500.0, 105),
            Benchmark::Stencil3d => (0.40, 700.0, 106),
            // Extended (non-Table-I) kernels.
            Benchmark::Fft => (0.35, 650.0, 107),
            Benchmark::Kmp => (0.45, 900.0, 108),
            Benchmark::MdKnn => (0.30, 480.0, 109),
        };
        SimParams {
            board: Board::vc707_region(),
            divergence,
            noise: 0.01,
            seed,
            stage_seconds: [25.0, 280.0, 1400.0],
            luts_per_op,
        }
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            board: Board::vc707_region(),
            divergence: 0.3,
            noise: 0.01,
            seed: 7,
            stage_seconds: [25.0, 280.0, 1400.0],
            luts_per_op: 600.0,
        }
    }
}

/// The three-stage FPGA design-flow simulator. See the crate docs for the
/// modelling rationale.
#[derive(Debug, Clone)]
pub struct FlowSimulator {
    params: SimParams,
}

/// Ground-truth design characteristics before stage distortion.
#[derive(Debug, Clone, Copy)]
struct Truth {
    latency_cycles: f64,
    clock_ns: f64,
    clock_congestion_ns: f64,
    luts: f64,
    util: f64,
    power_w: f64,
    ffs: f64,
    dsps: f64,
    brams: f64,
}

impl FlowSimulator {
    /// Creates a simulator with the given parameters.
    pub fn new(params: SimParams) -> Self {
        FlowSimulator { params }
    }

    /// The simulator's parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Runs the flow on configuration `config` of `space` up to `stage` and
    /// returns that stage's report (or an invalidity verdict).
    ///
    /// # Panics
    ///
    /// Panics if `config >= space.len()`.
    pub fn run(&self, space: &DesignSpace, config: usize, stage: Stage) -> RunOutcome {
        let resolved = space.resolve(config);
        let truth = self.ground_truth(space.kernel(), &resolved);
        let x = space.encode(config);

        // Validity: gross over-utilization dies in logic synthesis; designs
        // close to capacity can fail routing, which only Impl discovers.
        if stage >= Stage::Syn && truth.util > 1.0 {
            return RunOutcome::Invalid {
                stage: Stage::Syn,
                reason: format!(
                    "design over-maps the region: {:.0}% LUT utilization",
                    truth.util * 100.0
                ),
            };
        }
        let routing_margin = 0.92 + 0.04 * self.bias_field(&x, 3);
        if stage >= Stage::Impl && truth.util > routing_margin {
            return RunOutcome::Invalid {
                stage: Stage::Impl,
                reason: format!(
                    "routing failed at {:.0}% LUT utilization",
                    truth.util * 100.0
                ),
            };
        }

        RunOutcome::Valid(self.distort(&truth, &x, config, stage))
    }

    /// Wall-clock seconds of running the flow from scratch up to each stage
    /// for configuration `config`, indexed by [`Stage::index`]: `T_i` of
    /// Eq. 10 for all three stages from one ground-truth evaluation. Larger
    /// designs take longer in the physical stages.
    ///
    /// # Panics
    ///
    /// Panics if `config >= space.len()`.
    pub fn stage_times(&self, space: &DesignSpace, config: usize) -> [f64; 3] {
        let resolved = space.resolve(config);
        let truth = self.ground_truth(space.kernel(), &resolved);
        let size_factor = 1.0 + 1.5 * truth.util.min(1.2);
        let [hls, syn, imp] = self.params.stage_seconds;
        [
            hls,
            hls + syn * size_factor,
            hls + (syn + imp) * size_factor,
        ]
    }

    /// Wall-clock seconds of running the flow from scratch up to `stage` for
    /// configuration `config`: its entry of [`FlowSimulator::stage_times`].
    ///
    /// # Panics
    ///
    /// Panics if `config >= space.len()`.
    pub fn stage_seconds(&self, space: &DesignSpace, config: usize, stage: Stage) -> f64 {
        self.stage_times(space, config)[stage.index()]
    }

    /// Wall-clock seconds of `stage` *alone* for configuration `config`: the
    /// marginal share of the cumulative [`FlowSimulator::stage_times`]
    /// attributable to this stage (what a journal `tool_run` line or a
    /// per-stage scheduler slot accounts for). Marginals are strictly
    /// positive, ordered `hls < syn < impl` for any configuration, and sum to
    /// the cumulative cost of the top stage up to float rounding.
    ///
    /// # Panics
    ///
    /// Panics if `config >= space.len()`.
    pub fn marginal_stage_seconds(&self, space: &DesignSpace, config: usize, stage: Stage) -> f64 {
        let t = self.stage_times(space, config);
        match stage {
            Stage::Hls => t[0],
            Stage::Syn => t[1] - t[0],
            Stage::Impl => t[2] - t[1],
        }
    }

    /// Ground-truth (post-implementation, noise-free) objectives for every
    /// configuration; `None` marks invalid designs. This is how the
    /// experiments obtain the *real* Pareto front that ADRS is measured
    /// against. Entry `i` is [`FlowSimulator::truth_objective`] of `i`; a
    /// caller that needs only a few configurations should ask for those.
    pub fn truth_objectives(&self, space: &DesignSpace) -> Vec<Option<[f64; N_OBJECTIVES]>> {
        (0..space.len())
            .map(|i| self.truth_objective(space, i))
            .collect()
    }

    /// Ground-truth (post-implementation, noise-free) objectives of
    /// configuration `config`, or `None` if the design is invalid.
    ///
    /// # Panics
    ///
    /// Panics if `config >= space.len()`.
    pub fn truth_objective(
        &self,
        space: &DesignSpace,
        config: usize,
    ) -> Option<[f64; N_OBJECTIVES]> {
        let resolved = space.resolve(config);
        let truth = self.ground_truth(space.kernel(), &resolved);
        let x = space.encode(config);
        let routing_margin = 0.92 + 0.04 * self.bias_field(&x, 3);
        if truth.util > routing_margin.min(1.0) {
            None
        } else {
            Some(self.noiseless_impl_report(&truth).objectives())
        }
    }

    // ---------------------------------------------------------------------
    // Ground truth.
    // ---------------------------------------------------------------------

    fn ground_truth(&self, kernel: &KernelIr, cfg: &ResolvedConfig) -> Truth {
        let mut latency = 100.0; // control overhead
        let mut compute_luts = 0.0;
        let mut bank_luts = 0.0;
        let mut max_unroll: f64 = 1.0;
        let mut any_pipelined = false;

        for (li, l) in kernel.loops().iter().enumerate() {
            let w = l.ops_per_iter + l.mem_ops_per_iter;
            let u = cfg.unroll[li].max(1) as f64;
            max_unroll = max_unroll.max(u);

            // Memory parallelism: the tightest array port budget seen by this
            // loop's body.
            let mut ports = f64::INFINITY;
            for (ai, a) in kernel.arrays().iter().enumerate() {
                if a.accessed_in.contains(&LoopId::new(li)) {
                    let f = cfg.partition_factor[ai].max(1) as f64;
                    let eff = match cfg.partition_kind[ai] {
                        PartitionKind::Cyclic => 1.0,
                        // Block partitioning banks contiguous ranges; unit
                        // stride access hits conflicts.
                        PartitionKind::Block => 0.6,
                        PartitionKind::Complete => f64::INFINITY,
                    };
                    // Dual-ported BRAMs.
                    ports = ports.min((2.0 * f * eff).max(1.0));
                }
            }
            if ports.is_infinite() {
                ports = u;
            }
            let p = u.min(ports.max(1.0));

            if w <= 0.0 {
                continue;
            }
            let body_cycles = (l.ops_per_iter + 0.6 * l.mem_ops_per_iter).ceil().max(1.0);
            let iters = kernel.total_iterations(LoopId::new(li)) as f64;
            let is_innermost = kernel.children(Some(LoopId::new(li))).is_empty();
            let ii_target = cfg.pipeline_ii[li] as f64;

            let mut cycles = if ii_target > 0.0 && is_innermost {
                any_pipelined = true;
                // Achieved II is limited by the target, the dependency
                // recurrence, and memory-port pressure.
                let dep_ii = (body_cycles * l.dependency).ceil().max(1.0);
                let port_ii = (u / p).ceil().max(1.0);
                let ii = ii_target.max(dep_ii).max(port_ii);
                (iters / u) * ii + body_cycles + 8.0
            } else {
                // Amdahl: the dependent fraction of the body does not scale.
                let speedup = 1.0 / (l.dependency + (1.0 - l.dependency) / p);
                let mut c = iters * body_cycles / speedup;
                if ii_target > 0.0 {
                    // Pipelining a non-innermost loop gives a modest overlap.
                    any_pipelined = true;
                    c *= 0.9;
                }
                c
            };
            if cfg.inline {
                cycles *= 0.93; // no call/return overhead
            }
            latency += cycles;

            // Area: replicated datapath + selection muxes.
            compute_luts += l.ops_per_iter * u * self.params.luts_per_op;
            compute_luts += u * (u.log2().max(0.0) + 1.0) * 24.0;
            if ii_target > 0.0 {
                compute_luts += body_cycles * 90.0; // pipeline registers/control
            }
        }

        for (ai, _a) in kernel.arrays().iter().enumerate() {
            let f = cfg.partition_factor[ai].max(1) as f64;
            let scheme_cost = match cfg.partition_kind[ai] {
                PartitionKind::Cyclic => 1.0,
                PartitionKind::Block => 1.2, // extra address decode
                PartitionKind::Complete => 3.0,
            };
            bank_luts += f * 52.0 * scheme_cost;
        }

        let mut luts = 1800.0 + compute_luts + bank_luts;
        if cfg.inline {
            luts *= 1.07; // duplicated function bodies
        }
        let util = luts / self.params.board.luts;

        // Clock: fanout/mux depth grows with unroll; congestion bites
        // quadratically above ~65% utilization; pipelining shortens the
        // critical path.
        let base = self.params.board.min_clock_ns;
        let mut clock = base + 2.6 * util + 0.22 * max_unroll.log2().max(0.0);
        if any_pipelined {
            clock = (clock - 0.9).max(base * 0.8);
        }
        let congestion = if util > 0.65 {
            let gamma = 14.0 + 45.0 * self.params.divergence;
            gamma * (util - 0.65) * (util - 0.65)
        } else {
            0.0
        };

        // Power: static + dynamic (resources x toggle x frequency).
        let freq_ghz = 1.0 / (clock + congestion);
        let power =
            self.params.board.static_power_w + luts * 9.0e-4 * freq_ghz + bank_luts * 4.0e-4;

        // Secondary resources (reported, not objectives): flip-flops scale
        // with the datapath (heavier when pipelined), DSPs with replicated
        // multipliers, BRAMs with partitioned banks (18 Kb each, one minimum
        // per bank).
        let ffs = compute_luts * if any_pipelined { 1.15 } else { 0.75 } + 500.0;
        let mut dsps = 0.0;
        let mut brams = 0.0;
        for (li, l) in kernel.loops().iter().enumerate() {
            dsps += l.ops_per_iter * cfg.unroll[li].max(1) as f64 * 0.4;
        }
        for (ai, a) in kernel.arrays().iter().enumerate() {
            let banks = cfg.partition_factor[ai].max(1) as f64;
            let words_per_bank = (a.size as f64 / banks).ceil();
            brams += banks * (words_per_bank * 32.0 / 18_432.0).ceil().max(1.0);
        }

        Truth {
            latency_cycles: latency,
            clock_ns: clock,
            clock_congestion_ns: congestion,
            luts,
            util,
            power_w: power,
            ffs,
            dsps,
            brams,
        }
    }

    fn noiseless_impl_report(&self, t: &Truth) -> Report {
        Report {
            latency_cycles: t.latency_cycles,
            clock_ns: t.clock_ns + t.clock_congestion_ns,
            luts: t.luts,
            lut_util: t.util,
            power_w: t.power_w,
            ffs: t.ffs,
            dsps: t.dsps,
            brams: t.brams,
        }
    }

    // ---------------------------------------------------------------------
    // Stage distortion.
    // ---------------------------------------------------------------------

    /// Smooth deterministic bias field over the feature vector, in `[-1, 1]`.
    /// Different `channel`s give (nearly) independent fields.
    fn bias_field(&self, x: &[f64], channel: u64) -> f64 {
        let mut phase = 0.0;
        for (i, v) in x.iter().enumerate() {
            let h = hash01(
                self.params.seed
                    ^ (channel.wrapping_mul(0x9E37_79B9))
                    ^ ((i as u64).wrapping_mul(0x85EB_CA6B)),
            );
            phase += (2.0 * h - 1.0) * 2.7 * v;
        }
        (phase + hash01(self.params.seed ^ channel) * std::f64::consts::TAU).sin()
    }

    /// Deterministic per-(config, stage, channel) noise in `[-1, 1]`.
    fn noise_field(&self, config: usize, stage: Stage, channel: u64) -> f64 {
        let h = hash01(
            self.params.seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ ((config as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ ((stage.index() as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                ^ channel.wrapping_mul(0x94D0_49BB_1331_11EB),
        );
        2.0 * h - 1.0
    }

    fn distort(&self, t: &Truth, x: &[f64], config: usize, stage: Stage) -> Report {
        let d = self.params.divergence;
        let nz =
            |c: u64, amp: f64| 1.0 + amp * self.params.noise * self.noise_field(config, stage, c);
        match stage {
            Stage::Hls => {
                // HLS schedules cycles well but knows nothing about routing:
                // no congestion, linear utilization effect only, plus a
                // systematic configuration-dependent bias on every objective.
                let latency =
                    t.latency_cycles * (1.0 + 0.18 * d * self.bias_field(x, 10)) * nz(0, 5.0);
                // HLS interpolates between the true (pre-congestion) clock and
                // a naive linear estimate as divergence grows, and never sees
                // routing congestion at all.
                let naive_clock = self.params.board.min_clock_ns + 1.4 * t.util;
                let clock = (t.clock_ns * (1.0 - d) + naive_clock * d)
                    * (1.0 + 0.22 * d * self.bias_field(x, 11))
                    * nz(1, 5.0);
                let luts =
                    t.luts * (1.0 - 0.20 * d + 0.25 * d * self.bias_field(x, 12)) * nz(2, 5.0);
                let naive_power = self.params.board.static_power_w + luts * 8.0e-4 / clock.max(1.0);
                let power = (t.power_w * (1.0 - d) + naive_power * d)
                    * (1.0 + 0.25 * d * self.bias_field(x, 13))
                    * nz(3, 5.0);
                let resource_scale = (luts / t.luts.max(1.0)).clamp(0.3, 3.0);
                Report {
                    latency_cycles: latency.max(1.0),
                    clock_ns: clock.max(0.5),
                    luts: luts.max(0.0),
                    lut_util: (luts / self.params.board.luts).max(0.0),
                    power_w: power.max(0.01),
                    ffs: (t.ffs * resource_scale).max(0.0),
                    dsps: t.dsps, // DSP inference is exact even at HLS
                    brams: t.brams,
                }
            }
            Stage::Syn => {
                // Logic synthesis knows the netlist: cycles and LUTs are
                // nearly exact; it sees about half of the eventual routing
                // congestion and a reduced systematic bias.
                let latency = t.latency_cycles * nz(0, 2.0);
                let clock = (t.clock_ns + 0.5 * t.clock_congestion_ns)
                    * (1.0 + 0.08 * d * self.bias_field(x, 21))
                    * nz(1, 2.0);
                let luts = t.luts * (1.0 + 0.05 * d * self.bias_field(x, 22)) * nz(2, 2.0);
                let power = t.power_w * (1.0 + 0.10 * d * self.bias_field(x, 23)) * nz(3, 2.0);
                Report {
                    latency_cycles: latency.max(1.0),
                    clock_ns: clock.max(0.5),
                    luts: luts.max(0.0),
                    lut_util: (luts / self.params.board.luts).max(0.0),
                    power_w: power.max(0.01),
                    ffs: (t.ffs * nz(4, 2.0)).max(0.0),
                    dsps: t.dsps,
                    brams: t.brams,
                }
            }
            Stage::Impl => {
                let r = self.noiseless_impl_report(t);
                Report {
                    latency_cycles: (r.latency_cycles * nz(0, 1.0)).max(1.0),
                    clock_ns: (r.clock_ns * nz(1, 1.0)).max(0.5),
                    luts: (r.luts * nz(2, 1.0)).max(0.0),
                    lut_util: (r.luts * nz(2, 1.0)).max(0.0) / self.params.board.luts,
                    power_w: (r.power_w * nz(3, 1.0)).max(0.01),
                    ffs: (r.ffs * nz(4, 1.0)).max(0.0),
                    dsps: r.dsps,
                    brams: r.brams,
                }
            }
        }
    }
}

/// SplitMix64-style hash to a float in `[0, 1)`.
fn hash01(mut z: u64) -> f64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_model::benchmarks::{self, Benchmark};

    fn setup(b: Benchmark) -> (DesignSpace, FlowSimulator) {
        let space = benchmarks::build(b).unwrap().pruned_space().unwrap();
        (space, FlowSimulator::new(SimParams::for_benchmark(b)))
    }

    #[test]
    fn runs_are_deterministic() {
        let (space, sim) = setup(Benchmark::Gemm);
        for stage in Stage::all() {
            assert_eq!(sim.run(&space, 5, stage), sim.run(&space, 5, stage));
        }
    }

    #[test]
    fn stage_times_are_ordered() {
        let (space, sim) = setup(Benchmark::Gemm);
        let t: Vec<f64> = Stage::all()
            .iter()
            .map(|&s| sim.stage_seconds(&space, 0, s))
            .collect();
        assert!(t[0] < t[1] && t[1] < t[2], "{t:?}");
    }

    #[test]
    fn stage_costs_are_monotone_across_the_suite() {
        // The Eq. 10 premise T_hls << T_syn << T_impl must hold for every
        // benchmark and configuration, both cumulatively and per stage — the
        // async scheduler's cost model leans on the marginals directly.
        for b in Benchmark::all() {
            let (space, sim) = setup(b);
            for c in (0..space.len()).step_by(space.len() / 16 + 1) {
                let cum: Vec<f64> = Stage::all()
                    .iter()
                    .map(|&s| sim.stage_seconds(&space, c, s))
                    .collect();
                assert!(
                    cum[0] < cum[1] && cum[1] < cum[2],
                    "{}: config {c}: cumulative costs not ordered: {cum:?}",
                    b.name()
                );
                let marginal: Vec<f64> = Stage::all()
                    .iter()
                    .map(|&s| sim.marginal_stage_seconds(&space, c, s))
                    .collect();
                assert!(
                    0.0 < marginal[0] && marginal[0] < marginal[1] && marginal[1] < marginal[2],
                    "{}: config {c}: marginal costs not ordered: {marginal:?}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn per_config_truth_matches_the_whole_space_bitwise() {
        // SPMV_CRS is small and holds both valid and invalid designs, so the
        // `None` entries are compared too.
        let (space, sim) = setup(Benchmark::SpmvCrs);
        let all = sim.truth_objectives(&space);
        assert_eq!(all.len(), space.len());
        assert!(all.iter().any(Option::is_none) && all.iter().any(Option::is_some));
        let bits = |t: Option<[f64; N_OBJECTIVES]>| t.map(|o| o.map(f64::to_bits));
        for (i, t) in all.iter().enumerate() {
            assert_eq!(bits(sim.truth_objective(&space, i)), bits(*t), "config {i}");
        }
    }

    #[test]
    fn marginal_stage_costs_sum_to_cumulative() {
        let (space, sim) = setup(Benchmark::SpmvCrs);
        for c in (0..space.len()).step_by(11) {
            for &top in &Stage::all() {
                let total: f64 = Stage::all()
                    .iter()
                    .filter(|s| **s <= top)
                    .map(|&s| sim.marginal_stage_seconds(&space, c, s))
                    .sum();
                let cum = sim.stage_seconds(&space, c, top);
                assert!(
                    (total - cum).abs() <= 1e-9 * cum,
                    "config {c} {top}: marginals sum to {total}, cumulative is {cum}"
                );
            }
        }
    }

    #[test]
    fn impl_is_most_accurate_on_average() {
        // Average relative error of each stage's delay against the noiseless
        // truth must shrink with fidelity.
        let (space, sim) = setup(Benchmark::SpmvEllpack);
        let truth = sim.truth_objectives(&space);
        let mut err = [0.0f64; 3];
        let mut n = 0.0;
        for i in (0..space.len()).step_by(7) {
            let Some(t) = truth[i] else { continue };
            let mut all = [0.0; 3];
            let mut ok = true;
            for (si, stage) in Stage::all().iter().enumerate() {
                match sim.run(&space, i, *stage) {
                    RunOutcome::Valid(r) => all[si] = (r.delay_ns() - t[1]).abs() / t[1],
                    RunOutcome::Invalid { .. } => ok = false,
                }
            }
            if ok {
                for s in 0..3 {
                    err[s] += all[s];
                }
                n += 1.0;
            }
        }
        assert!(n > 20.0);
        let err: Vec<f64> = err.iter().map(|e| e / n).collect();
        assert!(
            err[2] < err[1] && err[1] < err[0],
            "stage errors not ordered: {err:?}"
        );
    }

    #[test]
    fn divergence_controls_fidelity_gap() {
        // GEMM (low divergence) must have a much smaller HLS-vs-Impl delay gap
        // than SPMV_ELLPACK (high divergence) — the Fig. 5 contrast.
        let gap = |b: Benchmark| {
            let (space, sim) = setup(b);
            let mut total = 0.0;
            let mut n = 0.0;
            for i in (0..space.len()).step_by(5) {
                let (RunOutcome::Valid(h), RunOutcome::Valid(p)) = (
                    sim.run(&space, i, Stage::Hls),
                    sim.run(&space, i, Stage::Impl),
                ) else {
                    continue;
                };
                total += (h.delay_ns() - p.delay_ns()).abs() / p.delay_ns();
                n += 1.0;
            }
            total / n
        };
        let g_gemm = gap(Benchmark::Gemm);
        let g_ell = gap(Benchmark::SpmvEllpack);
        assert!(g_ell > 2.0 * g_gemm, "gemm={g_gemm:.3} ellpack={g_ell:.3}");
    }

    #[test]
    fn objectives_are_correlated_as_the_paper_argues() {
        // Across the space: delay negatively correlated with LUT; power
        // positively correlated with LUT (Sec. IV-B).
        let (space, sim) = setup(Benchmark::Gemm);
        let truth = sim.truth_objectives(&space);
        let pts: Vec<[f64; 3]> = truth.iter().flatten().copied().collect();
        assert!(pts.len() > 100);
        let corr = |a: usize, b: usize| {
            let ma = pts.iter().map(|p| p[a]).sum::<f64>() / pts.len() as f64;
            let mb = pts.iter().map(|p| p[b]).sum::<f64>() / pts.len() as f64;
            let cov: f64 = pts.iter().map(|p| (p[a] - ma) * (p[b] - mb)).sum();
            let va: f64 = pts.iter().map(|p| (p[a] - ma) * (p[a] - ma)).sum();
            let vb: f64 = pts.iter().map(|p| (p[b] - mb) * (p[b] - mb)).sum();
            cov / (va * vb).sqrt()
        };
        // power vs lut positive, delay vs lut negative.
        assert!(corr(0, 2) > 0.3, "power-lut corr = {}", corr(0, 2));
        assert!(corr(1, 2) < -0.1, "delay-lut corr = {}", corr(1, 2));
    }

    #[test]
    fn some_designs_fail_late() {
        // There exist configurations valid at HLS that fail at Syn or Impl —
        // across the benchmark suite.
        let mut late_failures = 0;
        for b in Benchmark::all() {
            let (space, sim) = setup(b);
            for i in 0..space.len() {
                if sim.run(&space, i, Stage::Hls).is_valid()
                    && !sim.run(&space, i, Stage::Impl).is_valid()
                {
                    late_failures += 1;
                    break;
                }
            }
        }
        assert!(
            late_failures >= 2,
            "only {late_failures} benchmarks show late failures"
        );
    }

    #[test]
    fn most_designs_are_valid() {
        for b in Benchmark::all() {
            let (space, sim) = setup(b);
            let truth = sim.truth_objectives(&space);
            let valid = truth.iter().filter(|t| t.is_some()).count();
            let frac = valid as f64 / space.len() as f64;
            assert!(
                frac > 0.5,
                "{}: only {:.0}% of configs valid",
                b.name(),
                frac * 100.0
            );
        }
    }

    #[test]
    fn unrolling_reduces_delay_until_congestion() {
        // Within GEMM, the fastest valid design should be faster than the
        // fully-rolled baseline.
        let (space, sim) = setup(Benchmark::Gemm);
        let truth = sim.truth_objectives(&space);
        let delays: Vec<f64> = truth.iter().flatten().map(|t| t[1]).collect();
        let min = delays.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = delays.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min > 3.0,
            "delay dynamic range too small: {}",
            max / min
        );
    }

    #[test]
    fn secondary_resources_are_sane() {
        let (space, sim) = setup(Benchmark::Gemm);
        // Find a fully-rolled and a heavily-unrolled valid config and compare
        // resource reports: more parallelism => more FF/DSP/BRAM.
        let mut rolled: Option<Report> = None;
        let mut unrolled: Option<Report> = None;
        for i in 0..space.len() {
            let r = space.resolve(i);
            let max_u = r.unroll.iter().copied().max().unwrap_or(1);
            if let RunOutcome::Valid(rep) = sim.run(&space, i, Stage::Impl) {
                if max_u == 1 && rolled.is_none() {
                    rolled = Some(rep);
                }
                if max_u >= 8 && unrolled.is_none() {
                    unrolled = Some(rep);
                }
            }
            if rolled.is_some() && unrolled.is_some() {
                break;
            }
        }
        let (a, b) = (
            rolled.expect("rolled config"),
            unrolled.expect("unrolled config"),
        );
        assert!(b.ffs > a.ffs, "ff {} !> {}", b.ffs, a.ffs);
        assert!(b.dsps > a.dsps, "dsp {} !> {}", b.dsps, a.dsps);
        assert!(b.brams >= a.brams, "bram {} !>= {}", b.brams, a.brams);
        assert!(a.ffs > 0.0 && a.brams >= kernel_array_count_lower_bound());
    }

    fn kernel_array_count_lower_bound() -> f64 {
        3.0 // GEMM has three arrays, each needs at least one BRAM
    }

    #[test]
    fn hash01_is_uniformish() {
        let mut mean = 0.0;
        for i in 0..1000u64 {
            let v = hash01(i * 77);
            assert!((0.0..1.0).contains(&v));
            mean += v;
        }
        mean /= 1000.0;
        assert!((mean - 0.5).abs() < 0.05);
    }
}
