//! Cross-commit golden pin: digests of the `RunResult` of one small campaign
//! each of the paper's method (at zero and one slot, which are the same
//! schedule, and once more picking upper fidelities at refit steps), the
//! FPL18 baseline, the two ablation variants (correlated
//! objectives without cross-fidelity transfer, and independent objectives
//! with the non-linear chain), a synchronous batch of three, two slots in
//! flight, and four slots in flight (several runs of one fidelity in flight
//! at once, interleaved with runs of another).
//!
//! Every other bit-identity contract in the workspace compares two paths of
//! the *same* build (serial vs. parallel, searched fit vs. refit, resumed vs.
//! uninterrupted), so a drift that both paths share would pass all of them.
//! These constants were recorded before the candidate-preparation, thread-share
//! and ground-truth-lookup rewrites (the batched one before the synchronous
//! batch became one slot of the event loop) and must survive any change that
//! claims to be result-transparent. A change that deliberately alters results (a new
//! model, a different acquisition) re-records them and says so.
//!
//! The digests cover IEEE-754 bit patterns produced through the platform's
//! `libm` (`exp`, `ln`, `sqrt`, …); they were recorded on x86-64 Linux.

use cmmf::{CmmfConfig, ModelVariant, Optimizer, RunResult};
use fidelity_sim::{FlowSimulator, SimParams};
use gp::GpConfig;
use hls_model::benchmarks::{self, Benchmark};

/// Per-field digests of one `RunResult`, so a failure names the field that
/// drifted.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    candidate_set: u64,
    evaluated_configs: u64,
    measured_pareto: u64,
    sim_seconds_bits: u64,
    hv_history: u64,
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(r: &RunResult) -> Digest {
    Digest {
        candidate_set: fnv(r.candidate_set.iter().flat_map(|c| {
            [
                c.config as u64,
                c.stage.index() as u64,
                c.acquisition.to_bits(),
            ]
        })),
        evaluated_configs: fnv(r.evaluated_configs.iter().map(|&c| c as u64)),
        measured_pareto: fnv(r
            .measured_pareto
            .iter()
            .flat_map(|p| p.iter().map(|v| v.to_bits()))),
        sim_seconds_bits: r.sim_seconds.to_bits(),
        hv_history: fnv(r
            .hv_history
            .iter()
            .flat_map(|hv| hv.iter().map(|v| v.to_bits()))),
    }
}

/// A small campaign: short budget, small pools, a cheap hyperparameter
/// search, and the shipped final-prediction pool (so `finish`'s
/// model-based proposals are pinned too).
fn small_cfg(variant: ModelVariant, seed: u64, async_slots: usize) -> CmmfConfig {
    CmmfConfig {
        n_iter: 6,
        candidate_pool: 40,
        mc_samples: 8,
        refit_every: 3,
        variant,
        async_slots,
        gp: GpConfig {
            restarts: 0,
            max_evals: 60,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

fn problem() -> (hls_model::DesignSpace, FlowSimulator) {
    let b = Benchmark::SpmvCrs;
    (
        benchmarks::build(b)
            .expect("benchmark builds")
            .pruned_space()
            .expect("space prunes"),
        FlowSimulator::new(SimParams::for_benchmark(b)),
    )
}

#[test]
fn ours_campaign_matches_the_recorded_digest() {
    let (space, sim) = problem();
    // `async_slots` 0 behaves like 1: both are the sequential loop.
    let [r, one_slot] = [0, 1].map(|async_slots| {
        Optimizer::new(small_cfg(ModelVariant::paper(), 41, async_slots))
            .run(&space, &sim)
            .expect("campaign runs")
    });
    assert_eq!(digest(&one_slot), digest(&r), "async_slots = 1");
    assert_eq!(
        digest(&r),
        Digest {
            candidate_set: 16_353_449_466_198_830_429,
            evaluated_configs: 12_144_834_789_544_024_438,
            measured_pareto: 13_302_378_008_049_169_802,
            sim_seconds_bits: 4_667_337_975_347_068_439,
            hv_history: 9_621_827_326_053_574_464,
        }
    );
}

#[test]
fn ours_upper_level_refit_campaign_matches_the_recorded_digest() {
    let (space, sim) = problem();
    // Seed 65's campaign picks the synthesis fidelity at step 4 and the
    // implementation fidelity at step 5, both steps that refit the stack
    // with its hyperparameters (`refit_every` 3), so the digest depends on
    // each upper level being refitted from its own previous model.
    let r = Optimizer::new(small_cfg(ModelVariant::paper(), 65, 0))
        .run(&space, &sim)
        .expect("campaign runs");
    assert_eq!(
        digest(&r),
        Digest {
            candidate_set: 17_124_618_250_203_026_293,
            evaluated_configs: 13_593_711_572_108_969_124,
            measured_pareto: 16_339_361_492_515_009_616,
            sim_seconds_bits: 4_668_026_271_865_781_720,
            hv_history: 2_226_262_889_077_019_544,
        }
    );
}

#[test]
fn fpl18_campaign_matches_the_recorded_digest() {
    let (space, sim) = problem();
    let r = Optimizer::new(small_cfg(ModelVariant::fpl18(), 42, 0))
        .run(&space, &sim)
        .expect("campaign runs");
    assert_eq!(
        digest(&r),
        Digest {
            candidate_set: 7_211_838_438_509_222_181,
            evaluated_configs: 1_324_666_276_497_402_920,
            measured_pareto: 13_461_442_890_603_049_723,
            sim_seconds_bits: 4_668_676_578_076_774_348,
            hv_history: 9_716_376_439_266_149_859,
        }
    );
}

#[test]
fn corr_no_transfer_campaign_matches_the_recorded_digest() {
    let (space, sim) = problem();
    let variant = ModelVariant {
        correlated_objectives: true,
        nonlinear_fidelity: false,
    };
    // Seed 47's campaign runs one pick at the synthesis fidelity, so the
    // digest depends on the upper levels, not only on the base model.
    let r = Optimizer::new(small_cfg(variant, 47, 0))
        .run(&space, &sim)
        .expect("campaign runs");
    assert_eq!(
        digest(&r),
        Digest {
            candidate_set: 5_910_875_184_374_455_369,
            evaluated_configs: 13_207_690_277_897_790_529,
            measured_pareto: 6_499_195_537_007_215_573,
            sim_seconds_bits: 4_667_148_156_967_113_969,
            hv_history: 3_480_243_847_525_417_294,
        }
    );
}

#[test]
fn indep_nonlinear_campaign_matches_the_recorded_digest() {
    let (space, sim) = problem();
    let variant = ModelVariant {
        correlated_objectives: false,
        nonlinear_fidelity: true,
    };
    // Seed 50's campaign runs picks at both upper fidelities, so the digest
    // depends on both Gauss–Hermite links.
    let r = Optimizer::new(small_cfg(variant, 50, 0))
        .run(&space, &sim)
        .expect("campaign runs");
    assert_eq!(
        digest(&r),
        Digest {
            candidate_set: 3_322_273_559_074_960_888,
            evaluated_configs: 2_770_791_344_569_206_006,
            measured_pareto: 3_732_503_657_595_506_520,
            sim_seconds_bits: 4_670_493_887_430_456_093,
            hv_history: 3_149_101_484_171_765_914,
        }
    );
}

#[test]
fn batched_campaign_matches_the_recorded_digest() {
    let (space, sim) = problem();
    let mut cfg = small_cfg(ModelVariant::paper(), 44, 0);
    cfg.batch_size = 3;
    cfg.n_iter = 4;
    let r = Optimizer::new(cfg)
        .run(&space, &sim)
        .expect("campaign runs");
    assert_eq!(
        digest(&r),
        Digest {
            candidate_set: 4_357_847_741_568_808_223,
            evaluated_configs: 6_880_239_913_305_881_497,
            measured_pareto: 12_523_890_589_037_572_474,
            sim_seconds_bits: 4_667_307_905_538_485_775,
            hv_history: 13_725_978_398_058_226_204,
        }
    );
}

#[test]
fn async_two_slot_campaign_matches_the_recorded_digest() {
    let (space, sim) = problem();
    let r = Optimizer::new(small_cfg(ModelVariant::paper(), 43, 2))
        .run(&space, &sim)
        .expect("campaign runs");
    assert_eq!(
        digest(&r),
        Digest {
            candidate_set: 4_251_352_768_446_732_941,
            evaluated_configs: 758_584_023_172_116_811,
            measured_pareto: 4_912_382_816_618_901_049,
            sim_seconds_bits: 4_666_568_866_212_579_039,
            hv_history: 11_442_869_826_828_881_719,
        }
    );
}

#[test]
fn async_four_slot_campaign_matches_the_recorded_digest() {
    // Seed 48's campaign dispatches with up to three runs in flight, two
    // of them at one fidelity with a run of another between them (in
    // dispatch order: synthesis, HLS, synthesis), so the digest pins the
    // fantasized fronts however the in-flight runs are batched.
    let (space, sim) = problem();
    let mut cfg = small_cfg(ModelVariant::paper(), 48, 4);
    cfg.n_iter = 10;
    let r = Optimizer::new(cfg)
        .run(&space, &sim)
        .expect("campaign runs");
    assert_eq!(
        digest(&r),
        Digest {
            candidate_set: 9_758_183_427_520_236_882,
            evaluated_configs: 12_733_474_139_530_484_284,
            measured_pareto: 46_281_624_405_982_711,
            sim_seconds_bits: 4_660_650_319_589_200_789,
            hv_history: 1_486_812_769_898_665_116,
        }
    );
}
