//! Property tests of the checkpoint parser, which reads untrusted bytes from
//! disk: generated checkpoints of every schedule shape round-trip exactly,
//! and every truncation or random byte overwrite of a valid document loads
//! either as a value or as a typed `CmmfError::Checkpoint`, never a panic.

use cmmf::checkpoint::{PickRecord, CHECKPOINT_VERSION};
use cmmf::{CmmfConfig, CmmfError, RunCheckpoint};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The schedule shapes the loop writes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One slot, one pick per decision.
    Sequential,
    /// One slot, groups of several picks.
    Batched,
    /// Several slots, killed with groups still in flight.
    MidOverlap,
    /// The candidate pool ran out: no more dispatches, every group drains.
    Exhausted,
}

const SHAPES: [Shape; 4] = [
    Shape::Sequential,
    Shape::Batched,
    Shape::MidOverlap,
    Shape::Exhausted,
];

/// Any `u64`, with the boundary values drawn often.
fn word(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..4u32) {
        0 => [0, 1, u64::MAX, f64::NAN.to_bits(), (-0.0f64).to_bits()][rng.random_range(0..5usize)],
        1 => rng.random_range(0..1000u64),
        _ => rng.random::<u64>(),
    }
}

fn index(rng: &mut StdRng) -> usize {
    usize::try_from(word(rng)).unwrap_or(usize::MAX)
}

/// A structurally valid checkpoint of `shape`, its free fields random.
fn generate(shape: Shape, seed: u64) -> RunCheckpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    // How many decisions the run made, and after how many completions it
    // stopped: mid-overlap kills come before the last completion, and a
    // pool-exhausted run drains.
    let (decisions, stop_after) = match shape {
        Shape::MidOverlap => {
            let d = rng.random_range(1..7usize);
            (d, rng.random_range(0..d))
        }
        Shape::Exhausted => {
            let d = rng.random_range(0..7usize);
            (d, d)
        }
        Shape::Sequential | Shape::Batched => {
            let d = rng.random_range(0..7usize);
            (d, rng.random_range(0..=d))
        }
    };
    let (slots, batch) = match shape {
        Shape::Sequential => (1, 1),
        Shape::Batched => (1, rng.random_range(2..5usize)),
        Shape::MidOverlap | Shape::Exhausted => {
            (rng.random_range(2..5usize), rng.random_range(1..4usize))
        }
    };
    let mut picks: Vec<Vec<PickRecord>> = (0..decisions)
        .map(|_| {
            (0..rng.random_range(1..=batch))
                .map(|_| PickRecord {
                    config: index(&mut rng),
                    stage_index: rng.random_range(0..3usize),
                    acquisition_bits: word(&mut rng),
                })
                .collect()
        })
        .collect();

    // Follow the loop's slot discipline: fill the free slots, complete a
    // random group in flight; stop at a random completion count (a kill).
    let mut in_flight: Vec<usize> = Vec::new();
    let (mut dispatched, mut completed) = (0, 0);
    loop {
        while in_flight.len() < slots && dispatched < decisions {
            in_flight.push(dispatched);
            dispatched += 1;
        }
        if completed == stop_after || in_flight.is_empty() {
            break;
        }
        in_flight.remove(rng.random_range(0..in_flight.len()));
        completed += 1;
    }
    match shape {
        Shape::MidOverlap => assert!(!in_flight.is_empty(), "{seed}: nothing in flight"),
        Shape::Exhausted => assert!(in_flight.is_empty(), "{seed}: not drained"),
        Shape::Sequential | Shape::Batched => {}
    }
    // A kill leaves the decisions not yet dispatched unrecorded.
    picks.truncate(dispatched);

    let mut cfg = CmmfConfig {
        seed: rng.random::<u64>(),
        async_slots: slots,
        batch_size: batch,
        ..CmmfConfig::default()
    };
    cfg.gp.seed = rng.random::<u64>();
    RunCheckpoint {
        version: CHECKPOINT_VERSION,
        fingerprint: RunCheckpoint::fingerprint_of(&cfg),
        completed_steps: completed,
        picks,
        in_flight: in_flight
            .iter()
            .map(|&i| [i as u64, word(&mut rng)])
            .collect(),
        sim_seconds_bits: word(&mut rng),
    }
}

/// Parses `text`; a panic fails the test, and any error must be typed.
fn loads_or_is_typed(text: &str) -> Result<(), String> {
    match RunCheckpoint::from_json(text) {
        Ok(_) | Err(CmmfError::Checkpoint { .. }) => Ok(()),
        Err(other) => Err(format!("untyped error {other:?} for {text:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_checkpoints_round_trip_exactly(seed in any::<u64>()) {
        for shape in SHAPES {
            let ckpt = generate(shape, seed);
            let text = ckpt.to_json();
            let parsed = RunCheckpoint::from_json(&text);
            prop_assert!(parsed.is_ok(), "{shape:?}: {parsed:?}\n{text}");
            prop_assert_eq!(parsed.ok(), Some(ckpt));
        }
    }

    #[test]
    fn truncated_and_overwritten_documents_never_panic(
        seed in any::<u64>(),
        edits in proptest::collection::vec((any::<u64>(), 0u32..256, 1u32..4), 1..24),
    ) {
        for shape in SHAPES {
            let text = generate(shape, seed).to_json();
            for cut in 0..text.len() {
                if text.is_char_boundary(cut) {
                    if let Err(e) = loads_or_is_typed(&text[..cut]) {
                        prop_assert!(false, "{shape:?} cut at {cut}: {e}");
                    }
                }
            }
            // Overwrite runs of bytes, favouring JSON's own alphabet so the
            // damage reaches past the tokenizer into the field checks.
            const ALPHABET: &[u8] = b"0123456789-+.eE[]{},:\" truefalsn";
            let mut bytes = text.into_bytes();
            for &(at, value, len) in &edits {
                let start = (at % bytes.len() as u64) as usize;
                for (k, byte) in bytes.iter_mut().skip(start).take(len as usize).enumerate() {
                    let v = value as usize + k;
                    *byte = if v.is_multiple_of(2) {
                        ALPHABET[v / 2 % ALPHABET.len()]
                    } else {
                        (v % 256) as u8
                    };
                }
                let damaged = String::from_utf8_lossy(&bytes);
                if let Err(e) = loads_or_is_typed(&damaged) {
                    prop_assert!(false, "{shape:?} overwrite at {start}: {e}");
                }
            }
        }
    }
}
