//! Fuzzing of the spec-text parser, which the daemon runs on the `spec` of
//! every job that brings one: [`spec::parse`] must return a builder or a
//! typed [`ModelError`] on any text — random characters from the format's
//! own alphabet, random bytes, and valid specs damaged by truncation, byte
//! overwrites and shuffled, dropped or repeated lines — and a builder it
//! returns must build its pruned space or fail typed too. A panic fails the
//! test.

use cmmf_hls_model::{spec, ModelError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Valid specs in the shapes the format allows: nested loops, arrays,
/// every directive kind, comments and blank lines.
const VALID: [&str; 2] = [
    "kernel gemm\n\
     loop i trip=64\n\
     loop j trip=64 parent=i ops=1 mem=1 dep=0.2\n\
     array A size=4096 access=j\n\
     unroll j factors=1,2,4,8\n\
     pipeline j ii=0,1,2\n\
     partition A factors=1,2,4,8 schemes=cyclic,block\n\
     inline\n",
    "# two nests\n\
     kernel toy\n\n\
     loop a trip=8\n\
     loop b trip=16 parent=a ops=2 mem=1\n\
     loop c trip=4 ops=1 mem=2 dep=0.5\n\
     array X size=128 access=b\n\
     array Y size=4 access=c\n\
     unroll b factors=1,2,4\n\
     unroll c factors=1,2\n\
     pipeline b ii=0,1\n\
     partition X factors=1,2 schemes=cyclic\n\
     partition Y factors=1,4 schemes=block,cyclic\n",
];

/// The format's own words and punctuation, so random text reaches past the
/// tokenizer into the declaration checks.
const WORDS: [&str; 34] = [
    "kernel",
    "loop",
    "array",
    "unroll",
    "pipeline",
    "partition",
    "inline",
    "trip=",
    "parent=",
    "ops=",
    "mem=",
    "dep=",
    "size=",
    "access=",
    "factors=",
    "ii=",
    "schemes=",
    "cyclic",
    "block",
    "complete",
    "i",
    "j",
    "A",
    "0",
    "1",
    "2",
    "8",
    "-3",
    "0.5",
    "1e308",
    ",",
    "=",
    "#",
    "18446744073709551616",
];

fn random_text(rng: &mut StdRng, words: usize) -> String {
    let mut text = String::new();
    for _ in 0..words {
        match rng.random_range(0..10u32) {
            0 => text.push('\n'),
            1 => text.push(' '),
            2 => text.push(char::from(rng.random_range(b' '..=b'~'))),
            3 => text.push(['é', '\t', '\u{0}', '\u{feff}'][rng.random_range(0..4usize)]),
            _ => text.push_str(WORDS[rng.random_range(0..WORDS.len())]),
        }
    }
    text
}

/// Parses `text`, and builds the space of whatever parses: any outcome but
/// a panic passes.
fn parse_and_build(text: &str) -> Option<Result<usize, ModelError>> {
    let builder = spec::parse(text).ok()?;
    Some(builder.build_pruned().map(|space| space.len()))
}

/// Bytes that keep a damaged spec close to the format.
const SPEC_BYTES: &[u8] = b"= ,\n#0123456789.-eijA";

/// `valid` with its lines shuffled, dropped and repeated, then `edits`
/// overwrites of one to three bytes each.
fn damaged(valid: &str, rng: &mut StdRng, edits: usize) -> String {
    let mut lines: Vec<&str> = valid.lines().collect();
    for _ in 0..rng.random_range(0..4u32) {
        let at = rng.random_range(0..lines.len());
        let other = rng.random_range(0..lines.len());
        match rng.random_range(0..3u32) {
            0 if lines.len() > 1 => {
                lines.remove(at);
            }
            1 => lines.insert(at, lines[other]),
            _ => lines.swap(at, other),
        }
    }
    let mut bytes = lines.join("\n").into_bytes();
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let at = rng.random_range(0..bytes.len());
        let len = rng.random_range(1..=3usize).min(bytes.len() - at);
        for byte in &mut bytes[at..at + len] {
            *byte = if rng.random_bool(0.7) {
                SPEC_BYTES[rng.random_range(0..SPEC_BYTES.len())]
            } else {
                rng.random::<u32>().to_le_bytes()[0]
            };
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn valid_specs_parse_and_every_truncation_is_handled() {
    for valid in VALID {
        assert!(matches!(parse_and_build(valid), Some(Ok(n)) if n > 0));
        for cut in 0..valid.len() {
            parse_and_build(&valid[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_text_parses_or_fails_typed(
        raw in proptest::collection::vec(0u8..=255, 0..256),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        parse_and_build(&String::from_utf8_lossy(&raw));
        parse_and_build(&random_text(&mut rng, 64));
        // A kernel header first, so the declarations after it are checked.
        parse_and_build(&format!("kernel k\n{}", random_text(&mut rng, 48)));
    }

    #[test]
    fn damaged_specs_parse_or_fail_typed(seed in any::<u64>(), which in 0usize..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        for edits in [0, 1, 4] {
            parse_and_build(&damaged(VALID[which], &mut rng, edits));
        }
    }
}
