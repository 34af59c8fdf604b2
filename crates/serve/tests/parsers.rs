//! Fuzzing of the daemon's parsers of untrusted bytes — `trace::json::parse`,
//! `protocol::parse_request`, `JobSpec::from_json`, `SessionResult::parse`
//! and the journal reader `trace::read_journal` — and exact round trips
//! through the one JSON writer (`trace::json::JsonWriter`).
//!
//! Every input yields a value or a typed error, never a panic: random bytes,
//! every truncation of a valid document, and random byte overwrites of one.
//! `RunCheckpoint::from_json` gets the same treatment in the core crate's
//! `checkpoint_props` tests, and `hls_model::spec::parse` in the model
//! crate's `spec_fuzz` tests.

use cmmf::ModelVariant;
use cmmf_serve::job::{JobSpec, Overrides, Problem, GP_RESTARTS_MAX, MC_SAMPLES_MAX};
use cmmf_serve::protocol::{parse_request, Request};
use cmmf_serve::session::SessionResult;
use cmmf_serve::ServeError;
use hls_model::benchmarks::Benchmark;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;
use trace::json;

/// JSON's own alphabet, so random damage reaches past the tokenizer into
/// the field checks.
const JSON_ALPHABET: &[u8] = b"{}[]\":,0123456789-+.eE truefalsnl\\/u\n\t";

/// A character that stresses the escaper: quotes, backslashes, every control
/// character, multi-byte UTF-8 (up to four bytes) and JSON punctuation.
fn nasty_char(rng: &mut StdRng) -> char {
    const WIDE: [char; 8] = [
        'é', '—', '✓', '𝔊', '\u{7f}', '\u{2028}', '\u{feff}', '\u{fffd}',
    ];
    match rng.random_range(0..6u32) {
        0 => '"',
        1 => '\\',
        2 => char::from(rng.random_range(0..0x20u8)),
        3 => WIDE[rng.random_range(0..WIDE.len())],
        4 => char::from(JSON_ALPHABET[rng.random_range(0..JSON_ALPHABET.len())]),
        _ => char::from(rng.random_range(b' '..=b'~')),
    }
}

fn nasty_text(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.random_range(0..=max_len);
    (0..len).map(|_| nasty_char(rng)).collect()
}

/// A valid tenant or session name: 1–64 characters of `[A-Za-z0-9_-]`.
fn name(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
    let len = if rng.random_bool(0.2) {
        64
    } else {
        rng.random_range(1..=12)
    };
    (0..len)
        .map(|_| char::from(ALPHABET[rng.random_range(0..ALPHABET.len())]))
        .collect()
}

fn maybe(rng: &mut StdRng, range: std::ops::RangeInclusive<usize>) -> Option<usize> {
    if rng.random_bool(0.5) {
        Some(rng.random_range(range))
    } else {
        None
    }
}

/// A random job that passes validation.
fn job(rng: &mut StdRng) -> JobSpec {
    let problem = if rng.random_bool(0.5) {
        let all: Vec<Benchmark> = Benchmark::all()
            .into_iter()
            .chain(Benchmark::extended())
            .collect();
        Problem::Benchmark(all[rng.random_range(0..all.len())])
    } else {
        // Spec text is stored verbatim; it only has to hold a non-blank
        // character to be admitted.
        let mut text = nasty_text(rng, 80);
        text.push('k');
        text.push_str(&nasty_text(rng, 80));
        Problem::SpecText(text)
    };
    let mut job = JobSpec::new(name(rng), name(rng), problem);
    job.iters = rng.random_range(1..=500);
    job.seed = rng.random::<u64>();
    job.variant = if rng.random_bool(0.5) {
        ModelVariant::paper()
    } else {
        ModelVariant::fpl18()
    };
    // Any bit pattern in [0, 1]: positive doubles order like their bits, so
    // this reaches subnormals and both ends; -0.0 is in range too.
    job.divergence = match rng.random_range(0..4u32) {
        0 => None,
        1 => Some(-0.0),
        _ => Some(f64::from_bits(rng.random_range(0..=1.0f64.to_bits()))),
    };
    job.batch = rng.random_range(1..=8);
    job.async_slots = rng.random_range(0..=8);
    // The initialization sizes must nest, so they are set together.
    let (n_init, n_init_syn, n_init_impl) = if rng.random_bool(0.5) {
        let impl_ = rng.random_range(1..=4);
        let syn = rng.random_range(impl_..=impl_ + 4);
        (
            Some(rng.random_range(syn..=syn + 4)),
            Some(syn),
            Some(impl_),
        )
    } else {
        (None, None, None)
    };
    job.overrides = Overrides {
        n_init,
        n_init_syn,
        n_init_impl,
        candidate_pool: maybe(rng, 1..=400),
        mc_samples: maybe(rng, 1..=MC_SAMPLES_MAX),
        refit_every: maybe(rng, 1..=10),
        final_prediction_pool: maybe(rng, 0..=4000),
        gp_restarts: maybe(rng, 0..=GP_RESTARTS_MAX),
        gp_max_evals: maybe(rng, 1..=500),
    };
    job
}

fn request(rng: &mut StdRng) -> Request {
    match rng.random_range(0..6u32) {
        0 => Request::Ping,
        1 => Request::List,
        2 => Request::Shutdown,
        3 => Request::Status {
            tenant: nasty_text(rng, 24),
            session: nasty_text(rng, 24),
        },
        4 => Request::Wait {
            tenant: nasty_text(rng, 24),
            session: nasty_text(rng, 24),
        },
        _ => Request::Submit {
            spec: Box::new(job(rng)),
            wait: rng.random_bool(0.5),
            stream: rng.random_bool(0.5),
        },
    }
}

fn session_result(rng: &mut StdRng) -> SessionResult {
    SessionResult {
        evaluated: rng.random::<usize>(),
        sim_seconds_bits: rng.random::<u64>(),
        pareto_bits: (0..rng.random_range(0..12))
            .map(|_| [rng.random::<u64>(), u64::MAX, rng.random_range(0..10)])
            .collect(),
    }
}

/// Feeds `text` to every parser; a panic fails the test, and every error
/// must be one of the kinds the daemon reports for bad input.
fn parses_or_is_typed(text: &str) -> Result<(), String> {
    let doc = json::parse(text);
    match parse_request(text) {
        Ok(_) | Err(ServeError::Protocol { .. } | ServeError::InvalidJob { .. }) => {}
        Err(other) => return Err(format!("parse_request: untyped {other:?} for {text:?}")),
    }
    match JobSpec::parse(text) {
        Ok(_) | Err(ServeError::InvalidJob { .. }) => {}
        Err(other) => return Err(format!("JobSpec::parse: untyped {other:?} for {text:?}")),
    }
    if let Ok(doc) = doc {
        if let Err(e) = JobSpec::from_json(&doc) {
            if !matches!(e, ServeError::InvalidJob { .. }) {
                return Err(format!("JobSpec::from_json: untyped {e:?} for {text:?}"));
            }
        }
    }
    match SessionResult::parse(text) {
        Ok(_) | Err(ServeError::Protocol { .. }) => {}
        Err(other) => {
            return Err(format!(
                "SessionResult::parse: untyped {other:?} for {text:?}"
            ))
        }
    }
    Ok(())
}

/// Every truncation of `text`, then `edits` random overwrites of one to
/// three bytes each, favouring JSON's alphabet.
fn damaged_copies_are_typed(text: &str, rng: &mut StdRng, edits: usize) -> Result<(), String> {
    for cut in 0..text.len() {
        if text.is_char_boundary(cut) {
            parses_or_is_typed(&text[..cut]).map_err(|e| format!("cut at {cut}: {e}"))?;
        }
    }
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let at = rng.random_range(0..bytes.len());
        let len = rng.random_range(1..=3usize).min(bytes.len() - at);
        for byte in &mut bytes[at..at + len] {
            *byte = if rng.random_bool(0.7) {
                JSON_ALPHABET[rng.random_range(0..JSON_ALPHABET.len())]
            } else {
                rng.random::<u32>().to_le_bytes()[0]
            };
        }
        parses_or_is_typed(&String::from_utf8_lossy(&bytes))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_never_panic_a_parser(
        raw in proptest::collection::vec(0u8..=255, 0..256),
        seed in any::<u64>(),
    ) {
        // Raw bytes as the daemon's line reader would hand them over (it
        // rejects invalid UTF-8 before parsing; the lossy decode keeps the
        // rest), and the same length drawn from JSON's alphabet.
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet: String = raw
            .iter()
            .map(|&b| char::from(JSON_ALPHABET[usize::from(b) % JSON_ALPHABET.len()]))
            .collect();
        for text in [String::from_utf8_lossy(&raw).into_owned(), alphabet] {
            if let Err(e) = parses_or_is_typed(&text) {
                prop_assert!(false, "{e}");
            }
        }
        // Random text as the `job` of a submit frame reaches the job's own
        // field checks.
        let nested = format!(r#"{{"cmd":"submit","job":{}}}"#, nasty_text(&mut rng, 64));
        if let Err(e) = parses_or_is_typed(&nested) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn damaged_requests_and_jobs_are_typed_errors(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = request(&mut rng).to_json();
        if let Err(e) = damaged_copies_are_typed(&line, &mut rng, 24) {
            prop_assert!(false, "request {line}: {e}");
        }
        let text = job(&mut rng).to_json();
        if let Err(e) = damaged_copies_are_typed(&text, &mut rng, 24) {
            prop_assert!(false, "job {text}: {e}");
        }
        let text = session_result(&mut rng).to_json();
        if let Err(e) = damaged_copies_are_typed(&text, &mut rng, 24) {
            prop_assert!(false, "result {text}: {e}");
        }
    }

    #[test]
    fn requests_round_trip_exactly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = request(&mut rng);
        let line = request.to_json();
        let parsed = parse_request(&line);
        prop_assert!(parsed.is_ok(), "{line}: {parsed:?}");
        let Ok(parsed) = parsed else { unreachable!() };
        prop_assert_eq!(parsed.to_json(), line);
        prop_assert_eq!(parsed, request);
    }

    #[test]
    fn jobs_round_trip_exactly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let job = job(&mut rng);
        let text = job.to_json();
        let parsed = JobSpec::parse(&text);
        prop_assert!(parsed.is_ok(), "{text}: {parsed:?}");
        let Ok(parsed) = parsed else { unreachable!() };
        prop_assert_eq!(parsed.to_json(), text);
        prop_assert_eq!(
            parsed.divergence.map(f64::to_bits),
            job.divergence.map(f64::to_bits)
        );
        prop_assert_eq!(parsed, job);
    }

    #[test]
    fn session_results_round_trip_exactly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = session_result(&mut rng);
        let text = result.to_json();
        let parsed = SessionResult::parse(&text);
        prop_assert!(parsed.is_ok(), "{text}: {parsed:?}");
        let Ok(parsed) = parsed else { unreachable!() };
        prop_assert_eq!(parsed.to_json(), text);
        prop_assert_eq!(parsed, result);
    }

    #[test]
    fn damaged_journals_read_as_records_and_a_recovery(seed in any::<u64>()) {
        // A journal with random damage in interior and final lines reads as
        // the records before the first line that no longer parses, plus a
        // recovery that counts them and the bytes after; repairing it leaves
        // exactly those records and nothing torn.
        let mut rng = StdRng::seed_from_u64(seed);
        let path = journal_path(seed);
        let lines: Vec<String> = (0..rng.random_range(0..12usize))
            .map(|i| {
                let mut w = json::JsonWriter::new();
                w.begin_object().key("seq").usize(i);
                w.key("note").str(&nasty_text(&mut rng, 16)).end_object();
                w.finish()
            })
            .collect();
        let mut data: Vec<u8> = lines.iter().flat_map(|l| format!("{l}\n").into_bytes()).collect();
        // The first byte damage may touch: none, an interior line, or the last.
        let mut first_damaged = lines.len();
        if !lines.is_empty() {
            let hit = match rng.random_range(0..3u32) {
                0 => rng.random_range(0..lines.len()),
                _ => lines.len() - 1,
            };
            let start: usize = lines[..hit].iter().map(|l| l.len() + 1).sum();
            let end = start + lines[hit].len() + 1;
            match rng.random_range(0..4u32) {
                0 => data.truncate(rng.random_range(start..end)),
                1 => data[end - 1] = b' ',
                2 => data[rng.random_range(start..end)] = 0xff,
                _ => {
                    let at = rng.random_range(start..end);
                    data[at] = JSON_ALPHABET[rng.random_range(0..JSON_ALPHABET.len())];
                }
            }
            first_damaged = hit;
            // Further damage anywhere after it.
            for _ in 0..rng.random_range(0..3u32) {
                if data.len() > end {
                    let at = rng.random_range(end..data.len());
                    data[at] = rng.random::<u32>().to_le_bytes()[0];
                }
            }
        }
        std::fs::write(&path, &data).expect("scratch file writes");
        let read = trace::read_journal(&path);
        prop_assert!(read.is_ok(), "{read:?}");
        let Ok((records, recovery)) = read else { unreachable!() };
        prop_assert_eq!(records.len(), recovery.complete_records);
        prop_assert!(recovery.complete_records >= first_damaged);
        prop_assert!(recovery.complete_records <= lines.len());
        prop_assert!(recovery.torn_bytes <= data.len() as u64);
        for (record, line) in records.iter().zip(&lines).take(first_damaged) {
            prop_assert_eq!(Some(record.clone()), json::parse(line).ok());
        }
        let repaired = trace::recover_journal(&path);
        prop_assert_eq!(repaired.ok(), Some(recovery));
        let reread = trace::read_journal(&path).map(|(r, rec)| (r.len(), rec.torn_bytes));
        prop_assert_eq!(reread.ok(), Some((records.len(), 0)));
        std::fs::remove_file(&path).ok();
    }
}

/// A per-process, per-case journal path in the system temp directory.
fn journal_path(seed: u64) -> PathBuf {
    let name = format!("cmmf-journal-fuzz-{}-{seed:016x}.jsonl", std::process::id());
    std::env::temp_dir().join(name)
}

#[test]
fn an_unreadable_journal_is_an_io_error() {
    // A directory where the journal should be: the read fails with the
    // operating system's error rather than reading as empty or panicking.
    let dir = journal_path(0).with_extension("d");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    assert!(trace::read_journal(&dir).is_err());
    std::fs::remove_dir(&dir).ok();
}
