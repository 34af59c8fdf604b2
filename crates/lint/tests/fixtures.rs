//! Fixture-based self-tests: for every rule, one fixture that fires, one
//! that stays silent, and one where a reasoned `allow` suppresses the match.
//! Fixtures live in `crates/lint/fixtures/` — a directory the workspace
//! walker deliberately never visits, so the positive fixtures cannot fail
//! the workspace-clean gate.

use cmmf_lint::rules::{FileClass, RuleId};
use cmmf_lint::{scan_source, Report};

/// Scans a fixture as library code of the core crate (the strictest policy
/// row: every rule applies there).
fn scan_as_core(src: &str, label: &str) -> Report {
    scan_source(src, "cmmf", FileClass::Lib, label)
}

fn count(report: &Report, rule: RuleId) -> usize {
    report.findings.iter().filter(|f| f.rule == rule).count()
}

fn lines(report: &Report, rule: RuleId) -> Vec<u32> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_fires_on_hash_collections() {
    let r = scan_as_core(include_str!("../fixtures/d1_positive.rs"), "d1_pos");
    assert_eq!(lines(&r, RuleId::D1), [2, 3, 5, 6, 6, 7]);
}

#[test]
fn d1_silent_on_btree_and_comments() {
    let r = scan_as_core(include_str!("../fixtures/d1_negative.rs"), "d1_neg");
    assert_eq!(count(&r, RuleId::D1), 0, "{:?}", r.findings);
}

#[test]
fn d1_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/d1_suppressed.rs"), "d1_sup");
    assert_eq!(count(&r, RuleId::D1), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 3);
}

#[test]
fn d1_exempt_in_harness_crates() {
    let src = include_str!("../fixtures/d1_positive.rs");
    let r = scan_source(src, "cmmf-bench", FileClass::Lib, "d1_bench");
    assert_eq!(count(&r, RuleId::D1), 0);
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fires_on_clock_reads() {
    let r = scan_as_core(include_str!("../fixtures/d2_positive.rs"), "d2_pos");
    assert_eq!(lines(&r, RuleId::D2), [2, 3, 3, 6]);
}

#[test]
fn d2_silent_on_stopwatch_indirection() {
    let r = scan_as_core(include_str!("../fixtures/d2_negative.rs"), "d2_neg");
    assert_eq!(count(&r, RuleId::D2), 0, "{:?}", r.findings);
}

#[test]
fn d2_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/d2_suppressed.rs"), "d2_sup");
    assert_eq!(count(&r, RuleId::D2), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn d2_exempt_in_clock_owner_crates_and_bins() {
    let src = include_str!("../fixtures/d2_positive.rs");
    for pkg in ["cmmf-trace", "cmmf-criterion", "cmmf-bench"] {
        let r = scan_source(src, pkg, FileClass::Lib, "d2_owner");
        assert_eq!(count(&r, RuleId::D2), 0, "{pkg} owns the clock");
    }
    let r = scan_source(src, "cmmf", FileClass::Bin, "d2_bin");
    assert_eq!(count(&r, RuleId::D2), 0, "bins may time things");
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_fires_on_entropy_rngs() {
    let r = scan_as_core(include_str!("../fixtures/d3_positive.rs"), "d3_pos");
    assert_eq!(lines(&r, RuleId::D3), [3, 4, 5, 6]);
}

#[test]
fn d3_silent_on_derived_streams() {
    let r = scan_as_core(include_str!("../fixtures/d3_negative.rs"), "d3_neg");
    assert_eq!(count(&r, RuleId::D3), 0, "{:?}", r.findings);
}

#[test]
fn d3_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/d3_suppressed.rs"), "d3_sup");
    assert_eq!(count(&r, RuleId::D3), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_fires_on_partial_float_ordering() {
    let r = scan_as_core(include_str!("../fixtures/d4_positive.rs"), "d4_pos");
    assert_eq!(lines(&r, RuleId::D4), [3]);
}

#[test]
fn d4_silent_on_total_cmp() {
    let r = scan_as_core(include_str!("../fixtures/d4_negative.rs"), "d4_neg");
    assert_eq!(count(&r, RuleId::D4), 0, "{:?}", r.findings);
}

#[test]
fn d4_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/d4_suppressed.rs"), "d4_sup");
    assert_eq!(count(&r, RuleId::D4), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

// ---------------------------------------------------------------- D5

#[test]
fn d5_fires_on_single_precision() {
    let r = scan_as_core(include_str!("../fixtures/d5_positive.rs"), "d5_pos");
    // Type positions, casts, and path prefixes all fire; `as f64` does not.
    assert_eq!(lines(&r, RuleId::D5), [2, 2, 4, 4, 5]);
}

#[test]
fn d5_silent_on_double_precision_and_lookalikes() {
    let r = scan_as_core(include_str!("../fixtures/d5_negative.rs"), "d5_neg");
    assert_eq!(count(&r, RuleId::D5), 0, "{:?}", r.findings);
}

#[test]
fn d5_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/d5_suppressed.rs"), "d5_sup");
    assert_eq!(count(&r, RuleId::D5), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn d5_exempt_in_harness_crates_only() {
    let src = include_str!("../fixtures/d5_positive.rs");
    // No file of a result-affecting crate is sanctioned.
    let r = scan_source(
        src,
        "cmmf-linalg",
        FileClass::Lib,
        "crates/linalg/src/cholesky.rs",
    );
    assert!(count(&r, RuleId::D5) > 0, "linalg is guarded");
    // Harness crates may use f32 freely (e.g. plotting, byte-size stats).
    for pkg in ["cmmf-bench", "cmmf-criterion", "cmmf-lint", "cmmf-trace"] {
        let r = scan_source(src, pkg, FileClass::Lib, "d5_harness");
        assert_eq!(count(&r, RuleId::D5), 0, "{pkg} is not result-affecting");
    }
}

// ---------------------------------------------------------------- D6

#[test]
fn d6_fires_on_narrowing_casts() {
    let r = scan_as_core(include_str!("../fixtures/d6_positive.rs"), "d6_pos");
    assert_eq!(lines(&r, RuleId::D6), [3, 4, 5, 6, 6]);
}

#[test]
fn d6_silent_on_widening_and_checked_conversions() {
    let r = scan_as_core(include_str!("../fixtures/d6_negative.rs"), "d6_neg");
    assert_eq!(count(&r, RuleId::D6), 0, "{:?}", r.findings);
}

#[test]
fn d6_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/d6_suppressed.rs"), "d6_sup");
    assert_eq!(count(&r, RuleId::D6), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn d6_exempt_outside_panic_free_library_code() {
    let src = include_str!("../fixtures/d6_positive.rs");
    // Harness crates may cast freely…
    for pkg in ["cmmf-bench", "cmmf-criterion", "cmmf-proptest"] {
        let r = scan_source(src, pkg, FileClass::Lib, "d6_harness");
        assert_eq!(count(&r, RuleId::D6), 0, "{pkg} is not panic-free-gated");
    }
    // …and so may tests, bins, and benches of the guarded crates.
    for class in [FileClass::Bin, FileClass::Tests, FileClass::Benches] {
        let r = scan_source(src, "cmmf", class, "d6_class");
        assert_eq!(count(&r, RuleId::D6), 0, "{} is exempt", class.name());
    }
}

// ---------------------------------------------------------------- P1

#[test]
fn p1_fires_on_the_whole_panic_family() {
    let r = scan_as_core(include_str!("../fixtures/p1_positive.rs"), "p1_pos");
    assert_eq!(lines(&r, RuleId::P1), [3, 4, 6, 7, 8, 9]);
}

#[test]
fn p1_silent_on_propagation_lookalikes_and_tests() {
    let r = scan_as_core(include_str!("../fixtures/p1_negative.rs"), "p1_neg");
    assert_eq!(count(&r, RuleId::P1), 0, "{:?}", r.findings);
}

#[test]
fn p1_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/p1_suppressed.rs"), "p1_sup");
    assert_eq!(count(&r, RuleId::P1), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn p1_exempt_outside_library_code() {
    let src = include_str!("../fixtures/p1_positive.rs");
    for class in [
        FileClass::Bin,
        FileClass::Tests,
        FileClass::Benches,
        FileClass::Examples,
    ] {
        let r = scan_source(src, "cmmf", class, "p1_class");
        assert_eq!(count(&r, RuleId::P1), 0, "{} is exempt", class.name());
    }
}

// ---------------------------------------------------------------- P2

#[test]
fn p2_fires_everywhere_even_in_tests() {
    let r = scan_as_core(include_str!("../fixtures/p2_positive.rs"), "p2_pos");
    assert_eq!(lines(&r, RuleId::P2), [3, 12]);
    let t = scan_source(
        include_str!("../fixtures/p2_positive.rs"),
        "cmmf-bench",
        FileClass::Tests,
        "p2_tests",
    );
    assert_eq!(count(&t, RuleId::P2), 2, "no crate or class is exempt");
}

#[test]
fn p2_silent_on_safe_code() {
    let r = scan_as_core(include_str!("../fixtures/p2_negative.rs"), "p2_neg");
    assert_eq!(count(&r, RuleId::P2), 0, "{:?}", r.findings);
}

#[test]
fn p2_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/p2_suppressed.rs"), "p2_sup");
    assert_eq!(count(&r, RuleId::P2), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

// ---------------------------------------------------------------- S1

#[test]
fn s1_fires_on_transitive_panic_reach_and_hot_path_indexing() {
    let r = scan_as_core(include_str!("../fixtures/s1_positive.rs"), "s1_pos");
    // `entry` (line 4) reaches `helper`'s unwrap two hops down; `hot`
    // (line 17) is annotated `cmmf-lint: hot-path` and indexes unchecked.
    assert_eq!(lines(&r, RuleId::S1), [4, 17], "{:?}", r.findings);
    // The direct panic site still carries its own P1 finding; S1 does not
    // double-report the site function itself.
    assert_eq!(lines(&r, RuleId::P1), [13]);
    // The transitive finding names the chain and the site.
    let entry = r
        .findings
        .iter()
        .find(|f| f.rule == RuleId::S1)
        .expect("S1");
    assert!(
        entry.message.contains("entry -> middle -> helper"),
        "{}",
        entry.message
    );
    assert!(
        entry.message.contains("`unwrap` at s1_pos:13"),
        "{}",
        entry.message
    );
}

#[test]
fn s1_silent_on_result_propagation_and_checked_lookup() {
    let r = scan_as_core(include_str!("../fixtures/s1_negative.rs"), "s1_neg");
    assert_eq!(count(&r, RuleId::S1), 0, "{:?}", r.findings);
}

#[test]
fn s1_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/s1_suppressed.rs"), "s1_sup");
    assert_eq!(count(&r, RuleId::S1), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn s1_exempt_outside_panic_free_library_code() {
    let src = include_str!("../fixtures/s1_positive.rs");
    let r = scan_source(src, "cmmf-bench", FileClass::Lib, "s1_bench");
    assert_eq!(
        count(&r, RuleId::S1),
        0,
        "cmmf-bench is not panic-free-gated"
    );
    let r = scan_source(src, "cmmf", FileClass::Tests, "s1_tests");
    assert_eq!(count(&r, RuleId::S1), 0, "tests are exempt");
}

// ---------------------------------------------------------------- S2

#[test]
fn s2_fires_on_reversed_lock_pairs() {
    let r = scan_as_core(include_str!("../fixtures/s2_positive.rs"), "s2_pos");
    // Both cycle edges report, each at the second acquisition of its path.
    assert_eq!(lines(&r, RuleId::S2), [15, 21], "{:?}", r.findings);
}

#[test]
fn s2_silent_on_consistent_order_and_io_after_release() {
    let src = include_str!("../fixtures/s2_negative.rs");
    let r = scan_as_core(src, "s2_neg");
    assert_eq!(count(&r, RuleId::S2), 0, "{:?}", r.findings);
    // Even under serve's I/O-under-lock policy: the guard's block closes
    // before the read.
    let r = scan_source(src, "cmmf-serve", FileClass::Lib, "s2_neg_serve");
    assert_eq!(count(&r, RuleId::S2), 0, "{:?}", r.findings);
}

#[test]
fn s2_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/s2_suppressed.rs"), "s2_sup");
    assert_eq!(count(&r, RuleId::S2), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

// ---------------------------------------------------------------- S3

#[test]
fn s3_fires_on_an_untested_escape_hatch() {
    let r = scan_as_core(include_str!("../fixtures/s3_positive.rs"), "s3_pos");
    assert_eq!(lines(&r, RuleId::S3), [5], "{:?}", r.findings);
    assert_eq!(r.findings[0].excerpt, "async_slots");
}

#[test]
fn s3_silent_when_a_test_names_the_hatch() {
    let r = scan_as_core(include_str!("../fixtures/s3_negative.rs"), "s3_neg");
    assert_eq!(count(&r, RuleId::S3), 0, "{:?}", r.findings);
}

#[test]
fn s3_suppressed_by_reasoned_allow() {
    let r = scan_as_core(include_str!("../fixtures/s3_suppressed.rs"), "s3_sup");
    assert_eq!(count(&r, RuleId::S3), 0, "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

// ---------------------------------------------------------------- A0

#[test]
fn a0_reports_every_malformed_allow() {
    let r = scan_as_core(include_str!("../fixtures/a0_malformed.rs"), "a0");
    assert_eq!(lines(&r, RuleId::A0), [2, 3, 4, 5]);
}

// ------------------------------------------------ acceptance criterion

#[test]
fn a_hashmap_introduced_into_core_is_caught() {
    // The ISSUE's litmus test, in miniature: pasting a hash-collection cache
    // into result-affecting library code must produce a finding (and in CI,
    // a red build via the `lint` job plus `workspace_is_clean`).
    let src = "pub fn cache_layer() {\n    let mut seen = std::collections::HashMap::new();\n    seen.insert(1u32, 2u32);\n}\n";
    let r = scan_source(src, "cmmf", FileClass::Lib, "crates/core/src/injected.rs");
    assert_eq!(count(&r, RuleId::D1), 1);
    assert_eq!(r.findings[0].line, 2);
    // The JSON report carries the finding with its stable schema.
    let json = r.to_json();
    assert!(json.contains("\"schema_version\":2"));
    assert!(json.contains("\"rule\":\"D1\""));
    assert!(json.contains("\"D1\":1"));
    assert!(json.contains("crates/core/src/injected.rs"));
}

#[test]
fn a_reversed_lock_pair_in_serve_is_caught() {
    // Second acceptance demo: pasting a reversed lock pair (plus a read
    // under a lock) into the serve crate produces S2 findings — in CI, a
    // red build via the `lint` job plus `workspace_is_clean`.
    let src = include_str!("../fixtures/s2_positive.rs");
    let r = scan_source(
        src,
        "cmmf-serve",
        FileClass::Lib,
        "crates/serve/src/injected.rs",
    );
    // Both cycle edges, plus the I/O-under-lock read (serve is I/O-guarded).
    assert_eq!(lines(&r, RuleId::S2), [15, 21, 27], "{:?}", r.findings);
}

#[test]
fn a_deleted_escape_hatch_test_is_caught() {
    // Third acceptance demo: with the equivalence test present the hatch is
    // covered; deleting the test file makes the scan fail.
    use cmmf_lint::{scan_sources, SourceSpec};
    use std::collections::BTreeMap;
    let lib = SourceSpec {
        pkg: "cmmf".to_string(),
        class: FileClass::Lib,
        path: "crates/core/src/config.rs".to_string(),
        src: "pub struct CmmfConfig {\n    pub async_slots: usize,\n}\n".to_string(),
    };
    let test = SourceSpec {
        pkg: "cmmf".to_string(),
        class: FileClass::Tests,
        path: "crates/core/tests/equivalence.rs".to_string(),
        src: "#[test]\nfn async_k1_matches_sequential() {\n    let async_slots = 1;\n    assert_eq!(async_slots, 1);\n}\n".to_string(),
    };
    let covered = scan_sources(&[lib.clone(), test], &BTreeMap::new());
    assert_eq!(count(&covered, RuleId::S3), 0, "{:?}", covered.findings);
    let uncovered = scan_sources(&[lib], &BTreeMap::new());
    assert_eq!(count(&uncovered, RuleId::S3), 1, "{:?}", uncovered.findings);
    assert_eq!(uncovered.findings[0].excerpt, "async_slots");
    assert_eq!(uncovered.findings[0].line, 2);
}
