//! Rule definitions, the per-crate policy matrix, and the token-stream
//! pattern engine.
//!
//! Each rule has a stable machine-readable ID (used in reports, in
//! `clippy.toml` mirrors, and in suppression comments):
//!
//! | ID | Guards | Pattern |
//! |----|--------|---------|
//! | `D1` | deterministic iteration | `HashMap` / `HashSet` |
//! | `D2` | no clock reads on result paths | `std::time`, `Instant`, `SystemTime` |
//! | `D3` | seeded RNG streams only | `thread_rng`, `from_entropy`, `from_os_rng`, `OsRng` |
//! | `D4` | total float ordering | `partial_cmp` |
//! | `D5` | double precision on result paths | `f32` |
//! | `D6` | no silent truncation | `as usize`/`as u32`/… narrowing casts in library code |
//! | `P1` | panic-freedom in library code | `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `P2` | no unsafe | `unsafe` |
//! | `S1` | transitive panic-freedom | `pub` fn in a panic-free crate whose call graph reaches a panic site |
//! | `S2` | deadlock-freedom | lock-order cycles; blocking I/O under an engine lock |
//! | `S3` | escape-hatch contracts | config hatch used by library code but referenced by no test |
//! | `A0` | suppression hygiene | malformed `cmmf-lint: allow(..)` comments |
//!
//! `S1`–`S3` are the call-graph passes (see [`crate::passes`]); the rest are
//! token-stream patterns.
//!
//! A finding is suppressed by a comment of the form
//! `// cmmf-lint: allow(P1) -- reason text` on the same line, or on its own
//! line immediately above the offending line. The `-- reason` part is
//! mandatory: a reasonless or unparsable allow is itself a finding (`A0`).

use crate::lexer::{Tok, Token};

/// Stable identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `HashMap`/`HashSet` in result-affecting crates.
    D1,
    /// No `std::time` clock reads outside the tracing/bench layers.
    D2,
    /// No entropy-seeded RNG construction anywhere.
    D3,
    /// No `partial_cmp` on floats — `total_cmp` is total and NaN-safe.
    D4,
    /// No `f32` in result-affecting crates — single precision silently
    /// degrades pinned numerics.
    D5,
    /// No narrowing `as` casts in library code: `expr as usize` on untrusted
    /// or wide input truncates silently where `usize::try_from` would
    /// surface the corruption. Complements `P1`: together they make the
    /// failure paths typed instead of wrong-or-panicking.
    D6,
    /// No panic-family calls in library code.
    P1,
    /// No `unsafe` anywhere.
    P2,
    /// No `pub` fn in a panic-free crate may transitively reach a panic
    /// site (call-graph pass).
    S1,
    /// No lock-order cycles; no blocking I/O while holding an engine lock
    /// (call-graph pass).
    S2,
    /// Every result-affecting escape hatch must be referenced by a test
    /// (call-graph pass).
    S3,
    /// Malformed suppression comment (engine-level hygiene rule).
    A0,
}

impl RuleId {
    /// All rules, in report order (`S1`–`S3` are call-graph passes; `A0` is
    /// emitted by the engine).
    pub const ALL: [RuleId; 12] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::D6,
        RuleId::P1,
        RuleId::P2,
        RuleId::S1,
        RuleId::S2,
        RuleId::S3,
        RuleId::A0,
    ];

    /// The stable string ID used in reports and suppression comments.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::P1 => "P1",
            RuleId::P2 => "P2",
            RuleId::S1 => "S1",
            RuleId::S2 => "S2",
            RuleId::S3 => "S3",
            RuleId::A0 => "A0",
        }
    }

    /// Parses a rule name as written inside `allow(...)`.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.id() == s)
    }

    /// One-line description of what the rule protects.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => "hash collections iterate in nondeterministic order",
            RuleId::D2 => "clock reads on result paths break replayability",
            RuleId::D3 => "RNG streams must derive from the run seed",
            RuleId::D4 => "partial_cmp panics or misorders on NaN; use total_cmp",
            RuleId::D5 => "f32 on result paths degrades pinned numerics",
            RuleId::D6 => "narrowing `as` casts truncate silently; use checked conversions",
            RuleId::P1 => "library code must propagate Result, not panic",
            RuleId::P2 => "unsafe code is banned workspace-wide",
            RuleId::S1 => "pub API of panic-free crates must not reach a panic site",
            RuleId::S2 => "lock acquisition order must be acyclic; no I/O under engine locks",
            RuleId::S3 => "every escape hatch needs an on/off equivalence test",
            RuleId::A0 => "suppression comments need a rule list and a reason",
        }
    }
}

/// Where a file sits in its crate — determines which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `src/**` (excluding `src/bin` and `src/main.rs`).
    Lib,
    /// `src/bin/**` or `src/main.rs`.
    Bin,
    /// `tests/**`.
    Tests,
    /// `benches/**`.
    Benches,
    /// `examples/**`.
    Examples,
}

impl FileClass {
    /// The name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FileClass::Lib => "lib",
            FileClass::Bin => "bin",
            FileClass::Tests => "tests",
            FileClass::Benches => "benches",
            FileClass::Examples => "examples",
        }
    }
}

/// Result-affecting crates: a nondeterminism bug in any of these changes the
/// numbers in the paper's tables.
const RESULT_AFFECTING: [&str; 7] = [
    "cmmf",
    "cmmf-gp",
    "cmmf-pareto",
    "cmmf-linalg",
    "cmmf-hls-model",
    "cmmf-fidelity-sim",
    "cmmf-baselines",
];

/// Crates that own the clock: the tracing layer (timings are observability,
/// not results), the benchmarking stack, and the session daemon (socket
/// timeouts and liveness are service duties; its *results* still come out of
/// the deterministic core loop).
const CLOCK_OWNERS: [&str; 3] = ["cmmf-trace", "cmmf-bench", "cmmf-serve"];

/// Crates whose *library* code must be panic-free: the result-affecting set,
/// the tracing layer, the vendored infrastructure the optimizer runs on, the
/// linter itself, the session daemon, and the umbrella crate.
const PANIC_FREE: [&str; 13] = [
    "cmmf",
    "cmmf-gp",
    "cmmf-pareto",
    "cmmf-linalg",
    "cmmf-hls-model",
    "cmmf-fidelity-sim",
    "cmmf-baselines",
    "cmmf-trace",
    "cmmf-rand",
    "cmmf-rayon",
    "cmmf-lint",
    "cmmf-serve",
    "cmmf-hls",
];

/// The policy matrix: does `rule` apply to code in package `pkg`, in a file
/// of class `class`, at a token inside (`in_test`) or outside a
/// `#[cfg(test)]`/`#[test]` item?
///
/// * `P2` (no unsafe), `D3` (seeded RNG), `D4` (total_cmp): everywhere,
///   including tests — there is never a legitimate reason for these.
/// * `D1`: all code (tests included) of the result-affecting crates and the
///   trace crate (JSONL field order is pinned by a schema test).
/// * `D5`: all code (tests included) of the result-affecting crates; every
///   `f32` there needs a reasoned allow.
/// * `D2`: library code only, everywhere except the clock owners — bins,
///   tests, and benches may time things; results may not.
/// * `P1`, `D6`: library code only, of the `PANIC_FREE` crates — tests,
///   bins, benches, and examples are free to unwrap and cast. `D6` is
///   deliberately over-approximate (it cannot see the source type, so a
///   widening `u8 as usize` fires too); the fix is the same either way —
///   `usize::from` / `usize::try_from` — or a reasoned allow where the
///   truncation is the point.
/// * `S1`: like `P1`, library code of the `PANIC_FREE` crates — reachability
///   roots are `pub` functions there (the pass itself enforces the `pub`
///   part).
/// * `S2`, `S3`: library code only, any crate — the lock-order graph and
///   escape-hatch tallies span the whole workspace; the I-O-under-lock half
///   of `S2` is further restricted to [`s2_io_guarded`] crates.
pub fn rule_enabled(rule: RuleId, pkg: &str, class: FileClass, in_test: bool) -> bool {
    match rule {
        RuleId::P2 | RuleId::D3 | RuleId::D4 | RuleId::A0 => true,
        RuleId::D1 => RESULT_AFFECTING.contains(&pkg) || pkg == "cmmf-trace",
        RuleId::D5 => RESULT_AFFECTING.contains(&pkg),
        RuleId::D2 => !CLOCK_OWNERS.contains(&pkg) && class == FileClass::Lib && !in_test,
        RuleId::P1 | RuleId::D6 | RuleId::S1 => {
            PANIC_FREE.contains(&pkg) && class == FileClass::Lib && !in_test
        }
        RuleId::S2 | RuleId::S3 => class == FileClass::Lib && !in_test,
    }
}

/// Whether `pkg`'s library code is under the panic-free policy (`P1`/`S1`).
pub fn panic_free(pkg: &str) -> bool {
    PANIC_FREE.contains(&pkg)
}

/// Crates where holding a lock across blocking I/O is an `S2` finding. Only
/// the session daemon qualifies: its engine locks gate request latency for
/// every connected client. The trace crate deliberately writes JSONL while
/// holding its own output lock — serialized writes *are* its design.
pub fn s2_io_guarded(pkg: &str) -> bool {
    pkg == "cmmf-serve"
}

/// One raw rule match, before policy filtering and suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Which rule fired.
    pub rule: RuleId,
    /// 1-based source line.
    pub line: u32,
    /// The offending token text.
    pub excerpt: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Idents that construct entropy-seeded RNGs (D3).
const ENTROPY_RNG: [&str; 4] = ["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

/// Panic-family macros (P1); `.unwrap()`/`.expect()` are matched separately.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Cast targets that can lose bits (D6). `u64`/`i64`/`u128`/`i128`/`f64` are
/// not listed: every integer this workspace indexes with fits them.
const NARROWING_TARGETS: [&str; 8] = ["usize", "isize", "u32", "u16", "u8", "i32", "i16", "i8"];

/// Runs every pattern rule over the significant (non-comment) token stream.
/// `in_test[i]` tells whether token `i` sits inside a test item; matches carry
/// it back to the caller for policy filtering.
pub fn run_rules(tokens: &[Token], in_test: &[bool]) -> Vec<(Match, bool)> {
    let mut out = Vec::new();
    let ident = |i: usize| -> Option<&str> {
        match tokens.get(i).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize, c: char| matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Punct(p)) if *p == c);

    for (i, tok) in tokens.iter().enumerate() {
        let Tok::Ident(name) = &tok.kind else {
            continue;
        };
        let tested = in_test.get(i).copied().unwrap_or(false);
        let mut emit = |rule: RuleId, message: String| {
            out.push((
                Match {
                    rule,
                    line: tok.line,
                    excerpt: name.clone(),
                    message,
                },
                tested,
            ));
        };
        match name.as_str() {
            "HashMap" | "HashSet" => emit(
                RuleId::D1,
                format!(
                    "`{name}` iterates in nondeterministic order; use `BTree{}`",
                    &name[4..]
                ),
            ),
            "Instant" | "SystemTime" => emit(
                RuleId::D2,
                format!("`{name}` reads the clock; route timings through `trace::Stopwatch`"),
            ),
            "time"
                if ident(i.wrapping_sub(3)) == Some("std")
                    && punct(i.wrapping_sub(2), ':')
                    && punct(i.wrapping_sub(1), ':') =>
            {
                emit(
                    RuleId::D2,
                    "`std::time` is off-limits on result paths; clocks live in `trace`/`bench`"
                        .to_string(),
                )
            }
            _ if ENTROPY_RNG.contains(&name.as_str()) => emit(
                RuleId::D3,
                format!("`{name}` seeds from entropy; derive streams via `derive_stream_seed`"),
            ),
            "f32" => emit(
                RuleId::D5,
                "`f32` on a result path; double precision is the contract".to_string(),
            ),
            "partial_cmp" => emit(
                RuleId::D4,
                "`partial_cmp` on floats panics or misorders on NaN; use `total_cmp`".to_string(),
            ),
            _ if NARROWING_TARGETS.contains(&name.as_str())
                && ident(i.wrapping_sub(1)) == Some("as") =>
            {
                emit(
                    RuleId::D6,
                    format!(
                        "`as {name}` truncates silently; use `{name}::try_from` (or `{name}::from` \
                         where the conversion cannot lose bits)"
                    ),
                )
            }
            "unwrap" | "expect" if punct(i.wrapping_sub(1), '.') && punct(i + 1, '(') => emit(
                RuleId::P1,
                format!("`.{name}()` panics; propagate a `Result` instead"),
            ),
            _ if PANIC_MACROS.contains(&name.as_str()) && punct(i + 1, '!') => emit(
                RuleId::P1,
                format!("`{name}!` panics; return a typed error instead"),
            ),
            "unsafe" => emit(
                RuleId::P2,
                "`unsafe` is banned workspace-wide (`#![forbid(unsafe_code)]`)".to_string(),
            ),
            _ => {}
        }
    }
    out
}

/// Marks which significant tokens sit inside a `#[cfg(test)]` or `#[test]`
/// item (the attribute itself, the item header, and its `{ .. }` body or
/// trailing `;`). `#[cfg(not(test))]` is *not* a test marker.
pub fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(attr_end) = test_attr_end(tokens, i) {
            // Found `#[cfg(test)]`-style attr spanning [i, attr_end]. The
            // item extends through any further attributes, then to the end of
            // the item body (matching `{ .. }`) or a `;` for bodyless items.
            let mut j = attr_end + 1;
            // Skip subsequent attributes.
            while matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Punct('#')))
                && matches!(tokens.get(j + 1).map(|t| &t.kind), Some(Tok::Punct('[')))
            {
                j = match bracket_end(tokens, j + 1) {
                    Some(e) => e + 1,
                    None => tokens.len(),
                };
            }
            // Scan to the item's end.
            let mut end = tokens.len().saturating_sub(1);
            let mut k = j;
            while k < tokens.len() {
                match &tokens[k].kind {
                    Tok::Punct(';') => {
                        end = k;
                        break;
                    }
                    Tok::Punct('{') => {
                        end = brace_end(tokens, k).unwrap_or(tokens.len() - 1);
                        break;
                    }
                    _ => k += 1,
                }
            }
            for flag in in_test.iter_mut().take(end + 1).skip(i) {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// If tokens at `i` start a `#[..]` attribute that marks a test item
/// (contains the ident `test` and no `not`), returns the index of its
/// closing `]`.
fn test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Punct('#'))) {
        return None;
    }
    if !matches!(tokens.get(i + 1).map(|t| &t.kind), Some(Tok::Punct('['))) {
        return None;
    }
    let end = bracket_end(tokens, i + 1)?;
    let mut saw_test = false;
    for t in &tokens[i + 2..end] {
        if let Tok::Ident(s) = &t.kind {
            match s.as_str() {
                "test" => saw_test = true,
                "not" => return None, // `#[cfg(not(test))]` is production code
                _ => {}
            }
        }
    }
    saw_test.then_some(end)
}

/// Index of the `]` matching the `[` at `open`.
fn bracket_end(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn brace_end(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn significant(src: &str) -> Vec<Token> {
        lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, Tok::LineComment(_)))
            .collect()
    }

    fn rule_lines(src: &str, rule: RuleId) -> Vec<(u32, bool)> {
        let toks = significant(src);
        let in_test = mark_test_regions(&toks);
        run_rules(&toks, &in_test)
            .into_iter()
            .filter(|(m, _)| m.rule == rule)
            .map(|(m, t)| (m.line, t))
            .collect()
    }

    #[test]
    fn unwrap_call_fires_but_lookalikes_do_not() {
        let src = "fn f() { x.unwrap_or_else(|| 0); y.unwrap(); }";
        assert_eq!(rule_lines(src, RuleId::P1), [(1, false)]);
    }

    #[test]
    fn attribute_expect_is_not_a_method_call() {
        // The rustc lint attribute `#[expect(..)]` must not fire P1.
        let src = "#[expect(dead_code)]\nfn f() {}";
        assert!(rule_lines(src, RuleId::P1).is_empty());
    }

    #[test]
    fn panic_macros_fire_only_with_bang() {
        let src = "use std::panic::catch_unwind;\nfn f() { panic!(\"boom\") }";
        assert_eq!(rule_lines(src, RuleId::P1), [(2, false)]);
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn lib() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}";
        assert_eq!(rule_lines(src, RuleId::P1), [(1, false), (4, true)]);
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nfn lib() { a.unwrap(); }";
        assert_eq!(rule_lines(src, RuleId::P1), [(2, false)]);
    }

    #[test]
    fn std_time_path_fires_d2() {
        let src = "use std::time::Duration;";
        assert_eq!(rule_lines(src, RuleId::D2), [(1, false)]);
    }

    #[test]
    fn narrowing_casts_fire_d6_but_widening_targets_do_not() {
        let src = "fn f(n: u64) -> usize { n as usize }\nfn g(n: usize) -> u64 { n as u64 }\nfn h(c: char) -> u32 { c as u32 }";
        assert_eq!(rule_lines(src, RuleId::D6), [(1, false), (3, false)]);
    }

    #[test]
    fn d6_needs_the_as_keyword() {
        // Type positions and turbofish mention the type without a cast.
        let src = "fn f() -> usize { let v: Vec<usize> = x.collect::<Vec<usize>>(); v.len() }";
        assert!(rule_lines(src, RuleId::D6).is_empty());
        // `use x as y` renames, but never to a primitive type name.
        let src = "use std::io::Result as IoResult;";
        assert!(rule_lines(src, RuleId::D6).is_empty());
    }

    #[test]
    fn policy_matrix_spot_checks() {
        // D1 guards the result-affecting crates, tests included…
        assert!(rule_enabled(RuleId::D1, "cmmf", FileClass::Lib, true));
        // …but not the harness crates.
        assert!(!rule_enabled(
            RuleId::D1,
            "cmmf-bench",
            FileClass::Lib,
            false
        ));
        // D2: the trace crate owns the clock.
        assert!(!rule_enabled(
            RuleId::D2,
            "cmmf-trace",
            FileClass::Lib,
            false
        ));
        assert!(rule_enabled(RuleId::D2, "cmmf-gp", FileClass::Lib, false));
        // P1 exempts test code and non-lib classes.
        assert!(rule_enabled(RuleId::P1, "cmmf-gp", FileClass::Lib, false));
        assert!(!rule_enabled(RuleId::P1, "cmmf-gp", FileClass::Lib, true));
        assert!(!rule_enabled(
            RuleId::P1,
            "cmmf-gp",
            FileClass::Tests,
            false
        ));
        // P2/D3/D4 are universal.
        for pkg in ["cmmf", "cmmf-bench"] {
            assert!(rule_enabled(RuleId::P2, pkg, FileClass::Tests, true));
            assert!(rule_enabled(RuleId::D3, pkg, FileClass::Benches, true));
            assert!(rule_enabled(RuleId::D4, pkg, FileClass::Examples, true));
        }
        // S1 follows the panic-free set; S2/S3 cover all library code.
        assert!(rule_enabled(
            RuleId::S1,
            "cmmf-serve",
            FileClass::Lib,
            false
        ));
        assert!(!rule_enabled(
            RuleId::S1,
            "cmmf-bench",
            FileClass::Lib,
            false
        ));
        assert!(!rule_enabled(RuleId::S1, "cmmf-gp", FileClass::Lib, true));
        assert!(rule_enabled(
            RuleId::S2,
            "cmmf-bench",
            FileClass::Lib,
            false
        ));
        assert!(!rule_enabled(RuleId::S2, "cmmf", FileClass::Tests, false));
        assert!(rule_enabled(RuleId::S3, "cmmf", FileClass::Lib, false));
        // The I/O half of S2 is serve-only; trace owns its output lock.
        assert!(s2_io_guarded("cmmf-serve"));
        assert!(!s2_io_guarded("cmmf-trace"));
        assert!(panic_free("cmmf-lint"));
        assert!(!panic_free("cmmf-proptest"));
    }
}
