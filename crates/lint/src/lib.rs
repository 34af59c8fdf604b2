#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cmmf-lint — workspace determinism & panic-freedom linter
//!
//! Every load-bearing guarantee this reproduction ships — bit-identical rayon
//! parallelism, extend == refit bit-equality, indexed == naive EIPV,
//! kill-and-resume bit-identity — is a *determinism* invariant. The pinning
//! tests catch regressions after the fact; this linter catches the
//! ingredients that cause them (`HashMap` iteration, clock reads, unseeded
//! RNGs, `partial_cmp` on floats) *statically*, plus the panic-freedom sweep
//! (`P1`/`P2`) that keeps library code `Result`-propagating.
//!
//! Two layers share one front end. The token layer is a hand-rolled lexer
//! ([`lexer`]) that is exact about comments, strings, raw strings, and char
//! literals, feeding a pattern engine ([`rules`]) with a per-crate policy
//! matrix. The semantic layer parses items ([`parser`]), builds a
//! workspace-wide call graph ([`graph`]), and runs three passes ([`passes`]):
//! `S1` panic-reachability, `S2` lock-order, `S3` contract-coverage. No
//! `syn`, no dependencies — the linter must run in the hermetic build
//! container and must not depend on anything it audits.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p cmmf-lint -- --workspace [--json] [--root <dir>] [--changed <ref>]
//! ```
//!
//! Suppress a finding with a reasoned allow on the same line or the line
//! directly above:
//!
//! ```text
//! // cmmf-lint: allow(P1) -- propagating a worker thread's panic is join's contract
//! ```
//!
//! Mark a function as a hot path (so `S1` treats unchecked indexing inside
//! it as a panic site) with a marker comment on the line above it:
//!
//! ```text
//! // cmmf-lint: hot-path
//! pub fn kernel_row(&self, i: usize) -> &[f64] { ... }
//! ```
//!
//! See `ARCHITECTURE.md` § "Static invariants" for the full rule table and
//! the policy matrix.

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod rules;
pub mod selfcheck;

use graph::{Acquirer, CallGraph};
use lexer::{Tok, Token};
use rules::{FileClass, Match, RuleId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// A finding that survived policy filtering and suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The offending token text.
    pub excerpt: String,
    /// Explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} ({})",
            self.path,
            self.line,
            self.rule.id(),
            self.message,
            self.excerpt
        )
    }
}

/// The result of scanning one file or a whole workspace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of matches silenced by a well-formed `allow` comment.
    pub suppressed: usize,
}

impl Report {
    /// Merges another report into this one (workspace accumulation).
    fn absorb(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.files_scanned += other.files_scanned;
        self.suppressed += other.suppressed;
    }

    /// Canonical ordering so reports are byte-stable across runs.
    fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// Per-rule finding counts, in [`RuleId::ALL`] order (zeros included).
    pub fn rule_counts(&self) -> Vec<(RuleId, usize)> {
        RuleId::ALL
            .into_iter()
            .map(|r| (r, self.findings.iter().filter(|f| f.rule == r).count()))
            .collect()
    }

    /// Serializes the report as a single stable JSON object.
    ///
    /// `schema_version` 2: v1 plus a `rule_counts` object (every rule ID in
    /// report order, zeros included) inserted between `suppressed` and
    /// `findings`. The `findings` element shape is unchanged from v1, so a
    /// v1 consumer that indexes by key instead of position keeps working.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema_version\":2,\"files_scanned\":");
        s.push_str(&self.files_scanned.to_string());
        s.push_str(",\"suppressed\":");
        s.push_str(&self.suppressed.to_string());
        s.push_str(",\"rule_counts\":{");
        for (i, (rule, count)) in self.rule_counts().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(rule.id());
            s.push_str("\":");
            s.push_str(&count.to_string());
        }
        s.push_str("},\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"rule\":\"");
            s.push_str(f.rule.id());
            s.push_str("\",\"path\":");
            s.push_str(&json_string(&f.path));
            s.push_str(",\"line\":");
            s.push_str(&f.line.to_string());
            s.push_str(",\"excerpt\":");
            s.push_str(&json_string(&f.excerpt));
            s.push_str(",\"message\":");
            s.push_str(&json_string(&f.message));
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Errors from the workspace walker.
#[derive(Debug)]
pub enum LintError {
    /// An IO failure, with the path that caused it.
    Io {
        /// The path being read.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `Cargo.toml` of a member crate has no `name = "..."` line.
    NoPackageName(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            LintError::NoPackageName(p) => {
                write!(f, "{}: no `name = \"..\"` in [package]", p.display())
            }
        }
    }
}

impl std::error::Error for LintError {}

/// A parsed suppression: silences `rules` on line `target_line`.
struct Suppression {
    target_line: u32,
    rules: Vec<RuleId>,
}

/// One source file to scan, with its package/class labels.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Package the file belongs to (policy matrix key).
    pub pkg: String,
    /// Where the file sits in its crate.
    pub class: FileClass,
    /// Workspace-relative path (labels findings; keys `--changed`).
    pub path: String,
    /// The file's source text.
    pub src: String,
}

/// Per-file front-end state shared by the token and semantic layers.
struct FileCtx<'a> {
    spec: &'a SourceSpec,
    significant: Vec<Token>,
    in_test: Vec<bool>,
    sups: Vec<Suppression>,
    bad: Vec<Finding>,
    hot: BTreeSet<u32>,
    matches: Vec<(Match, bool)>,
}

/// Scans one source string as `pkg`/`class` and returns the surviving
/// findings. `path` is only used to label findings. The semantic passes run
/// over the single file (resolution scoped to `pkg` alone).
pub fn scan_source(src: &str, pkg: &str, class: FileClass, path: &str) -> Report {
    let specs = [SourceSpec {
        pkg: pkg.to_string(),
        class,
        path: path.to_string(),
        src: src.to_string(),
    }];
    scan_sources(&specs, &BTreeMap::new())
}

/// Scans a set of files as one unit: token rules per file, then the
/// call-graph passes across the whole set. `deps` maps each package to its
/// direct path dependencies (dev-dependencies excluded), scoping name
/// resolution.
pub fn scan_sources(specs: &[SourceSpec], deps: &BTreeMap<String, Vec<String>>) -> Report {
    scan_sources_graph(specs, deps).0
}

/// Like [`scan_sources`], but keeps only findings relevant to `changed`
/// files: token findings in the changed set itself, `S1`/`S2` findings in
/// the changed set's reverse call-graph closure (a changed callee can break
/// its callers' invariants), and `S3` findings always (deleting a test is
/// exactly the change that must not pass). `files_scanned` still counts the
/// full set — the graph is whole-workspace regardless.
pub fn scan_sources_changed(
    specs: &[SourceSpec],
    deps: &BTreeMap<String, Vec<String>>,
    changed: &BTreeSet<String>,
) -> Report {
    let (mut report, g) = scan_sources_graph(specs, deps);
    let affected = g.dependent_files(changed);
    report.findings.retain(|f| match f.rule {
        RuleId::S3 => true,
        RuleId::S1 | RuleId::S2 => affected.contains(&f.path),
        _ => changed.contains(&f.path),
    });
    report
}

/// The full engine: per-file token layer, then graph construction and the
/// three semantic passes, then suppression filtering for everything.
fn scan_sources_graph(
    specs: &[SourceSpec],
    deps: &BTreeMap<String, Vec<String>>,
) -> (Report, CallGraph) {
    // Front end, per file; acquirer discovery is a workspace-wide pre-pass
    // so a helper in `serve` resolves when scanning `serve`'s other files.
    let mut ctxs: Vec<FileCtx<'_>> = Vec::with_capacity(specs.len());
    let mut acquirers: BTreeMap<String, Acquirer> = BTreeMap::new();
    for spec in specs {
        let all = lexer::lex(&spec.src);
        let significant: Vec<Token> = all
            .iter()
            .filter(|t| !matches!(t.kind, Tok::LineComment(_)))
            .cloned()
            .collect();
        let in_test = rules::mark_test_regions(&significant);
        let (sups, bad, hot) = parse_suppressions(&all, &significant, &spec.path);
        let matches = rules::run_rules(&significant, &in_test);
        for (name, acq) in graph::find_acquirers(&significant) {
            acquirers.entry(name).or_insert(acq);
        }
        ctxs.push(FileCtx {
            spec,
            significant,
            in_test,
            sups,
            bad,
            hot,
            matches,
        });
    }

    // Semantic model per file, with P1/S1-sanctioned panic sites removed
    // before they can seed reachability.
    let mut fns = Vec::new();
    let mut tally = passes::HatchTally::default();
    for ctx in &ctxs {
        let mut nodes = graph::file_fns(
            &ctx.significant,
            &ctx.in_test,
            &ctx.hot,
            &ctx.spec.pkg,
            &ctx.spec.path,
            ctx.spec.class,
            &acquirers,
        );
        for node in &mut nodes {
            node.panics.retain(|p| {
                !ctx.sups.iter().any(|s| {
                    s.target_line == p.line
                        && (s.rules.contains(&RuleId::P1) || s.rules.contains(&RuleId::S1))
                })
            });
        }
        fns.extend(nodes);
        passes::tally_hatches(
            &ctx.significant,
            &ctx.in_test,
            ctx.spec.class,
            &ctx.spec.path,
            &mut tally,
        );
    }
    let g = CallGraph::build(fns, deps);

    let mut semantic = passes::panic_reachability(&g);
    semantic.extend(passes::lock_order(&g));
    semantic.extend(passes::contract_coverage(&tally));

    // Token findings, policy-filtered and suppressed per file.
    let mut report = Report::default();
    for ctx in ctxs.iter_mut() {
        let mut findings = std::mem::take(&mut ctx.bad);
        let mut suppressed = 0usize;
        for (m, tested) in &ctx.matches {
            if !rules::rule_enabled(m.rule, &ctx.spec.pkg, ctx.spec.class, *tested) {
                continue;
            }
            let silenced = ctx
                .sups
                .iter()
                .any(|s| s.target_line == m.line && s.rules.contains(&m.rule));
            if silenced {
                suppressed += 1;
            } else {
                findings.push(Finding {
                    rule: m.rule,
                    path: ctx.spec.path.clone(),
                    line: m.line,
                    excerpt: m.excerpt.clone(),
                    message: m.message.clone(),
                });
            }
        }
        report.absorb(Report {
            findings,
            files_scanned: 1,
            suppressed,
        });
    }

    // Semantic findings flow through the same suppression comments, keyed
    // by the finding's own line (the fn line for S1, the acquisition or
    // call line for S2, the first library reference for S3).
    for f in semantic {
        let silenced = ctxs.iter().any(|c| {
            c.spec.path == f.path
                && c.sups
                    .iter()
                    .any(|s| s.target_line == f.line && s.rules.contains(&f.rule))
        });
        if silenced {
            report.suppressed += 1;
        } else {
            report.findings.push(f);
        }
    }

    report.sort();
    (report, g)
}

/// Extracts `cmmf-lint:` comments: `allow(..) -- reason` suppressions and
/// `hot-path` markers. A comment sharing its line with code targets that
/// line; a comment alone on its line targets the next line holding a
/// significant token. Malformed directives (no parsable rule list, unknown
/// rule name, missing `-- reason`, or an unknown marker) become `A0`
/// findings.
fn parse_suppressions(
    all: &[Token],
    significant: &[Token],
    path: &str,
) -> (Vec<Suppression>, Vec<Finding>, BTreeSet<u32>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    let mut hot = BTreeSet::new();
    for t in all {
        let Tok::LineComment(text) = &t.kind else {
            continue;
        };
        // Doc comments start with an extra `/` or `!`; strip before matching.
        let body = text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = body.strip_prefix("cmmf-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let has_code_on_line = significant.iter().any(|s| s.line == t.line);
        let target_line = if has_code_on_line {
            t.line
        } else {
            significant
                .iter()
                .map(|s| s.line)
                .filter(|&l| l > t.line)
                .min()
                .unwrap_or(t.line + 1)
        };
        if rest == "hot-path" {
            hot.insert(target_line);
            continue;
        }
        match parse_allow(rest) {
            Some(rules) => sups.push(Suppression { target_line, rules }),
            None => bad.push(Finding {
                rule: RuleId::A0,
                path: path.to_string(),
                line: t.line,
                excerpt: body.to_string(),
                message: "malformed suppression; use `cmmf-lint: allow(<rules>) -- <reason>` \
                          (or the bare `cmmf-lint: hot-path` marker)"
                    .to_string(),
            }),
        }
    }
    (sups, bad, hot)
}

/// Parses `allow(D1, P1) -- reason`; `None` when malformed or reasonless.
fn parse_allow(s: &str) -> Option<Vec<RuleId>> {
    let rest = s.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rules: Option<Vec<RuleId>> = rest[..close]
        .split(',')
        .map(|r| RuleId::parse(r.trim()))
        .collect();
    let rules = rules?;
    if rules.is_empty() {
        return None;
    }
    let tail = rest[close + 1..].trim();
    let reason = tail.strip_prefix("--")?.trim();
    if reason.is_empty() {
        return None;
    }
    Some(rules)
}

/// Scans the whole workspace rooted at `root`: the root package plus every
/// `crates/*` member, as one unit (the call graph spans all of them).
pub fn scan_workspace(root: &Path) -> Result<Report, LintError> {
    let specs = workspace_specs(root)?;
    let deps = workspace_deps(root)?;
    Ok(scan_sources(&specs, &deps))
}

/// [`scan_workspace`], filtered to `changed` workspace-relative paths and
/// their reverse call-graph dependents (see [`scan_sources_changed`]).
pub fn scan_workspace_changed(
    root: &Path,
    changed: &BTreeSet<String>,
) -> Result<Report, LintError> {
    let specs = workspace_specs(root)?;
    let deps = workspace_deps(root)?;
    Ok(scan_sources_changed(&specs, &deps, changed))
}

/// One workspace member to scan.
struct Member {
    /// Package name from `Cargo.toml`.
    pkg: String,
    /// Member root directory.
    dir: PathBuf,
}

/// Workspace members: the root package plus every `crates/*` member with a
/// manifest, in sorted order.
fn workspace_members(root: &Path) -> Result<Vec<Member>, LintError> {
    let mut members = vec![Member {
        pkg: package_name(&root.join("Cargo.toml"))?,
        dir: root.to_path_buf(),
    }];
    let crates_dir = root.join("crates");
    for dir in read_dir_sorted(&crates_dir)? {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            members.push(Member {
                pkg: package_name(&manifest)?,
                dir,
            });
        }
    }
    Ok(members)
}

/// Loads every member's lintable files. Only `src/`, `tests/`, `benches/`,
/// and `examples/` subtrees are visited, so non-compiled fixtures (e.g. this
/// crate's `fixtures/`) are never linted.
fn workspace_specs(root: &Path) -> Result<Vec<SourceSpec>, LintError> {
    let mut specs = Vec::new();
    for m in workspace_members(root)? {
        for (sub, base_class) in [
            ("src", FileClass::Lib),
            ("tests", FileClass::Tests),
            ("benches", FileClass::Benches),
            ("examples", FileClass::Examples),
        ] {
            let sub_dir = m.dir.join(sub);
            if !sub_dir.is_dir() {
                continue;
            }
            for file in rs_files_under(&sub_dir)? {
                let class = classify(&file, &sub_dir, base_class);
                let src = std::fs::read_to_string(&file).map_err(|e| LintError::Io {
                    path: file.clone(),
                    source: e,
                })?;
                let rel = file
                    .strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                specs.push(SourceSpec {
                    pkg: m.pkg.clone(),
                    class,
                    path: rel,
                    src,
                });
            }
        }
    }
    Ok(specs)
}

/// The package dependency map used to scope call resolution: for every
/// member, its direct `[dependencies]` (dev-dependencies deliberately
/// excluded — library code cannot link against them, and the vendored
/// harness crates would otherwise alias into the guarded crates' graphs).
/// Aliased entries resolve through `[workspace.dependencies]` or an inline
/// `package = "..."` key.
fn workspace_deps(root: &Path) -> Result<BTreeMap<String, Vec<String>>, LintError> {
    let root_manifest = root.join("Cargo.toml");
    let text = std::fs::read_to_string(&root_manifest).map_err(|e| LintError::Io {
        path: root_manifest.clone(),
        source: e,
    })?;
    let mut alias_to_pkg: BTreeMap<String, String> = BTreeMap::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line.to_string();
            continue;
        }
        if section == "[workspace.dependencies]" {
            if let Some((key, rest)) = line.split_once('=') {
                let key = key.trim();
                if key.is_empty() || key.starts_with('#') {
                    continue;
                }
                let pkg = extract_package(rest).unwrap_or_else(|| key.to_string());
                alias_to_pkg.insert(key.to_string(), pkg);
            }
        }
    }

    let mut deps: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for m in workspace_members(root)? {
        let manifest = m.dir.join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).map_err(|e| LintError::Io {
            path: manifest.clone(),
            source: e,
        })?;
        let mut list = Vec::new();
        let mut section = String::new();
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                section = line.to_string();
                continue;
            }
            if section == "[dependencies]" {
                if let Some((key, rest)) = line.split_once('=') {
                    // `cmmf.workspace = true` keys the alias before the dot.
                    let key = match key.trim().split('.').next() {
                        Some(k) => k.trim(),
                        None => continue,
                    };
                    if key.is_empty() || key.starts_with('#') {
                        continue;
                    }
                    let dep_pkg = extract_package(rest)
                        .or_else(|| alias_to_pkg.get(key).cloned())
                        .unwrap_or_else(|| key.to_string());
                    list.push(dep_pkg);
                }
            }
        }
        list.sort();
        list.dedup();
        deps.insert(m.pkg, list);
    }
    Ok(deps)
}

/// Reads the value of an inline `package = "..."` key, if present.
fn extract_package(rest: &str) -> Option<String> {
    let idx = rest.find("package")?;
    let after = rest[idx + "package".len()..].trim_start();
    let after = after.strip_prefix('=')?.trim_start();
    let after = after.strip_prefix('"')?;
    let end = after.find('"')?;
    Some(after[..end].to_string())
}

/// `src/bin/**` and `src/main.rs` are binaries; everything else keeps the
/// directory's base class.
fn classify(file: &Path, sub_dir: &Path, base: FileClass) -> FileClass {
    if base != FileClass::Lib {
        return base;
    }
    let rel = file.strip_prefix(sub_dir).unwrap_or(file);
    let is_bin = rel.starts_with("bin") || rel == Path::new("main.rs");
    if is_bin {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rs_files_under(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in read_dir_sorted(&d)? {
            if entry.is_dir() {
                stack.push(entry);
            } else if entry.extension().is_some_and(|e| e == "rs") {
                out.push(entry);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Directory entries in lexicographic order (scan order must be stable).
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = std::fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.to_path_buf(),
        source: e,
    })?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| LintError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

/// Reads `name = "…"` from the `[package]` section of a manifest.
fn package_name(manifest: &Path) -> Result<String, LintError> {
    let text = std::fs::read_to_string(manifest).map_err(|e| LintError::Io {
        path: manifest.to_path_buf(),
        source: e,
    })?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let v = rest.trim().trim_matches('"');
                    return Ok(v.to_string());
                }
            }
        }
    }
    Err(LintError::NoPackageName(manifest.to_path_buf()))
}
