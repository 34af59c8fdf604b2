//! The workspace-wide call graph and the per-function semantic model the
//! `S1`–`S3` passes consume.
//!
//! ## Name resolution, and how it over-approximates
//!
//! There is no type information, so a call is resolved *by name*: `foo(..)`
//! and `Path::foo(..)` resolve to every workspace function named `foo`;
//! `.foo(..)` resolves to every workspace method named `foo`. Resolution is
//! scoped to the caller's crate plus its transitive path dependencies
//! (`[dependencies]` only — dev-dependencies are excluded, because library
//! code cannot link against them), which keeps the vendored harness crate
//! (`cmmf-proptest`) from aliasing into the guarded crates' graphs. Trait dispatch and closures are the known
//! over-approximations: a trait-method call reaches *every* impl of that
//! method name in scope, and a closure's body belongs to its enclosing
//! function. Both err toward reporting (see `ARCHITECTURE.md`).
//!
//! ## The lock model
//!
//! A lock is identified by the field (or binding) name it is acquired
//! through: `self.state.lock()` acquires `state`. Guard lifetimes are
//! tracked lexically and path-insensitively, in token order:
//!
//! * `let g = <acquisition>;` holds until `g`'s block ends, an explicit
//!   `drop(g)`, or end of function; reassignment (`g = cv.wait(g)`) keeps
//!   it held.
//! * An acquisition without a `let` binding (a temporary, including
//!   `if let Some(x) = m.lock()..` scrutinees) holds until the next `;` at
//!   its depth or the end of its block — matching the 2021-edition
//!   temporary-lifetime rules closely enough for ordering purposes.
//! * Functions that *return* a guard (signature mentions `MutexGuard` /
//!   `RwLockReadGuard` / `RwLockWriteGuard`) are **acquirer functions**: a
//!   call to one is an acquisition at the call site. A concrete acquirer
//!   (`serve::lock_state`) contributes the lock it wraps; a parametric one
//!   (it locks through one of its own parameters, like
//!   `trace::lock_unpoisoned`) takes its lock identity
//!   from the call-site argument (`lock_unpoisoned(&self.out)` → `out`).

use crate::lexer::{Tok, Token};
use crate::parser::{owner_map, parse_fns, FnItem};
use crate::rules::FileClass;
use std::collections::{BTreeMap, BTreeSet};

/// Panic-family method names (mirrors the `P1` token rule).
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Panic-family macros (mirrors the `P1` token rule).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
/// Keywords that can precede a `(` without being a call.
const CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "mut",
    "ref", "break",
];
/// Identifiers that perform blocking file or socket I/O when called.
const BLOCKING_IO: [&str; 15] = [
    "read_to_string",
    "read_dir",
    "create_dir_all",
    "remove_dir_all",
    "remove_file",
    "rename",
    "copy",
    "write_all",
    "read_line",
    "read_exact",
    "accept",
    "connect",
    "bind",
    "set_len",
    "sync_all",
];
/// `fs::`-qualified calls that are I/O even though the bare name is generic.
const FS_QUALIFIED_IO: [&str; 4] = ["write", "read", "metadata", "canonicalize"];

/// How a guard-returning helper names the lock it acquires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquirer {
    /// The helper always locks the same field (`lock_state` → `state`).
    Concrete(String),
    /// The helper locks through a parameter; the call-site argument names
    /// the lock (`lock_unpoisoned(&self.out)` → `out`).
    Parametric,
}

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` or `Path::foo(..)` — resolved for calls *and* for
    /// transitive lock/I-O propagation.
    Free,
    /// `.foo(..)` — resolved for panic reachability, but not for transitive
    /// lock/I-O propagation (method-name collisions with std are too
    /// common; acquirer methods are modeled directly instead).
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Free/path call vs. method call.
    pub kind: CallKind,
    /// Lock names held when the call executes (linear scan).
    pub held: Vec<String>,
}

/// One lock acquisition inside a function body (direct `.lock()` or a call
/// to an acquirer function).
#[derive(Debug, Clone)]
pub struct LockAcquire {
    /// The lock's name (field or binding it is acquired through).
    pub lock: String,
    /// 1-based source line of the acquisition.
    pub line: u32,
    /// Lock names already held at this acquisition (linear scan).
    pub held: Vec<String>,
}

/// One direct blocking-I/O token inside a function body.
#[derive(Debug, Clone)]
pub struct IoSite {
    /// The I/O call name (`read_to_string`, `rename`, …).
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Lock names held when the I/O executes (linear scan).
    pub held: Vec<String>,
}

/// One potential panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What panics (`unwrap`, `panic!`, `index`).
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// A function node of the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Bare name (resolution key).
    pub name: String,
    /// `Type::name` label for messages.
    pub qualified: String,
    /// Package the function lives in.
    pub pkg: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Literal-`pub` visibility (any `pub` form).
    pub is_pub: bool,
    /// File class of the defining file.
    pub class: FileClass,
    /// Whether the item sits inside a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions, in source order.
    pub acquires: Vec<LockAcquire>,
    /// Direct blocking-I/O sites, in source order.
    pub io: Vec<IoSite>,
    /// Potential panic sites (P1 family + hot-path indexing).
    pub panics: Vec<PanicSite>,
    /// Locks this function acquires through its own fields (parameter-named
    /// acquisitions, as in a parametric acquirer's body, are excluded).
    pub own_locks: Vec<String>,
}

impl FnNode {
    /// True for code that exists in a production build: library files
    /// outside test regions.
    pub fn is_production(&self) -> bool {
        self.class == FileClass::Lib && !self.in_test
    }
}

/// Scans a file's functions for guard-returning helpers. Returns
/// `(name, acquirer)` pairs for the engine to merge into the workspace map.
pub fn find_acquirers(tokens: &[Token]) -> Vec<(String, Acquirer)> {
    let mut out = Vec::new();
    for item in parse_fns(tokens) {
        if !signature_returns_guard(tokens, &item) {
            continue;
        }
        // The lock the helper wraps: the receiver of the first direct
        // `.lock()` in its body. A receiver that is one of the helper's own
        // parameters makes it parametric.
        let mut k = item.body.0;
        let mut found: Option<Acquirer> = None;
        while k + 2 <= item.body.1 {
            if let (Tok::Ident(recv), Tok::Punct('.'), Tok::Ident(m)) =
                (&tokens[k].kind, &tokens[k + 1].kind, &tokens[k + 2].kind)
            {
                if m == "lock" && recv != "self" {
                    found = Some(if item.params.contains(recv) {
                        Acquirer::Parametric
                    } else {
                        Acquirer::Concrete(recv.clone())
                    });
                    break;
                }
            }
            k += 1;
        }
        if let Some(acq) = found {
            out.push((item.name.clone(), acq));
        }
    }
    out
}

/// Extracts the semantic model of every function in one file.
///
/// `tokens` must be the significant (comment-free) stream; `in_test` its
/// test-region marks; `hot_lines` the set of `fn`-definition lines annotated
/// `cmmf-lint: hot-path` (indexing there is a panic site); `acquirers` the
/// workspace map of guard-returning helpers.
pub fn file_fns(
    tokens: &[Token],
    in_test: &[bool],
    hot_lines: &BTreeSet<u32>,
    pkg: &str,
    path: &str,
    class: FileClass,
    acquirers: &BTreeMap<String, Acquirer>,
) -> Vec<FnNode> {
    let items = parse_fns(tokens);
    let owner = owner_map(tokens, &items);
    items
        .iter()
        .enumerate()
        .map(|(idx, item)| {
            let tested = in_test.get(item.sig.0).copied().unwrap_or(false);
            let hot = hot_lines.contains(&item.line);
            let mut node = FnNode {
                name: item.name.clone(),
                qualified: item.qualified(),
                pkg: pkg.to_string(),
                path: path.to_string(),
                line: item.line,
                is_pub: item.is_pub,
                class,
                in_test: tested,
                calls: Vec::new(),
                acquires: Vec::new(),
                io: Vec::new(),
                panics: Vec::new(),
                own_locks: Vec::new(),
            };
            scan_body(tokens, &owner, idx, item, &mut node, hot, acquirers);
            let mut own: Vec<String> = node
                .acquires
                .iter()
                .filter(|a| !item.params.contains(&a.lock))
                .map(|a| a.lock.clone())
                .collect();
            own.sort();
            own.dedup();
            node.own_locks = own;
            node
        })
        .collect()
}

/// Whether the return type (tokens between the param list and the body)
/// mentions a guard type.
fn signature_returns_guard(tokens: &[Token], item: &FnItem) -> bool {
    tokens[item.sig.0..item.sig.1].iter().any(|t| {
        matches!(&t.kind, Tok::Ident(s)
            if s == "MutexGuard" || s == "RwLockReadGuard" || s == "RwLockWriteGuard")
    })
}

/// A live guard during the linear body scan.
struct Guard {
    lock: String,
    /// Binding name, or `None` for a statement temporary.
    var: Option<String>,
    /// Brace depth at acquisition; the guard dies when depth drops below.
    depth: usize,
}

fn held_of(guards: &[Guard]) -> Vec<String> {
    let mut h: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
    h.sort();
    h.dedup();
    h
}

/// Scans one function body linearly, recording calls, acquisitions, I/O, and
/// panic sites together with the set of locks held at each point.
fn scan_body(
    tokens: &[Token],
    owner: &[usize],
    self_idx: usize,
    item: &FnItem,
    node: &mut FnNode,
    hot: bool,
    acquirers: &BTreeMap<String, Acquirer>,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let ident = |i: usize| -> Option<&str> {
        match tokens.get(i).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize, c: char| matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Punct(p)) if *p == c);

    let mut i = item.body.0;
    while i <= item.body.1 && i < tokens.len() {
        // Tokens owned by a nested fn are that fn's business.
        if owner.get(i) != Some(&self_idx) {
            i += 1;
            continue;
        }
        match &tokens[i].kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            Tok::Punct(';') => {
                guards.retain(|g| g.var.is_some() || g.depth < depth);
            }
            Tok::Ident(name) => {
                let line = tokens[i].line;
                let is_method = punct(i.wrapping_sub(1), '.');
                let paren = if punct(i + 1, '(') {
                    Some(i + 1)
                } else {
                    turbofish_call(tokens, i)
                };

                // `drop(g)` releases a bound guard.
                if name == "drop" && punct(i + 1, '(') {
                    if let Some(v) = ident(i + 2) {
                        guards.retain(|g| g.var.as_deref() != Some(v));
                    }
                }

                // Direct lock acquisition: `<recv>.lock()` where the receiver
                // names a field or binding (method-call position only).
                if name == "lock" && is_method && paren.is_some() {
                    if let Some(recv) = ident(i.wrapping_sub(2)) {
                        if recv != "self" {
                            let held = held_of(&guards);
                            record_acquire(tokens, item, &mut guards, depth, i, recv);
                            node.acquires.push(LockAcquire {
                                lock: recv.to_string(),
                                line,
                                held,
                            });
                            i += 1;
                            continue;
                        }
                    }
                }

                // Call sites (free/path or method).
                let is_call = paren.is_some()
                    && !CALL_KEYWORDS.contains(&name.as_str())
                    && ident(i.wrapping_sub(1)) != Some("fn");
                if is_call {
                    let kind = if is_method {
                        CallKind::Method
                    } else {
                        CallKind::Free
                    };
                    node.calls.push(CallSite {
                        name: name.clone(),
                        line,
                        kind,
                        held: held_of(&guards),
                    });

                    // A call to a guard-returning helper is an acquisition.
                    if let Some(acq) = acquirers.get(name.as_str()) {
                        let lock = match acq {
                            Acquirer::Concrete(l) => Some(l.clone()),
                            Acquirer::Parametric => call_arg_lock(tokens, paren.unwrap_or(i + 1)),
                        };
                        if let Some(lock) = lock {
                            let held = held_of(&guards);
                            record_acquire(tokens, item, &mut guards, depth, i, &lock);
                            node.acquires.push(LockAcquire { lock, line, held });
                        }
                    }
                }

                // Direct blocking I/O.
                let fs_qualified = ident(i.wrapping_sub(3)) == Some("fs")
                    && punct(i.wrapping_sub(2), ':')
                    && punct(i.wrapping_sub(1), ':');
                if is_call
                    && (BLOCKING_IO.contains(&name.as_str())
                        || (fs_qualified && FS_QUALIFIED_IO.contains(&name.as_str())))
                {
                    node.io.push(IoSite {
                        name: name.clone(),
                        line,
                        held: held_of(&guards),
                    });
                }

                // Panic sites: the P1 token family…
                if PANIC_METHODS.contains(&name.as_str()) && is_method && punct(i + 1, '(') {
                    node.panics.push(PanicSite {
                        what: name.clone(),
                        line,
                    });
                }
                if PANIC_MACROS.contains(&name.as_str()) && punct(i + 1, '!') {
                    node.panics.push(PanicSite {
                        what: format!("{name}!"),
                        line,
                    });
                }
            }
            Tok::Punct('[') if hot => {
                // …plus indexing, in functions annotated as hot paths:
                // `v[i]` after an ident, `)`, or `]`.
                let prev = tokens.get(i.wrapping_sub(1)).map(|t| &t.kind);
                if matches!(
                    prev,
                    Some(Tok::Ident(_)) | Some(Tok::Punct(')')) | Some(Tok::Punct(']'))
                ) {
                    node.panics.push(PanicSite {
                        what: "index".to_string(),
                        line: tokens[i].line,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// The lock a parametric acquirer call names: the last ident inside the
/// argument list (`lock_unpoisoned(&self.out)` → `out`).
fn call_arg_lock(tokens: &[Token], open: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut last: Option<String> = None;
    for t in tokens.iter().skip(open) {
        match &t.kind {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return last;
                }
            }
            Tok::Ident(s) if s != "self" => last = Some(s.clone()),
            _ => {}
        }
    }
    None
}

/// Registers a new guard for an acquisition at token `i`, binding it to a
/// `let` variable when the enclosing statement is a `let` binding.
fn record_acquire(
    tokens: &[Token],
    item: &FnItem,
    guards: &mut Vec<Guard>,
    depth: usize,
    i: usize,
    lock: &str,
) {
    let var = let_binding_of(tokens, item.body.0, i);
    // Shadowing or re-locking under the same binding replaces the old guard.
    if let Some(v) = &var {
        guards.retain(|g| g.var.as_deref() != Some(v.as_str()));
    }
    guards.push(Guard {
        lock: lock.to_string(),
        var,
        depth,
    });
}

/// If the statement containing token `i` starts `let <ident> =`, returns the
/// ident. Scans back to the previous statement boundary.
fn let_binding_of(tokens: &[Token], body_start: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > body_start {
        j -= 1;
        match &tokens[j].kind {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => {
                j += 1;
                break;
            }
            _ => {}
        }
    }
    let word = |k: usize| -> Option<&str> {
        match tokens.get(k).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    if word(j) != Some("let") {
        return None;
    }
    match word(j + 1) {
        Some("mut") => word(j + 2).map(str::to_string),
        Some(v) => Some(v.to_string()),
        None => None,
    }
}

/// Detects `name::<..>(` turbofish call syntax at ident `i`; returns the
/// index of the `(` when present.
fn turbofish_call(tokens: &[Token], i: usize) -> Option<usize> {
    let colon = |k: usize| matches!(tokens.get(k).map(|t| &t.kind), Some(Tok::Punct(':')));
    if !(colon(i + 1) && colon(i + 2)) {
        return None;
    }
    if !matches!(tokens.get(i + 3).map(|t| &t.kind), Some(Tok::Punct('<'))) {
        return None;
    }
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(i + 3).take(64) {
        match t.kind {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return match tokens.get(k + 1).map(|t| &t.kind) {
                        Some(Tok::Punct('(')) => Some(k + 1),
                        _ => None,
                    };
                }
            }
            Tok::Punct(';') | Tok::Punct('{') => return None,
            _ => {}
        }
    }
    None
}

/// The workspace call graph: all function nodes plus name-resolution and
/// reachability machinery.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function in the analyzed set, in (path, line) order.
    pub fns: Vec<FnNode>,
    /// name → indices of fns with that name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// pkg → transitive dependency packages (self included).
    dep_closure: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Assembles the graph from per-file nodes and the package dependency
    /// map (`deps[p]` = direct path dependencies of `p`; dev-dependencies
    /// excluded by the caller).
    pub fn build(mut fns: Vec<FnNode>, deps: &BTreeMap<String, Vec<String>>) -> CallGraph {
        fns.sort_by(|a, b| (&a.path, a.line, &a.qualified).cmp(&(&b.path, b.line, &b.qualified)));
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut dep_closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let pkgs: BTreeSet<&String> = fns.iter().map(|f| &f.pkg).collect();
        for pkg in pkgs {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut stack = vec![pkg.clone()];
            while let Some(p) = stack.pop() {
                if seen.insert(p.clone()) {
                    if let Some(ds) = deps.get(&p) {
                        stack.extend(ds.iter().cloned());
                    }
                }
            }
            dep_closure.insert(pkg.clone(), seen);
        }
        CallGraph {
            fns,
            by_name,
            dep_closure,
        }
    }

    /// Indices of the workspace functions a call from `caller` to `name`
    /// may reach: same-name fns in the caller's crate or its transitive
    /// dependencies.
    pub fn resolve(&self, caller: usize, name: &str) -> Vec<usize> {
        let caller_pkg = &self.fns[caller].pkg;
        let in_scope = self.dep_closure.get(caller_pkg);
        self.by_name
            .get(name)
            .map(|cands| {
                cands
                    .iter()
                    .copied()
                    .filter(|&j| {
                        j != caller && in_scope.is_none_or(|scope| scope.contains(&self.fns[j].pkg))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Forward adjacency over production nodes only (a library function
    /// cannot call into `#[cfg(test)]` code in a production build).
    pub fn production_edges(&self) -> Vec<Vec<usize>> {
        self.fns
            .iter()
            .enumerate()
            .map(|(i, f)| {
                if !f.is_production() {
                    return Vec::new();
                }
                let mut out: Vec<usize> = f
                    .calls
                    .iter()
                    .flat_map(|c| self.resolve(i, &c.name))
                    .filter(|&j| self.fns[j].is_production())
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect()
    }

    /// Files containing functions that (transitively) call a function
    /// defined in `files` — the reverse-dependency closure `--changed` needs
    /// for sound incremental S1/S2 scans. The input files are included.
    pub fn dependent_files(&self, files: &BTreeSet<String>) -> BTreeSet<String> {
        let edges = self.production_edges();
        let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (i, outs) in edges.iter().enumerate() {
            for &j in outs {
                reverse[j].push(i);
            }
        }
        let mut seen: BTreeSet<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| files.contains(&f.path))
            .map(|(i, _)| i)
            .collect();
        let mut stack: Vec<usize> = seen.iter().copied().collect();
        while let Some(j) = stack.pop() {
            for &i in &reverse[j] {
                if seen.insert(i) {
                    stack.push(i);
                }
            }
        }
        let mut out: BTreeSet<String> = files.clone();
        out.extend(seen.iter().map(|&i| self.fns[i].path.clone()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::mark_test_regions;

    fn model_with(src: &str, pkg: &str, acquirers: &BTreeMap<String, Acquirer>) -> Vec<FnNode> {
        let tokens: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, Tok::LineComment(_)))
            .collect();
        let in_test = mark_test_regions(&tokens);
        file_fns(
            &tokens,
            &in_test,
            &BTreeSet::new(),
            pkg,
            "test.rs",
            FileClass::Lib,
            acquirers,
        )
    }

    fn model(src: &str, pkg: &str) -> Vec<FnNode> {
        model_with(src, pkg, &BTreeMap::new())
    }

    #[test]
    fn lock_guard_scoping_tracks_let_drop_and_blocks() {
        let src = r#"
impl E {
    fn f(&self) {
        let g = self.state.lock();
        self.before();
        drop(g);
        self.after();
        { let h = self.workers.lock(); self.inner(); }
        self.outside();
    }
}
"#;
        let fns = model(src, "t");
        let f = &fns[0];
        let call = |n: &str| f.calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(call("before").held, ["state"]);
        assert!(call("after").held.is_empty());
        assert_eq!(call("inner").held, ["workers"]);
        assert!(call("outside").held.is_empty());
    }

    #[test]
    fn nested_acquisition_records_held_set() {
        let src = "impl E { fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); } }";
        let fns = model(src, "t");
        let acq: Vec<(&str, &[String])> = fns[0]
            .acquires
            .iter()
            .map(|a| (a.lock.as_str(), a.held.as_slice()))
            .collect();
        assert_eq!(acq.len(), 2);
        assert_eq!(acq[0].0, "alpha");
        assert!(acq[0].1.is_empty());
        assert_eq!(acq[1].0, "beta");
        assert_eq!(acq[1].1, ["alpha".to_string()]);
    }

    #[test]
    fn reassignment_keeps_a_guard_held() {
        let src = "impl E { fn f(&self) { let mut g = self.state.lock(); g = self.cv.wait(g); self.still(); } }";
        let fns = model(src, "t");
        let call = fns[0].calls.iter().find(|c| c.name == "still").unwrap();
        assert_eq!(call.held, ["state"]);
    }

    #[test]
    fn acquirer_helpers_are_found_and_classified() {
        let src = r#"
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
fn not_an_acquirer(v: &V) -> Vec<f64> { v.inner.lock().take() }
"#;
        let tokens: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, Tok::LineComment(_)))
            .collect();
        let acq = find_acquirers(&tokens);
        assert_eq!(acq.len(), 2);
        assert_eq!(
            acq[0],
            ("lock_state".to_string(), Acquirer::Concrete("state".into()))
        );
        assert_eq!(
            acq[1],
            ("lock_unpoisoned".to_string(), Acquirer::Parametric)
        );
    }

    #[test]
    fn acquirer_calls_count_as_acquisitions() {
        let mut acquirers = BTreeMap::new();
        acquirers.insert("lock_state".to_string(), Acquirer::Concrete("state".into()));
        acquirers.insert("lock_unpoisoned".to_string(), Acquirer::Parametric);
        let src = r#"
impl E {
    fn f(&self) {
        let mut state = lock_state(&self.shared);
        let out = lock_unpoisoned(&self.out);
        self.inner();
    }
}
"#;
        let fns = model_with(src, "t", &acquirers);
        let locks: Vec<&str> = fns[0].acquires.iter().map(|a| a.lock.as_str()).collect();
        assert_eq!(locks, ["state", "out"]);
        let call = fns[0].calls.iter().find(|c| c.name == "inner").unwrap();
        assert_eq!(call.held, ["out", "state"]);
    }

    #[test]
    fn io_and_panic_sites_record_held_locks() {
        let src = r#"
impl E {
    fn f(&self, p: &Path) {
        let g = self.state.lock();
        let t = fs::read_to_string(p);
        drop(g);
        let u = fs::read_to_string(p);
        t.unwrap();
    }
}
"#;
        let fns = model(src, "t");
        assert_eq!(fns[0].io.len(), 2);
        assert_eq!(fns[0].io[0].held, ["state"]);
        assert!(fns[0].io[1].held.is_empty());
        assert_eq!(fns[0].panics.len(), 1);
        assert_eq!(fns[0].panics[0].what, "unwrap");
    }

    #[test]
    fn resolution_respects_the_dependency_scope() {
        let a = model("pub fn shared_name() {}", "pkg-a");
        let b = model("pub fn shared_name() {}", "pkg-b");
        let c = model("pub fn caller() { shared_name(); }", "pkg-c");
        let mut fns = Vec::new();
        fns.extend(a);
        fns.extend(b);
        fns.extend(c);
        let mut deps = BTreeMap::new();
        deps.insert("pkg-c".to_string(), vec!["pkg-a".to_string()]);
        let g = CallGraph::build(fns, &deps);
        let caller = g.fns.iter().position(|f| f.name == "caller").unwrap();
        let targets = g.resolve(caller, "shared_name");
        assert_eq!(targets.len(), 1, "pkg-b is out of scope");
        assert_eq!(g.fns[targets[0]].pkg, "pkg-a");
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let src = "fn f() { helper::<u32>(1); }";
        let fns = model(src, "t");
        assert!(fns[0].calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn macro_bangs_are_not_calls() {
        let src = "fn f() { println!(\"x\"); g(); }";
        let fns = model(src, "t");
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["g"]);
    }
}
