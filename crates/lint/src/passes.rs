//! The three call-graph-aware passes: `S1` panic-reachability, `S2`
//! lock-order, and `S3` contract-coverage.
//!
//! All three consume the [`CallGraph`] built by the
//! engine and emit ordinary [`Finding`]s, which then flow through the same
//! suppression machinery as the token rules. Determinism matters as much
//! here as in the code being linted: every loop below walks sorted
//! structures, so the report is byte-identical across runs.

use crate::graph::{CallGraph, CallKind};
use crate::lexer::{Tok, Token};
use crate::rules::{panic_free, s2_io_guarded, FileClass, RuleId};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The result-affecting escape hatches whose on/off equivalence must be
/// pinned by at least one test (`S3`). Listed as string literals so the
/// linter's own sources never trip the identifier cross-reference.
pub const ESCAPE_HATCHES: [&str; 2] = ["async_slots", "threads"];

/// `S1`: report every `pub` function in a panic-free-policy crate whose
/// production call graph reaches a panic site.
///
/// A single multi-source reverse BFS from all panic-site functions computes,
/// for every node, the distance to the nearest site and the next hop toward
/// it — one traversal regardless of how many roots report. A root that *is*
/// a panic site itself is skipped (the `P1` token rule already reports the
/// site line), except for hot-path indexing sites, which only this pass
/// knows about.
pub fn panic_reachability(g: &CallGraph) -> Vec<Finding> {
    let n = g.fns.len();
    let edges = g.production_edges();
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, outs) in edges.iter().enumerate() {
        for &j in outs {
            reverse[j].push(i);
        }
    }

    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut succ: Vec<usize> = vec![usize::MAX; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, f) in g.fns.iter().enumerate() {
        if f.is_production() && !f.panics.is_empty() {
            dist[i] = Some(0);
            queue.push_back(i);
        }
    }
    while let Some(v) = queue.pop_front() {
        let Some(d) = dist[v] else { continue };
        for &u in &reverse[v] {
            if dist[u].is_none() {
                dist[u] = Some(d + 1);
                succ[u] = v;
                queue.push_back(u);
            }
        }
    }

    let mut out = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !(f.is_pub && f.is_production() && panic_free(&f.pkg)) {
            continue;
        }
        // A hot-path function with unchecked indexing is its own finding.
        if let Some(site) = f.panics.iter().find(|p| p.what == "index") {
            out.push(Finding {
                rule: RuleId::S1,
                path: f.path.clone(),
                line: f.line,
                excerpt: f.qualified.clone(),
                message: format!(
                    "hot-path fn `{}` indexes without a bounds check at line {}; \
                     use `get` or suppress with a reason",
                    f.qualified, site.line
                ),
            });
            continue;
        }
        let Some(d) = dist[i] else { continue };
        if d == 0 {
            // The function's own panic site; P1 reports that line directly.
            continue;
        }
        let mut chain = vec![f.qualified.clone()];
        let mut cur = i;
        while succ[cur] != usize::MAX {
            cur = succ[cur];
            chain.push(g.fns[cur].qualified.clone());
        }
        let site_fn = &g.fns[cur];
        let site = site_fn
            .panics
            .first()
            .map(|p| format!("`{}` at {}:{}", p.what, site_fn.path, p.line))
            .unwrap_or_else(|| site_fn.qualified.clone());
        out.push(Finding {
            rule: RuleId::S1,
            path: f.path.clone(),
            line: f.line,
            excerpt: f.qualified.clone(),
            message: format!(
                "pub fn `{}` can reach a panic site ({}) via {}",
                f.qualified,
                site,
                chain.join(" -> ")
            ),
        });
    }
    out
}

/// `S2`: build the workspace lock-order graph and report (a) acquisition
/// edges that participate in a cycle (potential deadlock) and (b) blocking
/// I/O performed while holding a lock, in the crates where that is policy
/// ([`s2_io_guarded`]).
///
/// Lock sets propagate through free/path calls only — method calls share
/// too many names with std to resolve soundly, and the guard-returning
/// helpers they would matter for are modeled directly as acquirers.
pub fn lock_order(g: &CallGraph) -> Vec<Finding> {
    let n = g.fns.len();

    // Free-call production adjacency (the propagation graph).
    let mut free_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, f) in g.fns.iter().enumerate() {
        if !f.is_production() {
            continue;
        }
        for c in &f.calls {
            if c.kind != CallKind::Free {
                continue;
            }
            for j in g.resolve(i, &c.name) {
                if g.fns[j].is_production() {
                    free_edges[i].push(j);
                }
            }
        }
        free_edges[i].sort_unstable();
        free_edges[i].dedup();
    }

    // Fixpoint: the set of locks each fn may acquire, transitively.
    let mut trans_locks: Vec<BTreeSet<String>> = g
        .fns
        .iter()
        .map(|f| f.own_locks.iter().cloned().collect())
        .collect();
    // Fixpoint: whether each fn may perform blocking I/O, transitively.
    let mut trans_io: Vec<bool> = g.fns.iter().map(|f| !f.io.is_empty()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            for &j in &free_edges[i] {
                if !trans_locks[j].is_empty() {
                    let add: Vec<String> = trans_locks[j]
                        .iter()
                        .filter(|l| !trans_locks[i].contains(*l))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        trans_locks[i].extend(add);
                        changed = true;
                    }
                }
                if trans_io[j] && !trans_io[i] {
                    trans_io[i] = true;
                    changed = true;
                }
            }
        }
    }

    // Lock-order edges: held-lock -> acquired-lock, attributed to the first
    // site (in (path, line) order) that creates each edge.
    let mut order: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    let mut record = |h: &str, l: &str, path: &str, line: u32, qual: &str| {
        if h == l {
            return;
        }
        order
            .entry((h.to_string(), l.to_string()))
            .or_insert_with(|| (path.to_string(), line, qual.to_string()));
    };
    for (i, f) in g.fns.iter().enumerate() {
        if !f.is_production() {
            continue;
        }
        for a in &f.acquires {
            for h in &a.held {
                record(h, &a.lock, &f.path, a.line, &f.qualified);
            }
        }
        for c in &f.calls {
            if c.kind != CallKind::Free || c.held.is_empty() {
                continue;
            }
            for &j in &free_edges[i] {
                if !g.fns[j].name.eq(&c.name) {
                    continue;
                }
                for l in &trans_locks[j] {
                    for h in &c.held {
                        record(h, l, &f.path, c.line, &f.qualified);
                    }
                }
            }
        }
    }

    // An edge (a, b) is a deadlock risk iff b can reach a through the order
    // graph — i.e. the edge lies on a cycle.
    let adj: BTreeMap<&String, Vec<&String>> = {
        let mut m: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (a, b) in order.keys() {
            m.entry(a).or_default().push(b);
        }
        m
    };
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if seen.insert(x) {
                if let Some(nexts) = adj.get(x) {
                    stack.extend(nexts.iter().copied());
                }
            }
        }
        false
    };

    let mut out = Vec::new();
    for ((a, b), (path, line, qual)) in &order {
        if reaches(b, a) {
            out.push(Finding {
                rule: RuleId::S2,
                path: path.clone(),
                line: *line,
                excerpt: format!("{a} -> {b}"),
                message: format!(
                    "`{qual}` acquires `{b}` while holding `{a}`, and another \
                     path orders them the other way — lock-order cycle \
                     (potential deadlock); pick one order or narrow the guard"
                ),
            });
        }
    }

    // I/O under a lock, where that is policy.
    for (i, f) in g.fns.iter().enumerate() {
        if !f.is_production() || !s2_io_guarded(&f.pkg) {
            continue;
        }
        for io in &f.io {
            if !io.held.is_empty() {
                out.push(Finding {
                    rule: RuleId::S2,
                    path: f.path.clone(),
                    line: io.line,
                    excerpt: io.name.clone(),
                    message: format!(
                        "`{}` performs blocking I/O (`{}`) while holding `{}`; \
                         release the guard first",
                        f.qualified,
                        io.name,
                        io.held.join("`, `")
                    ),
                });
            }
        }
        for c in &f.calls {
            if c.kind != CallKind::Free || c.held.is_empty() {
                continue;
            }
            let does_io = free_edges[i]
                .iter()
                .any(|&j| g.fns[j].name == c.name && trans_io[j]);
            if does_io {
                out.push(Finding {
                    rule: RuleId::S2,
                    path: f.path.clone(),
                    line: c.line,
                    excerpt: c.name.clone(),
                    message: format!(
                        "`{}` calls `{}` (which performs blocking I/O) while \
                         holding `{}`; release the guard first",
                        f.qualified,
                        c.name,
                        c.held.join("`, `")
                    ),
                });
            }
        }
    }
    out
}

/// How one escape hatch is referenced across the scanned set.
#[derive(Debug, Default, Clone)]
pub struct HatchUse {
    /// References from production library code.
    pub lib: usize,
    /// References from test code (test regions or `tests/` files).
    pub tests: usize,
    /// First library reference, for finding attribution.
    pub first: Option<(String, u32)>,
}

/// Per-hatch reference tallies, keyed by hatch name.
pub type HatchTally = BTreeMap<&'static str, HatchUse>;

/// Accumulates escape-hatch identifier references from one file's
/// significant token stream into `tally`.
pub fn tally_hatches(
    tokens: &[Token],
    in_test: &[bool],
    class: FileClass,
    path: &str,
    tally: &mut HatchTally,
) {
    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(name) = &t.kind else {
            continue;
        };
        let Some(&hatch) = ESCAPE_HATCHES.iter().find(|h| *h == name) else {
            continue;
        };
        let tested = in_test.get(i).copied().unwrap_or(false);
        let entry = tally.entry(hatch).or_default();
        if tested || class == FileClass::Tests {
            entry.tests += 1;
        } else if class == FileClass::Lib {
            entry.lib += 1;
            if entry.first.is_none() {
                entry.first = Some((path.to_string(), t.line));
            }
        }
    }
}

/// `S3`: every escape hatch referenced from library code must also be
/// referenced from at least one test — the on/off equivalence contract
/// cannot exist without a test that mentions the switch.
pub fn contract_coverage(tally: &HatchTally) -> Vec<Finding> {
    let mut out = Vec::new();
    for hatch in ESCAPE_HATCHES {
        let Some(usage) = tally.get(hatch) else {
            continue;
        };
        if usage.lib == 0 || usage.tests > 0 {
            continue;
        }
        let (path, line) = match &usage.first {
            Some((p, l)) => (p.clone(), *l),
            None => continue,
        };
        out.push(Finding {
            rule: RuleId::S3,
            path,
            line,
            excerpt: hatch.to_string(),
            message: format!(
                "escape hatch `{hatch}` is used by library code but referenced \
                 by no test; add an on/off equivalence test that names it"
            ),
        });
    }
    out
}
