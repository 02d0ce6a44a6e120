//! A09 — lock-order analysis over the serving/http lock surface.
//!
//! Extracts per-function lock-acquisition sequences from guard scopes,
//! propagates them across the intra-workspace call graph, and reports
//! any ordering cycle in the resulting lock graph as a potential
//! deadlock.
//!
//! ## Model
//!
//! * An *acquisition* is a no-argument `.lock()`, `.read()`, or
//!   `.write()` call on a std lock (IO `read`/`write` always take
//!   arguments, so they never match). Its poison adapter
//!   (`.unwrap_or_else(PoisonError::into_inner)`, `.expect(…)`, …)
//!   yields the guard, so it is looked through.
//! * A lock's identity is its access-path class: the last named field or
//!   producer function in the receiver chain (`self.shards[i].l2.write()`
//!   → `l2`, `shared.queue.lock()` → `queue`,
//!   `self.shard_of(q).read()` → `shard_of`). Two paths naming the same
//!   underlying lock under different fields under-approximate (a missed
//!   cycle), never over-approximate — see DESIGN.md §7.
//! * A guard bound by `let g = …` is held until its block closes or
//!   `drop(g)`; an unbound (temporary) guard, or one a chain borrows
//!   from (`let n = m.lock().len()`), is held to the end of its
//!   statement. `let _ = …` drops immediately and is treated as
//!   statement-scoped.
//! * Holding `a` while acquiring `b` (directly, or anywhere inside a
//!   resolved callee) orders `a → b`. A cycle in the resulting directed
//!   graph is a potential deadlock.
//!
//! `// LOCK-ORDER:` on the acquisition line (or the comment block above
//! it) vouches for a deliberate ordering discipline the analysis cannot
//! see (e.g. same-class locks always taken in ascending shard index) and
//! removes that acquisition from the analysis; the suppression is
//! counted in the debt ratchet.

use crate::callgraph::CallGraph;
use crate::lexer::MaskedLine;
use crate::lints::{comment_justifies, Lint, Violation};
use crate::tree::FileTree;
use std::collections::{BTreeMap, BTreeSet};

/// Lock-acquiring methods: no-argument calls only.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// One analyzed file: path, masked lines, parsed tree.
pub struct LockFile {
    /// Path relative to the workspace root.
    pub rel: String,
    /// The masked source (for justification comments + raw lines).
    pub lines: Vec<MaskedLine>,
    /// Raw source lines (violation excerpts).
    pub raw: Vec<String>,
    /// Parsed token tree.
    pub tree: FileTree,
}

/// A lock-order edge: `from` held while `to` is acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
    /// File index, line, and human detail of the site that creates it.
    file: usize,
    line: usize,
    detail: String,
}

/// Per-function walk results.
#[derive(Debug, Default)]
struct FnSummary {
    /// Lock ids this function acquires directly (unjustified ones only).
    direct: BTreeSet<String>,
    /// Resolved calls with the held-lock snapshot at the call site.
    calls: Vec<(usize, Vec<String>, usize)>, // (callee, held ids, line)
    /// Direct edges: held → acquired inside this one function.
    edges: Vec<Edge>,
}

/// A guard currently held during the walk.
struct Held {
    id: String,
    /// Binding name for `drop(name)` release; `None` for temporaries.
    name: Option<String>,
    /// Block whose close releases the guard; `None` = statement-scoped.
    scope: Option<usize>,
}

/// Run the lock-order analysis over `files` (the serving/http lock
/// surface), returning violations plus the number of `LOCK-ORDER:`
/// justifications consumed.
pub fn audit_lock_order(files: &[LockFile]) -> (Vec<Violation>, usize) {
    let tree_refs: Vec<(String, FileTree)> = files
        .iter()
        .map(|f| (f.rel.clone(), f.tree.clone()))
        .collect();
    let graph = CallGraph::build(&tree_refs);
    let mut justified = 0usize;

    let mut summaries: Vec<FnSummary> = Vec::with_capacity(graph.fns.len());
    for i in 0..graph.fns.len() {
        let id = graph.fns[i];
        let file = &files[id.file];
        summaries.push(walk_fn(file, id.file, id.item, &graph, &mut justified));
    }

    // Fixpoint: the transitive set of lock ids each function may acquire.
    let mut trans: Vec<BTreeSet<String>> = summaries.iter().map(|s| s.direct.clone()).collect();
    loop {
        let mut changed = false;
        for i in 0..summaries.len() {
            let mut add: Vec<String> = Vec::new();
            for (callee, _, _) in &summaries[i].calls {
                for l in &trans[*callee] {
                    if !trans[i].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            for l in add {
                trans[i].insert(l);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Collect edges: direct ones plus held-across-call propagation.
    let mut edges: Vec<Edge> = Vec::new();
    for (i, s) in summaries.iter().enumerate() {
        edges.extend(s.edges.iter().cloned());
        for (callee, held, line) in &s.calls {
            if held.is_empty() {
                continue;
            }
            let callee_name = graph.name(&tree_refs, *callee).to_string();
            let caller_name = graph.name(&tree_refs, i).to_string();
            for h in held {
                for l in &trans[*callee] {
                    edges.push(Edge {
                        from: h.clone(),
                        to: l.clone(),
                        file: graph.fns[i].file,
                        line: *line,
                        detail: format!(
                            "`{h}` held in `{caller_name}` across call to `{callee_name}`, \
                             which may acquire `{l}`"
                        ),
                    });
                }
            }
        }
    }

    // Deduplicate to one representative edge per (from, to), keeping the
    // first site in deterministic (file, line) order.
    edges.sort();
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut first_edge: BTreeMap<(&str, &str), &Edge> = BTreeMap::new();
    for e in &edges {
        let key = (e.from.as_str(), e.to.as_str());
        if let std::collections::btree_map::Entry::Vacant(slot) = first_edge.entry(key) {
            slot.insert(e);
            adj.entry(e.from.as_str()).or_default().push(e.to.as_str());
        }
    }

    // An edge a→b closes a cycle when b can reach a. Report each
    // distinct cycle (by its sorted lock set) once.
    let mut out = Vec::new();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for (&(a, b), &e) in &first_edge {
        let Some(path) = reach_path(&adj, b, a) else {
            continue;
        };
        // path: b → … → a; the full cycle is a → b → … → a.
        let mut cycle: Vec<&str> = vec![a];
        cycle.extend(path.iter());
        let mut signature: Vec<&str> = cycle.clone();
        signature.sort();
        signature.dedup();
        let sig = signature.join("→");
        if !reported.insert(sig) {
            continue;
        }
        let file = &files[e.file];
        out.push(Violation {
            file: file.rel.clone(),
            line: e.line,
            lint: Lint::A09,
            message: format!(
                "lock-order cycle: {} — {}; acquire these locks in one \
                 global order, or justify the discipline with `// LOCK-ORDER:`",
                cycle.join(" → "),
                e.detail
            ),
            source: file.raw.get(e.line - 1).cloned().unwrap_or_default(),
        });
    }
    (out, justified)
}

/// BFS from `from` to `to` over the dedup adjacency; returns the node
/// path `from … to` (inclusive) if reachable.
fn reach_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut queue = std::collections::VecDeque::new();
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    queue.push_back(from);
    parent.insert(from, from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while parent[cur] != cur {
                cur = parent[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(n).into_iter().flatten() {
            if !parent.contains_key(next) {
                parent.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Walk one function body, producing its summary.
fn walk_fn(
    file: &LockFile,
    file_idx: usize,
    item: usize,
    graph: &CallGraph,
    justified: &mut usize,
) -> FnSummary {
    let tree = &file.tree;
    let mut s = FnSummary::default();
    let Some(body) = tree.fns[item].body else {
        return s;
    };
    if tree.fns[item].test_exempt {
        return s;
    }
    let start = tree.blocks[body].open.map(|o| o + 1).unwrap_or(0);
    let end = tree.block_end(body);
    let fn_name = tree.fns[item].name.clone();

    let mut held: Vec<Held> = Vec::new();
    let mut i = start;
    while i < end.min(tree.toks.len()) {
        let t = &tree.toks[i];
        match t.text.as_str() {
            ";" => held.retain(|h| h.scope.is_some()),
            "}" => {
                let b = t.block;
                held.retain(|h| h.scope != Some(b) && h.scope.is_some());
            }
            "drop" => {
                // `drop(name)` releases that guard.
                if tree.toks.get(i + 1).map(|t| t.text.as_str()) == Some("(") {
                    if let Some(name) = tree.toks.get(i + 2).filter(|t| t.is_word()) {
                        if tree.toks.get(i + 3).map(|t| t.text.as_str()) == Some(")") {
                            held.retain(|h| h.name.as_deref() != Some(name.text.as_str()));
                        }
                    }
                }
            }
            "." => {
                // Possible acquisition: `. lock ( )` etc.
                let is_acq = tree
                    .toks
                    .get(i + 1)
                    .map(|m| ACQUIRE_METHODS.contains(&m.text.as_str()))
                    .unwrap_or(false)
                    && tree.toks.get(i + 2).map(|t| t.text.as_str()) == Some("(")
                    && tree.toks.get(i + 3).map(|t| t.text.as_str()) == Some(")");
                if is_acq {
                    let line = tree.toks[i + 1].line;
                    if comment_justifies(&file.lines, line, "LOCK-ORDER:") {
                        *justified += 1;
                        i += 4;
                        continue;
                    }
                    if let Some(id) = receiver_lock_id(tree, i) {
                        let chained = guard_is_chained(tree, i + 4);
                        // An unchained acquisition inside a closure runs
                        // once per element with earlier guards still live
                        // (`.map(|s| s.l2.write()).collect()`): the same
                        // lock class is acquired repeatedly, which is a
                        // deadlock unless every thread uses one element
                        // order — report as a self-edge.
                        let in_closure = tree.toks[tree.stmt_start(i)..i]
                            .iter()
                            .any(|t| t.text == "|");
                        if in_closure && !chained {
                            s.edges.push(Edge {
                                from: id.clone(),
                                to: id.clone(),
                                file: file_idx,
                                line,
                                detail: format!(
                                    "`{id}` acquired repeatedly inside one statement in \
                                     `{fn_name}` (guards escape the closure)"
                                ),
                            });
                        }
                        for h in &held {
                            s.edges.push(Edge {
                                from: h.id.clone(),
                                to: id.clone(),
                                file: file_idx,
                                line,
                                detail: format!(
                                    "`{}` acquired in `{fn_name}` while `{}` is held",
                                    id, h.id
                                ),
                            });
                        }
                        s.direct.insert(id.clone());
                        let (name, scope) = if chained {
                            (None, None)
                        } else {
                            binding_of(tree, i)
                        };
                        held.push(Held { id, name, scope });
                        i += 4;
                        continue;
                    }
                }
            }
            _ => {
                // Resolved call site with a held-lock snapshot.
                if t.is_word()
                    && tree.toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                    && i > 0
                    && tree.toks[i - 1].text != "fn"
                {
                    let is_method = tree.toks[i - 1].text == ".";
                    if let Some(callee) = graph.resolve(file_idx, t.text.as_str(), is_method) {
                        let snapshot: Vec<String> = held.iter().map(|h| h.id.clone()).collect();
                        s.calls.push((callee, snapshot, t.line));
                    }
                }
            }
        }
        i += 1;
    }
    s
}

/// The lock-id of the receiver chain ending at the `.` token `dot`:
/// the last named field, variable, or producer call before the method.
/// Single-letter closure parameters are traced back to the collection
/// they iterate (`shards.iter().map(|s| s.read())` → `shards`).
fn receiver_lock_id(tree: &FileTree, dot: usize) -> Option<String> {
    let prev = dot.checked_sub(1)?;
    let t = &tree.toks[prev];
    match t.text.as_str() {
        ")" => {
            // `self.shard_of(q).read()` — name the producer function.
            let open = match_back(tree, prev, "(", ")")?;
            let before = open.checked_sub(1)?;
            let w = &tree.toks[before];
            w.is_word().then(|| w.text.clone())
        }
        "]" => {
            // `self.locks[i].lock()` — name the indexed collection.
            let open = match_back(tree, prev, "[", "]")?;
            let before = open.checked_sub(1)?;
            let w = &tree.toks[before];
            w.is_word().then(|| w.text.clone())
        }
        _ if t.is_word() => {
            let word = t.text.clone();
            // A closure parameter (`|s| s.read()`): use the iterated
            // collection's name instead, scanning the statement for
            // `|word|` or `|word,`/`,word|` binders.
            if is_closure_param(tree, prev, &word) {
                if let Some(coll) = iterated_collection(tree, prev) {
                    return Some(coll);
                }
            }
            Some(word)
        }
        _ => None,
    }
}

/// Whether the guard of the acquisition ending just before token
/// `after` is a temporary borrowed by a longer chain (`.lock().len()`),
/// dropped at its statement's end. A std poison adapter
/// (`.lock().unwrap_or_else(PoisonError::into_inner)`, `.expect(…)`)
/// yields the guard itself, so the chain is read past the adapter's
/// closing `)`.
fn guard_is_chained(tree: &FileTree, after: usize) -> bool {
    let text = |j: usize| tree.toks.get(j).map(|t| t.text.as_str());
    let mut j = after;
    if text(j) == Some(".")
        && matches!(
            text(j + 1),
            Some("expect" | "unwrap" | "unwrap_or_else" | "map_err")
        )
        && text(j + 2) == Some("(")
    {
        let Some(close) = match_forward(tree, j + 2, "(", ")") else {
            return false;
        };
        j = close + 1;
    }
    text(j) == Some(".")
}

/// Find the matching closer for the opener at `idx`, walking forward.
fn match_forward(tree: &FileTree, idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tree.toks.iter().enumerate().skip(idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Find the matching opener for the closer at `idx`, walking backward.
fn match_back(tree: &FileTree, idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = idx;
    loop {
        let t = &tree.toks[j].text;
        if t == close {
            depth += 1;
        } else if t == open {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

/// True when `word` at token `at` is bound as a closure parameter
/// earlier in the same statement (`|word|`, `|word,`, `, word|`).
fn is_closure_param(tree: &FileTree, at: usize, word: &str) -> bool {
    let start = tree.stmt_start(at);
    let toks = &tree.toks[start..at];
    toks.windows(3).any(|w| {
        w[1].text == word
            && (w[0].text == "|" || w[0].text == ",")
            && (w[2].text == "|" || w[2].text == ",")
    })
}

/// The collection a closure chain iterates: the word before the first
/// `.iter()` / `.iter_mut()` / `.into_iter()` in the statement.
fn iterated_collection(tree: &FileTree, at: usize) -> Option<String> {
    let start = tree.stmt_start(at);
    for j in start..at {
        if tree.toks[j].text == "."
            && tree
                .toks
                .get(j + 1)
                .map(|t| matches!(t.text.as_str(), "iter" | "iter_mut" | "into_iter"))
                .unwrap_or(false)
        {
            let before = j.checked_sub(1)?;
            let w = &tree.toks[before];
            if w.is_word() {
                return Some(w.text.clone());
            }
        }
    }
    None
}

/// The binding for the acquisition at the `.` token `dot`: `(name,
/// scope_block)` when its statement is `let [mut] name = …` in the same
/// block, else a statement-scoped temporary.
fn binding_of(tree: &FileTree, dot: usize) -> (Option<String>, Option<usize>) {
    let start = tree.stmt_start(dot);
    let toks = &tree.toks;
    if toks.get(start).map(|t| t.text.as_str()) != Some("let") {
        return (None, None);
    }
    // The acquisition must be in the let's own block (a braced closure
    // body inside the initializer is a different scope — temporary).
    if toks[start].block != toks[dot].block {
        return (None, None);
    }
    let mut j = start + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
        j += 1;
    }
    match toks.get(j) {
        Some(t) if t.is_word() && t.text != "_" => (Some(t.text.clone()), Some(toks[start].block)),
        // `let _ = guard` drops immediately; destructuring patterns keep
        // the guard alive for the block but cannot be drop()-released.
        Some(t) if t.text == "_" => (None, None),
        _ => (None, Some(toks[start].block)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask_source;
    use crate::tree::parse;

    fn lockfile(rel: &str, src: &str) -> LockFile {
        LockFile {
            rel: rel.to_string(),
            lines: mask_source(src),
            raw: src.lines().map(str::to_string).collect(),
            tree: parse(&mask_source(src)),
        }
    }

    fn cycles(src: &str) -> Vec<Violation> {
        audit_lock_order(&[lockfile("crates/serving/src/x.rs", src)]).0
    }

    #[test]
    fn nested_guards_in_one_fn_make_an_edge_not_a_cycle() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    use_both(a, b);\n}\n";
        assert!(cycles(src).is_empty(), "one consistent order is fine");
    }

    #[test]
    fn opposite_orders_in_two_fns_cycle() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\nfn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n";
        let vs = cycles(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("alpha"));
        assert!(vs[0].message.contains("beta"));
    }

    #[test]
    fn cross_function_propagation_cycles() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    helper(self);\n}\nfn helper(&self) {\n    let b = self.beta.lock();\n}\nfn g(&self) {\n    let b = self.beta.lock();\n    self.alpha.lock().touch();\n}\n";
        let vs = cycles(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("cycle"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    drop(a);\n    let b = self.beta.lock();\n}\nfn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n";
        assert!(cycles(src).is_empty(), "alpha released before beta");
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let src = "fn f(&self) {\n    {\n        let a = self.alpha.lock();\n        a.touch();\n    }\n    let b = self.beta.lock();\n}\nfn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n";
        assert!(cycles(src).is_empty());
    }

    #[test]
    fn temporary_guard_is_statement_scoped() {
        // the bare form and the std form, whose poison adapter yields the
        // guard that the chain then borrows from
        for temp in [
            "self.alpha.lock().len()",
            "self.alpha.lock().unwrap_or_else(PoisonError::into_inner).len()",
            "self.alpha.lock().expect(\"alpha\").len()",
        ] {
            let src = format!("fn f(&self) {{\n    let n = {temp};\n    let b = self.beta.lock();\n}}\nfn g(&self) {{\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}}\n");
            assert!(cycles(&src).is_empty(), "temporary released at `;`: {temp}");
        }
    }

    #[test]
    fn self_edge_from_same_class_collect_is_reported() {
        for acquire in [
            "s.l2.write()",
            "s.l2.write().unwrap_or_else(PoisonError::into_inner)",
        ] {
            let src = format!("fn f(&self) {{\n    let guards: Vec<_> = self.shards.iter().map(|s| {acquire}).collect();\n    use_all(guards);\n}}\n");
            let vs = cycles(&src);
            assert_eq!(vs.len(), 1, "{acquire}: {vs:?}");
            assert!(vs[0].message.contains("l2"));
        }
    }

    #[test]
    fn lock_order_justification_suppresses_and_counts() {
        let src = "fn f(&self) {\n    // LOCK-ORDER: shards are always taken in ascending index order\n    let guards: Vec<_> = self.shards.iter().map(|s| s.l2.write()).collect();\n    use_all(guards);\n}\n";
        let (vs, justified) = audit_lock_order(&[lockfile("crates/serving/src/x.rs", src)]);
        assert!(vs.is_empty(), "{vs:?}");
        assert_eq!(justified, 1);
    }

    #[test]
    fn closure_param_resolves_to_collection() {
        for len in [
            "s.read().len()",
            "s.read().unwrap_or_else(PoisonError::into_inner).len()",
        ] {
            let src = format!("fn f(&self) {{\n    let a = self.outer.lock();\n    let n: usize = self.shards.iter().map(|s| {len}).sum();\n}}\nfn g(&self) {{\n    let s = self.shards[0].read();\n    let a = self.outer.lock();\n}}\n");
            let vs = cycles(&src);
            assert_eq!(
                vs.len(),
                1,
                "outer→shards in f, shards→outer in g: {len}: {vs:?}"
            );
        }
    }

    #[test]
    fn test_exempt_fns_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n    }\n    fn g(&self) {\n        let b = self.beta.lock();\n        let a = self.alpha.lock();\n    }\n}\n";
        assert!(cycles(src).is_empty());
    }
}
