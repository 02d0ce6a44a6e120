//! The workspace invariant lints, each individually testable.
//!
//! Every lint works on the masked view produced by [`crate::lexer`], so
//! nothing fires inside strings or comments. Violations carry
//! `file:line:lint-id` plus the offending source line.

use crate::lexer::{contains_word, mask_source, MaskedLine};
use std::fmt;

/// Lint identifiers, stable across releases (fixtures and CI grep them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// `unsafe` without an immediately-preceding `// SAFETY:` comment.
    A01,
    /// `unsafe` outside the kernel allowlist, or a crate root missing
    /// `#![forbid(unsafe_code)]`.
    A02,
    /// `partial_cmp` (NaN-panicking float comparisons; use `total_cmp`).
    A03,
    /// Wall-clock / scheduler identity in a deterministic crate.
    A04,
    /// `#[allow(…)]` without a justification comment.
    A05,
    /// `fast-math` feature cfg outside the kernel dispatch surface.
    A06,
    /// Order-observable iteration of a hash container in a deterministic
    /// crate without a sort, an order-insensitive sink, or a
    /// `// DETERMINISM:` justification.
    A07,
    /// Panic surface (`unwrap`/`expect`/`panic!`/`unreachable!`/direct
    /// indexing) in request-path crate sources without a `// PANIC:`
    /// justification.
    A08,
    /// Cross-function lock-acquisition ordering cycle (potential
    /// deadlock) without a `// LOCK-ORDER:` justification.
    A09,
}

impl Lint {
    /// Stable string id, e.g. `"A01"`.
    pub fn id(self) -> &'static str {
        match self {
            Lint::A01 => "A01",
            Lint::A02 => "A02",
            Lint::A03 => "A03",
            Lint::A04 => "A04",
            Lint::A05 => "A05",
            Lint::A06 => "A06",
            Lint::A07 => "A07",
            Lint::A08 => "A08",
            Lint::A09 => "A09",
        }
    }
}

/// One lint hit: `file:line:lint-id` plus the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human explanation of this specific hit.
    pub message: String,
    /// The offending source line, verbatim.
    pub source: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.lint.id(),
            self.message
        )?;
        write!(f, "    | {}", self.source.trim_end())
    }
}

/// Static policy: which files may contain `unsafe`, which crates must be
/// free of wall-clock reads, and where crate roots live.
pub struct Policy {
    /// Files allowed to contain `unsafe` (the audited kernel surface).
    pub unsafe_allowlist: &'static [&'static str],
    /// Crates (dir names under `crates/`) whose *library sources* must be
    /// deterministic: no `SystemTime`, `Instant`, or thread-identity
    /// reads. Bench and the serving metrics modules are intentionally
    /// absent — measuring wall clock is their job.
    pub deterministic_crates: &'static [&'static str],
    /// Library files allowed to branch on the `fast-math` feature: the
    /// kernel dispatch surface and the benchmark that measures both
    /// tiers. Everything above the kernels must be config-independent so
    /// the feature can only ever change matmul bytes, never shapes,
    /// orderings, or control flow.
    pub fast_math_allowlist: &'static [&'static str],
    /// Request-path crates whose `src/` must be panic-free: an `unwrap`
    /// tears down the connection worker that hit it, so every reachable
    /// panic needs a `// PANIC:` contract or a typed-error conversion.
    pub panic_crates: &'static [&'static str],
    /// The subset of [`Self::panic_crates`] where *direct slice indexing*
    /// is also part of the panic surface. `kg` is deliberately absent:
    /// its CSR traversal kernels index by construction-checked offsets in
    /// hot loops, and bounds discipline there is owned by the snapshot
    /// validator, not per-site comments.
    pub index_crates: &'static [&'static str],
    /// Path prefixes whose lock acquisitions participate in the A09
    /// cross-function lock-order analysis (the live serving surface,
    /// where RwLock/Mutex nesting can deadlock under traffic).
    pub lock_order_roots: &'static [&'static str],
}

impl Policy {
    /// The COSMO-rs workspace policy.
    pub fn cosmo() -> Self {
        Policy {
            unsafe_allowlist: &[
                "crates/nn/src/tensor.rs",
                "crates/exec/src/lib.rs",
                "crates/kg/src/zerocopy.rs",
                "crates/mapped/src/lib.rs",
            ],
            deterministic_crates: &[
                "synth",
                "teacher",
                "core",
                "kg",
                "nn",
                "text",
                "lm",
                "relevance",
                "sessrec",
                "nav",
            ],
            fast_math_allowlist: &["crates/nn/src/tensor.rs", "crates/bench/src/extensions.rs"],
            panic_crates: &["serving", "http", "mapped", "kg"],
            index_crates: &["serving", "http", "mapped"],
            lock_order_roots: &["crates/serving/src/", "crates/http/src/"],
        }
    }

    /// True for `src/lib.rs` and `crates/<name>/src/lib.rs` — the files
    /// where `#![forbid(unsafe_code)]` is enforced.
    fn is_crate_root(rel: &str) -> bool {
        if rel == "src/lib.rs" {
            return true;
        }
        let parts: Vec<&str> = rel.split('/').collect();
        parts.len() == 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "lib.rs"
    }

    fn allows_unsafe(&self, rel: &str) -> bool {
        self.unsafe_allowlist.contains(&rel)
    }

    /// A crate root belonging to one of the unsafe-allowlisted crates
    /// cannot `forbid(unsafe_code)` (the attribute is crate-wide).
    fn crate_may_skip_forbid(&self, rel: &str) -> bool {
        self.unsafe_allowlist
            .iter()
            .any(|allowed| crate_dir(allowed) == crate_dir(rel))
    }

    /// True when `rel` may branch on the `fast-math` feature: the
    /// allowlisted kernel/bench files, plus test sources (which pin
    /// per-configuration goldens and oracles).
    fn allows_fast_math_cfg(&self, rel: &str) -> bool {
        self.fast_math_allowlist.contains(&rel) || rel.split('/').any(|part| part == "tests")
    }

    /// True when `rel` is a library source of a deterministic crate
    /// (`crates/<det>/src/…`). Tests and benches may measure wall clock;
    /// the shipping library must not.
    pub fn in_deterministic_src(&self, rel: &str) -> bool {
        Self::in_crate_src(rel, self.deterministic_crates)
    }

    /// True when `rel` is a library source of a panic-free request-path
    /// crate (A08 scope).
    pub fn in_panic_src(&self, rel: &str) -> bool {
        Self::in_crate_src(rel, self.panic_crates)
    }

    /// True when `rel` additionally treats direct indexing as panic
    /// surface (A08 indexing sub-check scope).
    pub fn in_index_src(&self, rel: &str) -> bool {
        Self::in_crate_src(rel, self.index_crates)
    }

    /// True when `rel` participates in the A09 lock-order analysis.
    pub fn in_lock_scope(&self, rel: &str) -> bool {
        self.lock_order_roots.iter().any(|p| rel.starts_with(p))
    }

    fn in_crate_src(rel: &str, crates: &[&str]) -> bool {
        let parts: Vec<&str> = rel.split('/').collect();
        parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" && crates.contains(&parts[1])
    }
}

pub(crate) fn crate_dir(rel: &str) -> &str {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        parts[1]
    } else {
        ""
    }
}

/// The shared justification-comment grammar: a violation on 1-based
/// `line` is justified by `marker` (e.g. `"DETERMINISM:"`) when the
/// marker appears in that line's trailing comment, or above it — the
/// upward walk crosses comment-only lines (multi-line prose) and
/// attribute lines, and at each code line checks its trailing comment.
/// It stops at the first code line that closes a statement (see
/// [`leaves_statement_open`]); a line that leaves one open is the start of
/// the statement the line below continues, so a marker above the first
/// line of a rustfmt-wrapped statement covers all of its lines.
pub fn comment_justifies(lines: &[MaskedLine], line: usize, marker: &str) -> bool {
    if line == 0 || line > lines.len() {
        return false;
    }
    let idx = line - 1;
    if lines[idx].comment.contains(marker) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.comment.contains(marker) {
            return true;
        }
        if l.is_comment_only() || l.is_attribute() || leaves_statement_open(&l.code) {
            continue;
        }
        return false;
    }
    false
}

/// True when a code line leaves its statement open, so the next code line
/// continues it: the line is not blank and does not end in `;`, `{`, `}`
/// or `,` (a block opener, a block or item end, or a list/arm separator).
fn leaves_statement_open(code: &str) -> bool {
    let t = code.trim_end();
    !t.is_empty() && !t.ends_with([';', '{', '}', ','])
}

/// Whether the `unsafe` on 0-based line `idx` is covered by a
/// `// SAFETY:` comment, under the shared [`comment_justifies`] grammar:
/// same-line trailing comment, or prose above crossing comment-only and
/// attribute lines.
fn has_safety_comment(lines: &[MaskedLine], idx: usize) -> bool {
    comment_justifies(lines, idx + 1, "SAFETY:")
}

/// Count `unsafe` sites whose `// SAFETY:` contract is present — the
/// justified-suppression total the baseline ratchet tracks for A01.
pub fn count_safety_justified(lines: &[MaskedLine]) -> usize {
    lines
        .iter()
        .enumerate()
        .filter(|(i, l)| contains_word(&l.code, "unsafe") && has_safety_comment(lines, *i))
        .count()
}

/// True when the `#[allow(…)]` on `idx` carries a justification: a
/// non-empty trailing comment on the same line, or a comment line (or
/// trailing comment) immediately above it.
fn allow_is_justified(lines: &[MaskedLine], idx: usize) -> bool {
    if !lines[idx].comment.trim().is_empty() {
        return true;
    }
    idx > 0 && !lines[idx - 1].comment.trim().is_empty()
}

/// Run every lint over one file. `rel` is the path relative to the
/// workspace root (forward slashes); `src` is the file's contents.
pub fn audit_source(policy: &Policy, rel: &str, src: &str) -> Vec<Violation> {
    let lines = mask_source(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let mut push = |line: usize, lint: Lint, message: String| {
        out.push(Violation {
            file: rel.to_string(),
            line,
            lint,
            message,
            source: raw_lines.get(line - 1).unwrap_or(&"").to_string(),
        });
    };

    let mut saw_forbid = false;
    for (i, l) in lines.iter().enumerate() {
        let lineno = i + 1;
        let code = l.code.as_str();

        if code.contains("forbid(unsafe_code)") {
            saw_forbid = true;
        }

        // A01 / A02 — unsafe hygiene.
        if contains_word(code, "unsafe") {
            if !policy.allows_unsafe(rel) {
                push(
                    lineno,
                    Lint::A02,
                    format!(
                        "`unsafe` outside the kernel allowlist ({}); move the code \
                         into an allowlisted kernel file or make it safe",
                        policy.unsafe_allowlist.join(", ")
                    ),
                );
            }
            if !has_safety_comment(&lines, i) {
                push(
                    lineno,
                    Lint::A01,
                    "`unsafe` without an immediately-preceding `// SAFETY:` comment \
                     stating the invariant that makes it sound"
                        .to_string(),
                );
            }
        }

        // A03 — NaN-panicking float comparison.
        if contains_word(code, "partial_cmp") {
            push(
                lineno,
                Lint::A03,
                "`partial_cmp` reintroduces NaN panics/incomparability in sorts; \
                 use `f32::total_cmp`/`f64::total_cmp` with a stable tiebreak"
                    .to_string(),
            );
        }

        // A04 — nondeterminism sources in deterministic crates.
        if policy.in_deterministic_src(rel) {
            for banned in ["SystemTime", "Instant"] {
                if contains_word(code, banned) {
                    push(
                        lineno,
                        Lint::A04,
                        format!(
                            "`{banned}` in deterministic crate `{}`; wall-clock reads \
                             belong in cosmo-bench or the serving metrics modules",
                            crate_dir(rel)
                        ),
                    );
                }
            }
            if code.contains("thread::current().id()") {
                push(
                    lineno,
                    Lint::A04,
                    format!(
                        "thread-identity read in deterministic crate `{}`; output \
                         must not depend on which worker ran the task",
                        crate_dir(rel)
                    ),
                );
            }
        }

        // A06 — the fast-math feature stays a kernel-dispatch concern.
        // The cfg marker is read from the masked code (so strings and
        // comments never trip it) while the feature name is read from the
        // raw line, because masking blanks string contents.
        if (code.contains("cfg(") || code.contains("cfg!"))
            && raw_lines
                .get(i)
                .is_some_and(|raw| raw.contains("\"fast-math\""))
            && !policy.allows_fast_math_cfg(rel)
        {
            push(
                lineno,
                Lint::A06,
                format!(
                    "`fast-math` cfg outside the kernel dispatch surface ({}); \
                     the feature may only change matmul kernel bytes — higher \
                     layers must behave identically in both configurations",
                    policy.fast_math_allowlist.join(", ")
                ),
            );
        }

        // A05 — allow attributes need a reason.
        if (code.contains("#[allow(") || code.contains("#![allow("))
            && !allow_is_justified(&lines, i)
        {
            push(
                lineno,
                Lint::A05,
                "`#[allow(…)]` without a justification comment (same line or the \
                 line above); say why the lint is wrong here"
                    .to_string(),
            );
        }
    }

    // A02, crate-root half: every crate root outside the unsafe kernels
    // must opt the whole crate out of `unsafe`.
    if Policy::is_crate_root(rel) && !policy.crate_may_skip_forbid(rel) && !saw_forbid {
        out.push(Violation {
            file: rel.to_string(),
            line: 1,
            lint: Lint::A02,
            message: "crate root must carry `#![forbid(unsafe_code)]` (only the \
                      allowlisted kernel crates may contain unsafe)"
                .to_string(),
            source: raw_lines.first().unwrap_or(&"").to_string(),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Policy {
        Policy::cosmo()
    }

    fn ids(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.lint.id()).collect()
    }

    const KERNEL: &str = "crates/nn/src/tensor.rs"; // unsafe-allowlisted path

    #[test]
    fn a01_fires_without_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let vs = audit_source(&p(), KERNEL, src);
        assert_eq!(ids(&vs), vec!["A01"]);
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].source.contains("unsafe"));
    }

    #[test]
    fn a01_accepts_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        assert!(audit_source(&p(), KERNEL, src).is_empty());
    }

    #[test]
    fn a01_safety_comment_crosses_attributes_and_multiline_prose() {
        let src = "// SAFETY: requires avx2, verified by the caller via\n\
                   // is_x86_feature_detected — body is plain slice math.\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   unsafe fn g() {}\n";
        assert!(audit_source(&p(), KERNEL, src).is_empty());
    }

    #[test]
    fn a01_blank_line_breaks_adjacency() {
        let src =
            "// SAFETY: stale contract far above\n\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let vs = audit_source(&p(), KERNEL, src);
        assert_eq!(ids(&vs), vec!["A01"]);
    }

    #[test]
    fn a01_ignores_unsafe_in_strings_and_comments() {
        let src = "// this fn is not unsafe\nfn f() { let s = \"unsafe\"; g(s); }\n";
        assert!(audit_source(&p(), KERNEL, src).is_empty());
    }

    #[test]
    fn a02_fires_outside_allowlist_even_with_safety() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid\n    unsafe { *p }\n}\n";
        let vs = audit_source(&p(), "crates/kg/src/store.rs", src);
        assert_eq!(ids(&vs), vec!["A02"]);
    }

    #[test]
    fn a02_crate_root_needs_forbid() {
        let vs = audit_source(&p(), "crates/lm/src/lib.rs", "//! docs\npub mod model;\n");
        assert_eq!(ids(&vs), vec!["A02"]);
        let ok = audit_source(
            &p(),
            "crates/lm/src/lib.rs",
            "//! docs\n#![forbid(unsafe_code)]\npub mod model;\n",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn a02_kernel_crate_roots_are_exempt_from_forbid() {
        assert!(audit_source(&p(), "crates/nn/src/lib.rs", "pub mod tensor;\n").is_empty());
        assert!(
            audit_source(&p(), "src/lib.rs", "pub use cosmo_core as core;\n")
                .iter()
                .any(|v| v.lint == Lint::A02)
        );
    }

    #[test]
    fn a03_fires_on_partial_cmp_in_code_only() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        let vs = audit_source(&p(), "crates/serving/src/views.rs", src);
        assert_eq!(ids(&vs), vec!["A03"]);
        let doc = "/// never use partial_cmp here\nv.sort_by(|a, b| a.total_cmp(b));\n";
        assert!(audit_source(&p(), "crates/serving/src/views.rs", doc).is_empty());
    }

    #[test]
    fn a04_fires_only_in_deterministic_crate_src() {
        let src = "use std::time::Instant;\n";
        let vs = audit_source(&p(), "crates/core/src/pipeline.rs", src);
        assert_eq!(ids(&vs), vec!["A04"]);
        // bench, serving, and test files of deterministic crates are free
        assert!(audit_source(&p(), "crates/bench/src/extensions.rs", src).is_empty());
        assert!(audit_source(&p(), "crates/serving/src/system.rs", src).is_empty());
        assert!(audit_source(&p(), "crates/core/tests/wallclock.rs", src).is_empty());
    }

    #[test]
    fn a04_catches_systemtime_and_thread_id() {
        let src = "let t = SystemTime::now();\nlet id = std::thread::current().id();\n";
        let vs = audit_source(&p(), "crates/kg/src/store.rs", src);
        assert_eq!(ids(&vs), vec!["A04", "A04"]);
    }

    #[test]
    fn a05_requires_justification() {
        let bad = "#[allow(dead_code)]\nfn f() {}\n";
        let vs = audit_source(&p(), "crates/kg/src/store.rs", bad);
        assert_eq!(ids(&vs), vec!["A05"]);

        let trailing = "#[allow(dead_code)] // kept for the serde schema\nfn f() {}\n";
        assert!(audit_source(&p(), "crates/kg/src/store.rs", trailing).is_empty());

        let preceding = "// kept for the serde schema\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(audit_source(&p(), "crates/kg/src/store.rs", preceding).is_empty());
    }

    #[test]
    fn a06_fires_on_fast_math_cfg_outside_kernels() {
        let src = "#[cfg(feature = \"fast-math\")]\nfn f() {}\n";
        let vs = audit_source(&p(), "crates/lm/src/student.rs", src);
        assert_eq!(ids(&vs), vec!["A06"]);
        let bang = "let fused = cfg!(feature = \"fast-math\");\n";
        let vs = audit_source(&p(), "crates/core/src/critic.rs", bang);
        assert_eq!(ids(&vs), vec!["A06"]);
    }

    #[test]
    fn a06_allows_kernel_bench_and_test_sources_only() {
        let src = "#[cfg(not(feature = \"fast-math\"))]\nfn f() {}\n";
        assert!(audit_source(&p(), KERNEL, src).is_empty());
        assert!(audit_source(&p(), "crates/bench/src/extensions.rs", src).is_empty());
        assert!(audit_source(&p(), "crates/nn/tests/goldens.rs", src).is_empty());
        // no `benches/` directory is exempt: a bench source there reports
        let vs = audit_source(&p(), "crates/bench/benches/nn_kernels.rs", src);
        assert_eq!(ids(&vs), vec!["A06"]);
    }

    #[test]
    fn a06_ignores_comments_and_cfg_free_mentions() {
        let doc = "/// upstream gates this behind cfg(feature = \"fast-math\")\nfn f() {}\n";
        assert!(audit_source(&p(), "crates/lm/src/student.rs", doc).is_empty());
        // the quoted name without a cfg marker on the line is not a gate
        let plain = "let name = \"fast-math\";\n";
        assert!(audit_source(&p(), "crates/lm/src/student.rs", plain).is_empty());
    }

    #[test]
    fn marker_above_wrapped_statement_covers_its_continuation_lines() {
        let src = "fn f(m: &Map) -> usize {\n\
                       // PANIC: every key is inserted by the constructor\n\
                       let n = m\n\
                           .get(\"k\")\n\
                           .unwrap();\n\
                       let v = m\n\
                           .get(\"j\")\n\
                           .unwrap();\n\
                       n + v\n\
                   }\n";
        let lines = mask_source(src);
        for line in 3..=5 {
            assert!(comment_justifies(&lines, line, "PANIC:"), "line {line}");
        }
        // the next statement starts after a `;` and is not covered
        for line in 6..=8 {
            assert!(!comment_justifies(&lines, line, "PANIC:"), "line {line}");
        }
    }

    #[test]
    fn violation_display_is_file_line_id() {
        let vs = audit_source(&p(), KERNEL, "fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
        let shown = vs[0].to_string();
        assert!(
            shown.starts_with("crates/nn/src/tensor.rs:1: A01:"),
            "{shown}"
        );
        assert!(shown.contains("| fn f"));
    }
}
