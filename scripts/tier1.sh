#!/usr/bin/env bash
# Tier-1 verification: everything that must pass before a change lands.
#
#   ./scripts/tier1.sh
#
# Runs the release build, the whole workspace's test suite (the root
# manifest's `default-members` make plain `cargo test` cover every crate),
# the audit ratchet, clippy with warnings denied, the formatting check,
# the snapshot check, the serve_http and navigation_session examples and
# the kg-scaling smoke.
# HTTP load and hot swaps under load are covered by cosmo-http's
# integration tests. Smoke runs write their BENCH_*.json under the
# gitignored artifacts/, so the gate leaves the working tree clean;
# inside a git work tree it fails if `git status --porcelain` after the
# last check differs from the status recorded right after the builds. Requires network access (or a warm
# cargo cache) for the first build.
#
# Slow opt-in tests (full repro experiments, scaling sweeps) are marked
# `#[ignore]` and stay out of this gate; run them explicitly with
#
#   cargo test -q --release -- --ignored
#
# when touching the pipeline's parallel stages or the bench experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# the benchmark is a package of its own (outside the root workspace) that
# builds against cosmo-serving / cosmo-http's public API; keep it compiling
cargo build --release --manifest-path cosmobench/Cargo.toml
# every later step (tests, lints, smokes) must leave tracked files alone:
# a smoke run writes under the gitignored artifacts/ and never overwrites
# a committed full-run BENCH_*.json. Recorded after the builds, which may
# rewrite lock files.
in_git=false
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    in_git=true
    tree_before="$(git status --porcelain)"
fi
cargo test -q
# workspace invariant linter: SAFETY contracts, unsafe allowlist,
# total_cmp-only float sorts, no wall clock in deterministic crates,
# justified #[allow]s, unordered hash iteration, panic surface,
# lock-order cycles (see crates/audit and DESIGN.md §7). The ratchet
# also fails if justification-comment counts rise above the committed
# audit-baseline.json.
cargo run --release -p cosmo-audit -- --check-baseline
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# snapshot-format compatibility: freeze, stream, open, verify, refuse corruption
cargo run --release --example snapshot_check
# the standalone server through the public API: every route over one
# keep-alive connection, asserting the serve-intents bytes and a
# non-empty navigate answer
cargo run --release --example serve_http
# navigation through the public API: intent hierarchy over a pipeline KG,
# a multi-turn session and a miniature A/B test (asserts a navigable query)
cargo run --release --example navigation_session
# streaming-writer smoke: sharded generation stream-frozen with forced
# spills, asserted byte-identical to the in-memory store freeze (the
# 6.3M-node/29M-edge world is opt-in: `repro -- kg-scaling --paper`)
cargo run --release -p cosmo-bench --bin repro -- kg-scaling --smoke --scale tiny
if $in_git; then
    tree_after="$(git status --porcelain)"
    if [ "$tree_after" != "$tree_before" ]; then
        echo "tier1: the checks changed the working tree:" >&2
        diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
        exit 1
    fi
fi
echo "tier1: all checks passed"
