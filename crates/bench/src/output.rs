//! Benchmark artifact paths: every `BENCH_*.json` lands at the repo root
//! no matter what directory the harness was launched from, and smoke runs
//! never overwrite a committed full-run row.
//!
//! `cargo run -p cosmo-bench` from a crate subdirectory used to scatter
//! artifacts wherever the cwd happened to be (a stray ledger was once
//! committed under `crates/bench/` that way). The repo root is known at
//! compile time — this crate's manifest dir is `crates/bench` — so resolve
//! against that instead of the cwd.
//!
//! Full runs write the committed ledger files at the root. Smoke runs
//! (the tier-1 gate, `--smoke`) write the same file name under the
//! gitignored `artifacts/` directory, so running the gate leaves the
//! working tree clean.

use std::path::{Path, PathBuf};

/// Absolute path for a benchmark artifact named `name` (e.g.
/// `BENCH_kg.json`): anchored at the repository root for a full run, and
/// at `<root>/artifacts/` for a smoke run.
///
/// `COSMO_BENCH_DIR` overrides the destination directory for both (useful
/// for CI runs that collect artifacts elsewhere). If the compile-time repo
/// root no longer exists (the binary moved to another machine), falls back
/// to the cwd rather than failing.
pub fn bench_output_path(name: &str, smoke: bool) -> PathBuf {
    if let Some(dir) = std::env::var_os("COSMO_BENCH_DIR") {
        return PathBuf::from(dir).join(name);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_default();
    if smoke {
        root.join("artifacts").join(name)
    } else {
        root.join(name)
    }
}

/// Write a benchmark artifact via [`bench_output_path`] (creating
/// `artifacts/` for a smoke run); returns the one-line status message the
/// experiment appends to its summary.
pub fn write_bench_json(name: &str, contents: &str, smoke: bool) -> String {
    let path = bench_output_path(name, smoke);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, contents));
    match written {
        Ok(()) => format!("wrote {}", path.display()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_to_repo_root_not_cwd() {
        let p = bench_output_path("BENCH_test.json", false);
        // the repo root is the directory holding the workspace manifest
        assert!(
            p.parent().unwrap().join("Cargo.toml").is_file(),
            "expected a workspace root, got {}",
            p.display()
        );
        assert!(p.ends_with("BENCH_test.json"));
    }

    #[test]
    fn smoke_runs_write_under_gitignored_artifacts() {
        let full = bench_output_path("BENCH_test.json", false);
        let smoke = bench_output_path("BENCH_test.json", true);
        assert_ne!(smoke, full, "a smoke run must not target the ledger file");
        assert!(smoke.ends_with("artifacts/BENCH_test.json"));
        assert_eq!(
            smoke.parent().unwrap().parent(),
            full.parent(),
            "artifacts/ sits directly under the repo root"
        );
        let root = full.parent().unwrap();
        let gitignore = std::fs::read_to_string(root.join(".gitignore")).unwrap();
        assert!(
            gitignore.lines().any(|l| l.trim() == "artifacts/"),
            "artifacts/ must stay gitignored"
        );
    }
}
