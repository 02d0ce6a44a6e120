//! kg-scaling through the `repro` binary. Each streamed world freezes in a
//! child `repro` process (its peak RSS is the row's `peak MB`), so these
//! tests run the binary rather than calling the experiment in process.

use cosmo_bench::extensions::FREEZE_CHILD_ARG;
use std::process::Command;

/// Run `repro` with `args`; its stdout, after a successful exit.
fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "repro {args:?} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The streamed-world table row whose first column is `world`.
fn stream_row<'a>(out: &'a str, world: &str) -> &'a str {
    out.lines()
        .find(|line| line.split_whitespace().next() == Some(world))
        .unwrap_or_else(|| panic!("missing the {world} row:\n{out}"))
}

/// The child side of every stream row: `repro --freeze-child` freezes one
/// world to the given path and prints one line of figures, the written
/// file's size sixth and its own peak RSS last.
#[test]
fn freeze_child_writes_the_world_and_reports_its_peak_rss() {
    let path = std::env::temp_dir().join(format!(
        "cosmo_freeze_child_test_{}.kg2",
        std::process::id()
    ));
    let out = repro(&[
        FREEZE_CHILD_ARG,
        "tiny",
        path.to_str().expect("a UTF-8 temp path"),
        "4096",
        "2",
    ]);
    let written = std::fs::metadata(&path).map(|m| m.len());
    let _ = std::fs::remove_file(&path);
    let fields: Vec<&str> = out.split_whitespace().collect();
    assert_eq!(fields.len(), 10, "unexpected child line: {out}");
    assert_eq!(written.ok(), fields[5].parse().ok(), "file size: {out}");
    if cfg!(target_os = "linux") {
        let peak: u64 = fields[9].parse().expect("peak RSS in bytes");
        assert!(peak > 0, "{out}");
    }
}

/// The default tier: the in-memory size sweep with its serving/nav
/// identity over the snapshot, then the tiny and mid streamed worlds.
/// Rewrites the committed `BENCH_kg.json` and is timing-dependent, so
/// opt-in: `cargo test -q --release -- --ignored`.
#[test]
#[ignore = "rewrites BENCH_kg.json; timing-dependent KG read-path measurement"]
fn kg_scaling_default_tier_runs() {
    let out = repro(&["kg-scaling", "--scale", "tiny"]);
    assert!(out.contains("csr"), "missing lookup table:\n{out}");
    assert!(
        out.contains("bitwise-identical"),
        "missing identity check:\n{out}"
    );
    stream_row(&out, "mid");
}

/// The full 6.3M-node / 29M-edge world of the paper: sharded parallel
/// generation, a streaming freeze in a child process whose peak RSS must
/// stay within 2x the file (the experiment fails when it cannot read it),
/// and serving/nav/HTTP identity against the replayed store. Minutes of
/// wall clock, ~2 GB peak RSS and ~3 GB of scratch disk, so opt-in.
#[test]
#[ignore = "paper-scale streamed freeze: minutes of wall clock, ~2 GB peak RSS"]
fn kg_scaling_paper_tier_runs() {
    let out = repro(&["kg-scaling", "--paper", "--scale", "tiny"]);
    assert!(!stream_row(&out, "paper").contains("n/a"));
    assert!(
        out.contains("bitwise-identical to the store"),
        "missing scale identity check:\n{out}"
    );
}
