//! Stamps the compiler version and, when the checkout is a git
//! repository, its commit into the benchmark binary.

use std::path::Path;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=COSMOBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=COSMOBENCH_COMMIT={}",
        commit(Path::new("../.git"))
    );
}

/// The commit `HEAD` names, read from the git directory's files.
fn commit(git: &Path) -> String {
    let head_path = git.join("HEAD");
    println!("cargo:rerun-if-changed={}", head_path.display());
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let ref_path = git.join(reference);
    println!("cargo:rerun-if-changed={}", ref_path.display());
    if let Ok(id) = std::fs::read_to_string(&ref_path) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}
