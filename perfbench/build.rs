//! Records the compiler version and the git revision of the source tree in
//! the binary, for the host fingerprint every result carries.

use std::path::Path;
use std::process::Command;

fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={}", git_rev());
    // Without a git checkout there is nothing to watch; pointing
    // rerun-if-changed at a missing file would rebuild on every run.
    println!("cargo:rerun-if-changed=build.rs");
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        if let Some(reference) = head.trim().strip_prefix("ref: ") {
            if git.join(reference).exists() {
                println!("cargo:rerun-if-changed=../.git/{reference}");
            }
        }
    }
}
