//! The `tawa-cache` command line, run as a child process.

use std::process::Command;

fn tawa_cache(args: &[&str], remote_env: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tawa-cache"))
        .args(args)
        .env("TAWA_CACHED", remote_env)
        .env_remove("TAWA_DISK_CACHE")
        .output()
        .expect("spawn tawa-cache");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn stats_remote_treats_empty_tawa_cached_as_unset() {
    for empty in ["", "  "] {
        let (ok, stderr) = tawa_cache(&["stats", "--remote"], empty);
        assert!(!ok, "TAWA_CACHED={empty:?} must not succeed");
        assert!(
            stderr.contains("stats --remote needs an address or TAWA_CACHED set"),
            "TAWA_CACHED={empty:?}: {stderr}"
        );
    }
}

#[test]
fn stats_remote_takes_at_most_one_address() {
    let (ok, stderr) = tawa_cache(&["stats", "--remote", "a.sock", "b.sock"], "");
    assert!(!ok);
    assert!(
        stderr.contains("stats --remote takes at most one address"),
        "{stderr}"
    );
}
