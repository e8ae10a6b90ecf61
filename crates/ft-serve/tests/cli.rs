//! `ft-serve` on the command line: every misread invocation fails, names
//! the flag or argument at fault and touches no queue; a client of a root
//! that holds no queue fails naming the root and creates nothing;
//! `example-spec` prints only specs that `submit --spec` accepts.

use ft_serve::JobSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one case.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ft-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn ft_serve(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ft-serve"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("ft-serve runs")
}

#[test]
fn misread_flags_and_invalid_specs_fail_naming_the_culprit_and_write_nothing() {
    let cases: [(&[&str], &str); 6] = [
        (
            &["submit", "--root", "R", "--example", "alice", "--id"],
            "--id",
        ),
        (
            &["submit", "--root", "R", "--example", "bob", "--idd", "job7"],
            "--idd",
        ),
        (&["status", "--root", "R", "--bogus", "alice-0"], "--bogus"),
        (&["example-spec", "--runs"], "--runs"),
        (
            &["example-spec", "--runs", "0"],
            "grid.runs must be positive",
        ),
        (&["example-spec", "--tenant", "../x"], "invalid tenant"),
    ];
    for (i, (args, culprit)) in cases.into_iter().enumerate() {
        let dir = workdir(&format!("misread-{i}"));
        let out = ft_serve(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0: {stderr}");
        assert!(
            stderr.contains(culprit),
            "{args:?} must name {culprit}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a spec");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn clients_refuse_a_root_that_holds_no_queue_and_create_nothing() {
    let cases: [&[&str]; 5] = [
        &["status", "--root", "typo/R"],
        &["watch", "--root", "typo/R", "alice-0", "--timeout-s", "1"],
        &["cancel", "--root", "typo/R", "alice-0"],
        &["verify", "--root", "typo/R", "alice-0"],
        &["stop", "--root", "typo/R"],
    ];
    for (i, args) in cases.into_iter().enumerate() {
        let dir = workdir(&format!("no-queue-{i}"));
        let out = ft_serve(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("typo/R"),
            "{args:?} must name the root: {stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // A root made by `submit` holds a queue: `status` lists the job.
    let dir = workdir("submitted");
    let submit = [
        "submit",
        "--root",
        "R",
        "--example",
        "alice",
        "--id",
        "alice-0",
    ];
    let out = ft_serve(&dir, &submit);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = ft_serve(&dir, &["status", "--root", "R"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("alice-0") && stdout.contains("pending"),
        "status must list the submitted job: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn example_spec_prints_the_requested_valid_spec() {
    let dir = workdir("example");
    let out = ft_serve(
        &dir,
        &[
            "example-spec",
            "--tenant",
            "t",
            "--runs",
            "8",
            "--delta-every",
            "4",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let spec: JobSpec = serde_json::from_str(&stdout).expect("a job spec");
    assert_eq!(
        (spec.tenant.as_str(), spec.grid.runs, spec.delta_every),
        ("t", 8, 4)
    );
    spec.validate().expect("the printed spec validates");
    std::fs::remove_dir_all(&dir).ok();
}
