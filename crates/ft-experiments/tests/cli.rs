//! `paper-figures` on the command line: every misread invocation fails
//! with the usage-error code 2, names the flag or argument at fault and
//! writes nothing; `storm --metrics-json` writes the storm's cells.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one case.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paper-figures-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn paper_figures(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper-figures"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("paper-figures runs")
}

#[test]
fn misread_flags_fail_naming_the_culprit_and_write_nothing() {
    let cases: [(&[&str], &str); 6] = [
        (&["degradation", "--quick", "--policy"], "--policy"),
        (&["fig1", "--quick", "--graphs", "abc"], "--graphs"),
        (&["fig1", "--quick", "--graphs", "0"], "--graphs"),
        (&["messages", "--quick", "--json"], "--json"),
        (&["resilience", "--quick", "--grahps", "1"], "--grahps"),
        (
            &[
                "validate",
                "--family",
                "grid",
                "--quick",
                "--records",
                "--bless",
            ],
            "--records",
        ),
    ];
    for (i, (args, culprit)) in cases.into_iter().enumerate() {
        let dir = workdir(&format!("misread-{i}"));
        let out = paper_figures(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(culprit),
            "{args:?} must name {culprit}: {stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn storm_metrics_dump_holds_one_record_per_cell() {
    let dir = workdir("storm");
    let out = paper_figures(&dir, &["storm", "--quick", "--metrics-json", "m.json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("m.json")).expect("metrics file");
    let Value::Seq(records) = serde_json::from_str(&text).expect("metrics JSON") else {
        panic!("the metrics dump is a list");
    };
    // 2 burst sizes × 3 contention models × 4 built-in policies.
    assert_eq!(records.len(), 24);
    for r in &records {
        let transfers = r.get("metrics").get("net_transfers");
        match r.get("contention") {
            Value::Str(mode) if mode == "ideal" => assert_eq!(transfers, &Value::UInt(0)),
            Value::Str(_) => assert!(matches!(transfers, Value::UInt(n) if *n > 0), "{r:?}"),
            other => panic!("record without a contention model: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
