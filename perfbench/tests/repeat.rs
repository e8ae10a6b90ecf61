//! Exact-repeat counters: each workload runs twice in traced mode at
//! reduced size with one seed; every count metric must be identical
//! across the two runs, and the workloads that never touch the network
//! must charge exactly 0 transfers.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

/// Count metrics later changes may cite as exact.
const COUNTS: [&str; 17] = [
    "ops",
    "ft-algos.caft_calls",
    "ft-algos.subdag.replans",
    "ft-net.transfers",
    "ft-net.contended",
    "ft-serve.cache.hits",
    "ft-serve.cache.misses",
    "ft-serve.daemon.deltas",
    "ft-serve.daemon.delta_bytes",
    "ft-serve.queue.failed_jobs",
    "ft-runtime.engine.runs",
    "ft-runtime.engine.detections",
    "ft-runtime.engine.recovery_replicas",
    "ft-runtime.engine.recovery_messages",
    "ft-runtime.engine.rejoins",
    "ft-runtime.engine.unrecoverable",
    "ft-runtime.engine.useful_replica_ratio",
];

/// Runs one traced workload and returns its metric values by name.
fn traced_run(workload: &str) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", "1"])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("a JSON result line");
    assert_eq!(
        result.get("correct"),
        &Value::Bool(true),
        "{workload}:\n{stdout}"
    );
    assert_eq!(
        result.get("failed"),
        &Value::UInt(0),
        "{workload}:\n{stdout}"
    );
    let Value::Map(metrics) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Value::Float(x) => *x,
                Value::UInt(x) => *x as f64,
                Value::Int(x) => *x as f64,
                other => panic!("{workload}: {name} is not a number: {other:?}"),
            };
            (name.clone(), value)
        })
        .collect()
}

fn check(workload: &str, network_free: bool) {
    let (a, b) = (traced_run(workload), traced_run(workload));
    for name in COUNTS {
        assert!(a.contains_key(name), "{workload}: {name} missing");
        assert_eq!(
            a[name].to_bits(),
            b[name].to_bits(),
            "{workload}: {name} differs across identical runs ({} vs {})",
            a[name],
            b[name]
        );
    }
    if network_free {
        assert_eq!(a["ft-net.transfers"], 0.0, "{workload} charged transfers");
    }
}

#[test]
fn mc_sweep_counts_repeat_exactly() {
    check("mc-sweep", true);
}

#[test]
fn storm_drill_counts_repeat_exactly() {
    check("storm-drill", false);
}

#[test]
fn serve_stream_counts_repeat_exactly() {
    check("serve-stream", true);
}
