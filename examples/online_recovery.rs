//! Online failure injection end-to-end: a CAFT ε = 1 schedule survives a
//! mid-execution processor crash under every built-in recovery policy
//! (the `RecoveryPolicy::ALL` registry plus both checkpoint variants —
//! fixed-interval and Young/Daly adaptive), then a 1000-run Monte-Carlo
//! sweep with exponential lifetimes compares the policies and
//! demonstrates that the summary is deterministic (same seed ⇒
//! byte-identical output). Everything goes through the `Simulation`
//! front door; pass `--detection uniform|per-proc|gossip` to swap the
//! failure-detection model (default: uniform, 1 time unit).
//!
//! Run with: `cargo run --release --example online_recovery`
//! or:       `cargo run --release --example online_recovery -- --detection gossip`
//! or:       `cargo run --release --example online_recovery -- --transient --mttr 0.25`
//! or:       `cargo run --release --example online_recovery -- --metrics-json metrics.json`
//!
//! With `--metrics-json <path>` the Monte-Carlo sweep additionally dumps
//! each policy's mergeable metric histograms (latency, slowdown, work
//! lost/saved, detection lag, action counters) as machine-readable JSON
//! — the same `MetricSet` carried on every `BatchSummary`, byte-identical
//! at any rayon thread count.
//!
//! With `--transient` (optionally `--mttr <factor of nominal>`, default
//! 0.25) crashed processors reboot after exponential repairs: the demo
//! first shows a single crash-and-reboot repaired *on the rebooted
//! processor*, then runs the Monte-Carlo sweep with transient draws —
//! the rejuvenation regime the permanent model cannot express.

use ftsched::experiments::cli::{or_exit, positive, Flags};
use ftsched::experiments::stats::metrics_record;
use ftsched::experiments::DetectionKind;
use ftsched::prelude::*;
use ftsched::sim::replay;
use rand::{rngs::StdRng, SeedableRng};

const FLAGS: Flags = Flags(
    &["--transient"],
    &["--detection", "--metrics-json", "--mttr"],
    0,
);

/// The command line: the detection model, where to dump the per-policy
/// Monte-Carlo metric histograms, and the MTTR factor (of nominal) when
/// `--transient` or `--mttr` is given.
fn read_args() -> Result<(DetectionKind, Option<String>, Option<f64>), String> {
    let args = FLAGS.parse(std::env::args().skip(1))?;
    let models = "uniform, per-proc or gossip";
    let detection = args.parse("--detection", models, DetectionKind::parse)?;
    let mttr = args.parse("--mttr", "a finite factor > 0", positive(false))?;
    Ok((
        detection.unwrap_or(DetectionKind::Uniform),
        args.value("--metrics-json").map(String::from),
        mttr.or(args.has("--transient").then_some(0.25)),
    ))
}

fn main() {
    let (detection, metrics_path, mttr_factor) = or_exit("online_recovery", read_args());
    // A paper-style workload: 60 tasks, 10 heterogeneous processors.
    let mut rng = StdRng::seed_from_u64(42);
    let graph = random_layered(&RandomDagParams::default().with_tasks(60), &mut rng);
    let inst = random_instance(graph, &PlatformParams::default(), 1.0, &mut rng);
    let sched = caft(&inst, 1, CommModel::OnePort, 42);
    assert!(validate_schedule(&inst, &sched).is_empty());
    let nominal = sched.latency();
    // A reference delay of 1 time unit (gossip: period 0.5, seed 7).
    let detection = detection.model(inst.num_procs(), 1.0, 7);
    let failure = match mttr_factor {
        None => FailureKind::Permanent,
        Some(f) => FailureKind::transient(
            RepairModel::Exponential { mean: f * nominal },
            4.0 * nominal,
        ),
    };
    println!(
        "workload: {} tasks on {} processors — CAFT ε = 1, nominal latency {nominal:.2}, \
         detection: {}, failures: {}\n",
        inst.num_tasks(),
        inst.num_procs(),
        detection.label(),
        failure.name(),
    );

    // The policy roster: the registry of parameterless built-ins
    // (absorb / re-replicate / reschedule / warm-spare) plus
    // checkpoint/restart with a fine interval (a quarter of the mean
    // task cost, cheap writes) and Young/Daly adaptive checkpointing
    // tuned to the Monte-Carlo failure rate below (MTTF = 5x nominal).
    let mean_cost = inst.mean_task_cost();
    let policies: Vec<RecoveryPolicy> = RecoveryPolicy::ALL
        .into_iter()
        .chain([
            RecoveryPolicy::checkpoint(mean_cost * 0.25, mean_cost * 0.005),
            RecoveryPolicy::adaptive_checkpoint(5.0 * nominal, mean_cost * 0.005),
        ])
        .collect();

    // --- One mid-execution crash, every policy in the roster. -----------
    // Pick the crash that hurts most: a processor whose loss at t = 0
    // starves the strict replay, if one exists (the Proposition 5.2 gap),
    // otherwise the busiest processor. Crash it mid-run.
    let victim = inst
        .platform
        .procs()
        .find(|&p| !replay(&inst, &sched, &FaultScenario::procs(&[p])).completed())
        .unwrap_or(ProcId(0));
    let crash_at = nominal * 0.45;
    let scenario = FaultScenario::timed(&[(victim, crash_at)]);
    println!("crashing {victim} at t = {crash_at:.2} (45% of nominal):");
    for &policy in &policies {
        let out = Simulation::of(&inst, &sched)
            .policy(policy)
            .detection(detection.clone())
            .seed(7)
            .run(&scenario);
        println!(
            "  {:<24} completed = {:<5} latency = {:<8} recovered tasks = {:<3} \
             replicas spawned = {:<3} extra msgs = {:<3} ck paid = {:<7.2} saved = {:.2}",
            policy.label(),
            out.completed(),
            out.latency().map_or("-".into(), |l| format!("{l:.2}")),
            out.tasks_recovered(),
            out.recovery_replicas,
            out.recovery_messages,
            out.checkpoint_overhead,
            out.work_saved,
        );
        assert!(
            out.completed(),
            "{policy}: the schedule must survive this mid-execution crash"
        );
    }

    // --- Rejuvenation drill (transient mode only): the victim reboots. --
    if let Some(f) = mttr_factor {
        let repair = f * nominal;
        let scenario = FaultScenario::transient(&[(victim, crash_at, repair)]);
        println!(
            "\nrebooting drill: {victim} crashes at t = {crash_at:.2} and reboots at \
             t = {:.2}:",
            crash_at + repair
        );
        for &policy in &policies {
            let out = Simulation::of(&inst, &sched)
                .policy(policy)
                .detection(detection.clone())
                .seed(7)
                .run(&scenario);
            println!(
                "  {:<24} completed = {:<5} latency = {:<8} rejoins seen = {:<2} \
                 replicas spawned = {:<3}",
                policy.label(),
                out.completed(),
                out.latency().map_or("-".into(), |l| format!("{l:.2}")),
                out.rejoins,
                out.recovery_replicas,
            );
            assert!(out.completed(), "{policy}: the reboot must not hurt");
            assert_eq!(out.rejoins, 1, "{policy}: the reboot must be observed");
        }
    }

    // --- Monte-Carlo: 1000 timed scenarios per policy. ------------------
    println!("\nMonte-Carlo: 1000 runs/policy, exponential lifetimes (MTTF = 5x nominal):");
    let mut lines = Vec::new();
    for &policy in &policies {
        let sim = Simulation::of(&inst, &sched)
            .policy(policy)
            .detection(detection.clone())
            .failure(failure.clone())
            .seed(2024);
        let lifetime = LifetimeDist::Exponential {
            mean: 5.0 * nominal,
        };
        let summary = sim.monte_carlo(1000, lifetime.clone());
        let line = summary.one_line();
        println!("  {line}");
        // Same seed ⇒ same summary, run-for-run.
        let again = sim.monte_carlo(1000, lifetime);
        assert_eq!(
            line,
            again.one_line(),
            "Monte-Carlo summary must be deterministic"
        );
        lines.push(summary);
    }
    let [absorb, rerep, resched, warm, ckpt, adapt] = &lines[..] else {
        unreachable!()
    };
    for recovering in [rerep, resched, warm, ckpt, adapt] {
        assert!(
            recovering.completed >= absorb.completed,
            "{} completed less than absorb",
            recovering.policy_label
        );
    }
    assert!(
        ckpt.work_saved > 0.0,
        "1000 runs at this failure rate must resume something"
    );
    if mttr_factor.is_none() {
        // Pre-staging is a rejoin behavior: under permanent failures the
        // warm-spare column is re-replication exactly.
        assert_eq!(warm.completed, rerep.completed);
        assert_eq!(warm.recovery_replicas, rerep.recovery_replicas);
    }
    if let Some(path) = metrics_path {
        let records = lines.iter().map(|s| metrics_record(s, vec![])).collect();
        let txt = serde_json::to_string_pretty(&serde::Value::Seq(records))
            .expect("serializable metrics");
        std::fs::write(&path, txt).expect("writable metrics path");
        println!("\nwrote per-policy metric histograms to {path}");
    }

    println!(
        "\nrecovery lifts completion from {:.1}% (absorb) to {:.1}% (re-replicate), \
         {:.1}% (reschedule), {:.1}% (warm-spare) and {:.1}% (checkpoint — saving \
         {:.1} recomputation units/run for {:.1} paid; Young/Daly adaptive: {:.1}% \
         for {:.1} paid)",
        absorb.completion_rate() * 100.0,
        rerep.completion_rate() * 100.0,
        resched.completion_rate() * 100.0,
        warm.completion_rate() * 100.0,
        ckpt.completion_rate() * 100.0,
        ckpt.mean_work_saved(),
        ckpt.mean_checkpoint_overhead(),
        adapt.completion_rate() * 100.0,
        adapt.mean_checkpoint_overhead(),
    );
}
