//! A user-defined recovery policy through the open `Policy` trait — the
//! acceptance demo of the recovery-layer redesign.
//!
//! `SelectiveInsurance` composes three things no single built-in offers,
//! without touching the engine:
//!
//! * **per-task checkpoint plans** — only tasks costing more than the
//!   platform's mean task cost are insured (cheap tasks are faster to
//!   recompute than to checkpoint);
//! * **resume-first repair** — on crash knowledge it resumes insured
//!   tasks from their newest checkpoint and re-replicates the rest from
//!   scratch (the engine falls back automatically when no checkpoint
//!   completed);
//! * **warm-spare pre-staging** — on rejoin knowledge it pre-stages the
//!   surviving inputs of still-broken tasks onto the rebooted processor.
//!
//! Every proposal goes through the engine's validation (the
//! survivor-knowledge rule, epoch binding), so the custom policy cannot
//! break the availability invariants — `rejected_actions` stays 0 here
//! because the policy only proposes what the engine's own loss analytics
//! selected.
//!
//! Run with: `cargo run --release --example custom_policy`

use ftsched::prelude::*;
use ftsched::sim::replay;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Checkpoint the expensive tasks, resume them on crashes, re-replicate
/// the cheap ones, and pre-stage inputs onto rebooted processors.
struct SelectiveInsurance {
    /// Tasks above `threshold × mean task cost` get a checkpoint plan.
    threshold: f64,
    /// Checkpoint interval and write cost, as fractions of the mean
    /// task cost.
    interval: f64,
    overhead: f64,
}

impl Policy for SelectiveInsurance {
    fn name(&self) -> &str {
        "selective-insurance"
    }

    fn checkpoint_plan(&self, task: &TaskInfo<'_>) -> Option<CheckpointPlan> {
        let mean_cost = task.mean_task_cost();
        (task.mean_exec_time() > self.threshold * mean_cost).then_some(CheckpointPlan {
            interval: self.interval * mean_cost,
            overhead: self.overhead * mean_cost,
        })
    }

    fn on_crash(
        &self,
        view: &PolicyView<'_>,
        event: &PolicyEvent,
        actions: &mut Vec<RecoveryAction>,
    ) {
        for t in view.crash_lost_tasks(event.proc) {
            // Resume when a checkpoint exists, spawn from scratch
            // otherwise — the engine resolves the fallback either way,
            // but proposing the intent keeps the action log honest.
            actions.push(if view.checkpoint_credit(t) > 0.0 {
                RecoveryAction::ResumeFromCheckpoint(t)
            } else {
                RecoveryAction::SpawnReplica(t)
            });
        }
    }

    fn on_rejoin(
        &self,
        view: &PolicyView<'_>,
        event: &PolicyEvent,
        actions: &mut Vec<RecoveryAction>,
    ) {
        for t in view.lost_tasks() {
            actions.push(RecoveryAction::ResumeFromCheckpoint(t));
        }
        // Whatever the spawns could not fix gets warm data on the
        // rebooted host for its next repair attempt.
        for t in view.lost_tasks() {
            actions.push(RecoveryAction::PreStage {
                task: t,
                on: event.proc,
            });
        }
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let graph = random_layered(&RandomDagParams::default().with_tasks(60), &mut rng);
    let inst = random_instance(graph, &PlatformParams::default(), 1.0, &mut rng);
    let sched = caft(&inst, 1, CommModel::OnePort, 42);
    assert!(validate_schedule(&inst, &sched).is_empty());
    let nominal = sched.latency();
    let custom: Arc<dyn Policy> = Arc::new(SelectiveInsurance {
        threshold: 1.0,
        interval: 0.5,
        overhead: 0.01,
    });
    println!(
        "workload: {} tasks on {} processors — CAFT ε = 1, nominal latency {nominal:.2}, \
         custom policy: {}\n",
        inst.num_tasks(),
        inst.num_procs(),
        custom.label(),
    );

    // --- Per-task plans at work: selective failure-free insurance. ------
    let sim = Simulation::of(&inst, &sched)
        .policy_impl(custom.clone())
        .detection(DetectionModel::uniform(1.0))
        .seed(7);
    let mut tracer = TraceObserver::new();
    let free = sim.run_observed(&FaultScenario::none(), &mut tracer);
    let trace = tracer.into_trace();
    let insured = trace.ops.iter().filter(|o| o.ck_pad > 0.0).count();
    let uninsured = trace
        .ops
        .iter()
        .filter(|o| o.task.is_some() && o.ck_pad == 0.0)
        .count();
    println!(
        "failure-free: latency {:.2} (nominal {nominal:.2}), insured computations {insured}, \
         uninsured {uninsured}, premium paid {:.2}",
        free.latency().unwrap(),
        free.checkpoint_overhead,
    );
    assert!(insured > 0, "some expensive task must carry a plan");
    assert!(uninsured > 0, "cheap tasks must opt out of the premium");

    // --- One mid-execution crash vs. the built-in baselines. ------------
    let victim = inst
        .platform
        .procs()
        .find(|&p| !replay(&inst, &sched, &FaultScenario::procs(&[p])).completed())
        .unwrap_or(ProcId(0));
    let scenario = FaultScenario::timed(&[(victim, nominal * 0.45)]);
    println!("\ncrashing {victim} at t = {:.2}:", nominal * 0.45);
    let mut results = Vec::new();
    for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::ReReplicate] {
        let out = Simulation::of(&inst, &sched)
            .policy(policy)
            .detection(DetectionModel::uniform(1.0))
            .seed(7)
            .run(&scenario);
        println!(
            "  {:<20} completed = {:<5} latency = {:<8} recovered = {}",
            policy.label(),
            out.completed(),
            out.latency().map_or("-".into(), |l| format!("{l:.2}")),
            out.tasks_recovered(),
        );
        results.push(out);
    }
    let out = sim.run(&scenario);
    println!(
        "  {:<20} completed = {:<5} latency = {:<8} recovered = {} (saved {:.2} work units, \
         rejected actions = {})",
        custom.label(),
        out.completed(),
        out.latency().map_or("-".into(), |l| format!("{l:.2}")),
        out.tasks_recovered(),
        out.work_saved,
        out.rejected_actions,
    );
    assert!(out.completed(), "the custom policy must repair this crash");
    assert!(out.tasks_recovered() >= results[0].tasks_recovered());
    assert_eq!(out.rejected_actions, 0, "well-behaved proposals only");

    // --- Crash-and-reboot drill: rejoin pre-staging. --------------------
    let transient = FaultScenario::transient(&[(victim, nominal * 0.45, nominal * 0.3)]);
    let tra = sim.run(&transient);
    println!(
        "\nreboot drill: completed = {} rejoins = {} pre-staged tasks = {} extra msgs = {}",
        tra.completed(),
        tra.rejoins,
        tra.prestaged,
        tra.recovery_messages,
    );
    assert!(tra.completed(), "the reboot must not hurt");
    assert_eq!(tra.rejoins, 1);

    // --- Monte-Carlo through the same front door. -----------------------
    let lifetime = LifetimeDist::Exponential {
        mean: 3.0 * nominal,
    };
    let summary = sim.monte_carlo(400, lifetime.clone());
    println!("\nMonte-Carlo, 400 runs: {}", summary.one_line());
    assert_eq!(summary.policy_label, custom.label());
    assert!(
        summary.work_saved > 0.0,
        "400 runs at this rate must resume something"
    );
    let absorb = Simulation::of(&inst, &sched)
        .policy(RecoveryPolicy::Absorb)
        .detection(DetectionModel::uniform(1.0))
        .seed(7)
        .monte_carlo(400, lifetime.clone());
    assert!(
        summary.completed >= absorb.completed,
        "insurance must not complete less than doing nothing"
    );
    // Same seed ⇒ byte-identical summary, custom dispatch included.
    assert_eq!(
        summary.one_line(),
        sim.monte_carlo(400, lifetime).one_line()
    );
    println!(
        "completion {:.1}% vs {:.1}% under absorb — custom policies ride the same \
         deterministic batch pipeline",
        summary.completion_rate() * 100.0,
        absorb.completion_rate() * 100.0,
    );
}
