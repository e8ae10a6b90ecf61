//! Engine-invariant property suite: random DAGs × scenarios × policies ×
//! detection models × link-contention models, pinning the *whole* event
//! loop rather than endpoint identities (those live in
//! `tests/timed_model.rs`).
//!
//! Nine invariants, each over the `EngineTrace` a `TraceObserver`
//! buffers through `Simulation::run_observed`, or over the streaming
//! batch aggregation. Every case draws its contention model (Ideal,
//! Exclusive or FairShare), so the invariants hold on contended engines
//! too:
//!
//! 1. **No operation ever executes on a Down processor** — a completed
//!    op's `[start, finish]` window never overlaps a down window
//!    `(crash, reboot)` of its processor, under permanent and transient
//!    scenarios alike.
//! 2. **Event times are monotone** — availability events (detections,
//!    rejoins) are processed in non-decreasing time order, and every
//!    operation's own timeline is ordered (`release ≤ start ≤ finish`).
//!    Completion events may be *discovered* late relative to the global
//!    clock: the documented ghost-pass-through frontier lag (DESIGN.md
//!    §4) resolves a vanished operation's FIFO successors only when the
//!    failure surfaces, so their (causally consistent) completions enter
//!    the log behind later events. The per-op and per-dependency orders
//!    pinned here are the invariants that actually hold — and the reason
//!    the lag is benign. The lag itself is now observable: every
//!    completed op's `discovered` instant is at or after its physical
//!    `finish` (discovery can only be late, never early). Every op
//!    released after `t = 0` is repair work and carries
//!    `OpTrace::recovery`.
//! 3. **Useful work is conserved** — every completed computation did
//!    exactly its task's work minus what a checkpoint restored; the
//!    run-level `work_saved` / `checkpoint_overhead` totals account for
//!    every completed op; non-checkpoint policies neither save nor pay.
//! 4. **Precedence is respected** — a completed from-scratch computation
//!    of a task starts no earlier than some completed computation of each
//!    of its predecessors (checkpoint resumes are exempt: their state
//!    subsumes the inputs).
//! 5. **`BatchSummary` is thread-count independent** — the rayon
//!    fold/reduce streaming aggregation equals the sequential
//!    one-accumulator path byte-for-byte (CI runs this suite under both
//!    `RAYON_NUM_THREADS=1` and the default thread count).
//! 6. **A no-op custom `Policy` is `Absorb`** — all-default trait hooks
//!    produce a trace-identical run (outcome bytes, ops, event log) to
//!    the built-in baseline: the open dispatch path adds nothing of its
//!    own.
//! 7. **Invalid actions are rejected, never executed** — a hostile
//!    policy pre-staging onto crashed and knowledge-lagged processors
//!    has those proposals counted in `rejected_actions`, the down-window
//!    invariant still holds over the full trace, and the run stays
//!    deterministic.
//! 8. **Metric merges are independent of the merge tree** — the
//!    `MetricSet` histograms (and the whole `BatchSummary`) come out
//!    byte-identical whether the runs are aggregated into one
//!    accumulator, chunked accumulators merged left-to-right, or a
//!    pairwise merge tree: the totals live in `ExactSum` limbs, so the
//!    merge is associative to the bit (this is invariant 5's
//!    thread-count independence, re-pinned at the metrics layer; CI runs
//!    the suite under both `RAYON_NUM_THREADS=1` and the default).
//! 9. **`MetricSet` survives serde byte-identically and its histograms
//!    account for every run** — the JSON round-trip reproduces the exact
//!    bytes (`ExactSum` limbs, NaN-seeded extrema and all, so a stored
//!    metrics dump re-merges exactly), per-bucket counts (overflow
//!    included) sum to each histogram's count, and the latency
//!    histogram plus the `incomplete_runs` counter accounts for every
//!    Monte-Carlo run — the accounting identity the validation harness
//!    reads completion rates through.

use ftsched::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn arb_workload() -> impl Strategy<Value = (u64, usize, usize, usize, f64)> {
    // (seed, tasks, procs, eps, granularity)
    (
        any::<u64>(),
        10usize..32,
        3usize..8,
        0usize..3,
        prop_oneof![Just(0.4f64), Just(1.0), Just(3.0)],
    )
}

/// The scenario axis: permanent, constant-repair and exponential-repair
/// transient failures, crossed with the policy, detection and contention
/// models (selectors drawn by the strategy).
fn arb_mix() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    // (failure kind, policy, detection model, contention model)
    (0usize..3, 0usize..6, 0usize..3, 0usize..3)
}

fn make_instance(seed: u64, tasks: usize, procs: usize, gran: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = random_layered(&RandomDagParams::default().with_tasks(tasks), &mut rng);
    random_instance(
        graph,
        &PlatformParams::default().with_procs(procs),
        gran,
        &mut rng,
    )
}

fn failure_kind(kind: usize, nominal: f64) -> FailureKind {
    match kind {
        0 => FailureKind::Permanent,
        1 => FailureKind::transient(
            RepairModel::Constant {
                time: nominal * 0.2,
            },
            nominal * 4.0,
        ),
        _ => FailureKind::transient(
            RepairModel::Exponential {
                mean: nominal * 0.3,
            },
            nominal * 4.0,
        ),
    }
}

fn policy(ix: usize, mean_cost: f64) -> RecoveryPolicy {
    match ix {
        0 => RecoveryPolicy::Absorb,
        1 => RecoveryPolicy::ReReplicate,
        2 => RecoveryPolicy::Reschedule,
        3 => RecoveryPolicy::WarmSpare,
        4 => RecoveryPolicy::adaptive_checkpoint(mean_cost * 24.0, mean_cost * 0.01),
        _ => RecoveryPolicy::checkpoint(mean_cost * 0.4, mean_cost * 0.01),
    }
}

fn detection(ix: usize, m: usize, seed: u64) -> DetectionModel {
    match ix {
        0 => DetectionModel::uniform(0.5),
        1 => DetectionModel::per_processor_spread(m, 0.8),
        _ => DetectionModel::Gossip {
            period: 0.4,
            fanout: 2,
            seed,
        },
    }
}

fn contention(ix: usize) -> Contention {
    match ix {
        0 => Contention::Ideal,
        1 => Contention::Exclusive,
        _ => Contention::FairShare,
    }
}

/// The builder form of a positional engine configuration.
fn sim<'a>(inst: &'a Instance, sched: &'a FtSchedule, cfg: &EngineConfig) -> Simulation<'a> {
    Simulation::of(inst, sched)
        .policy(cfg.policy)
        .detection(cfg.detection.clone())
        .seed(cfg.seed)
        .contention(cfg.contention)
}

/// `sim.run` with the run buffered into an [`EngineTrace`].
fn traced(sim: &Simulation<'_>, scenario: &FaultScenario) -> (RunOutcome, EngineTrace) {
    let mut tracer = TraceObserver::new();
    let out = sim.run_observed(scenario, &mut tracer);
    (out, tracer.into_trace())
}

/// One traced run over the drawn (workload, scenario, policy, detection,
/// contention) cell, returned with the scenario for window checks.
type Cell = (
    Instance,
    FtSchedule,
    FaultScenario,
    RunOutcome,
    EngineTrace,
    RecoveryPolicy,
);

fn traced_cell(
    (seed, tasks, procs, eps, gran): (u64, usize, usize, usize, f64),
    (kind_ix, policy_ix, det_ix, net_ix): (usize, usize, usize, usize),
) -> Cell {
    let eps = eps.min(procs - 1);
    let inst = make_instance(seed, tasks, procs, gran);
    let sched = caft(&inst, eps, CommModel::OnePort, seed);
    let nominal = sched.latency();
    let kind = failure_kind(kind_ix, nominal);
    let scenario = draw_scenario_with(
        procs,
        &LifetimeDist::Exponential { mean: nominal },
        &kind,
        &mut StdRng::seed_from_u64(seed ^ 0x1A7E),
    );
    let pol = policy(policy_ix, inst.mean_task_cost());
    let cfg = EngineConfig {
        policy: pol,
        detection: detection(det_ix, procs, seed),
        seed: seed ^ 0xE21,
        contention: contention(net_ix),
    };
    let (out, trace) = traced(&sim(&inst, &sched, &cfg), &scenario);
    (inst, sched, scenario, out, trace, pol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 1: no operation — static, recovery, computation or
    /// transfer — ever overlaps a down window of its processor.
    #[test]
    fn no_op_executes_on_a_down_processor(w in arb_workload(), mix in arb_mix()) {
        let (_, _, scenario, _, trace, _) = traced_cell(w, mix);
        for (i, op) in trace.ops.iter().enumerate().filter(|(_, o)| o.completed) {
            for (crash, up) in scenario.epochs_of(op.proc) {
                prop_assert!(
                    !(op.finish > crash + 1e-9 && op.start < up - 1e-9),
                    "op {i} on {} runs [{}, {}] across down window ({crash}, {up})",
                    op.proc, op.start, op.finish
                );
            }
        }
    }

    /// Invariant 2: availability events are processed in time order, and
    /// every operation's own timeline is ordered (completions may be
    /// discovered late — the documented frontier lag; see the module
    /// docs).
    #[test]
    fn event_times_are_monotone(w in arb_workload(), mix in arb_mix()) {
        let (_, _, _, _, trace, _) = traced_cell(w, mix);
        let avail: Vec<f64> = trace
            .events
            .iter()
            .filter(|e| e.kind != TraceEventKind::Completion)
            .map(|e| e.time)
            .collect();
        for w in avail.windows(2) {
            prop_assert!(w[0] <= w[1], "availability events out of order: {} then {}", w[0], w[1]);
        }
        let completions = trace.events.iter().filter(|e| e.kind == TraceEventKind::Completion).count();
        prop_assert_eq!(completions, trace.ops.iter().filter(|o| o.completed).count());
        for (i, op) in trace.ops.iter().enumerate().filter(|(_, o)| o.completed) {
            prop_assert!(op.release <= op.start + 1e-9, "op {i} starts before its release");
            prop_assert!(op.start <= op.finish + 1e-9, "op {i} finishes before it starts");
            prop_assert!(op.finish.is_finite() && op.finish >= 0.0);
            // Discovery can only lag the physical completion, never
            // precede it (the frontier is a running max of event times).
            prop_assert!(
                op.discovered.is_finite() && op.discovered >= op.finish,
                "op {i} discovered at {} before its physical finish {}",
                op.discovered, op.finish
            );
        }
        // Only repairs inject ops after t = 0, and every one of them —
        // spawn input transfers included — is flagged as repair work.
        for (i, op) in trace.ops.iter().enumerate() {
            prop_assert!(
                op.release <= 0.0 || op.recovery,
                "op {i} released at {} is not flagged as repair work", op.release
            );
        }
    }

    /// Invariant 3: useful work is conserved — work done plus work
    /// restored from checkpoints accounts for every completed
    /// computation, and the run totals account for every op.
    #[test]
    fn useful_work_is_conserved(w in arb_workload(), mix in arb_mix()) {
        let (inst, _, _, out, trace, pol) = traced_cell(w, mix);
        let mut saved = 0.0f64;
        let mut paid = 0.0f64;
        let mut task_done = vec![false; inst.num_tasks()];
        for (i, op) in trace.ops.iter().enumerate().filter(|(_, o)| o.completed) {
            let Some(t) = op.task else { continue };
            task_done[t.index()] = true;
            prop_assert!(
                (op.work - op.full * (1.0 - op.done_frac)).abs() < 1e-9,
                "op {i} of {t}: work {} != full {} x (1 - {})",
                op.work, op.full, op.done_frac
            );
            saved += op.full * op.done_frac;
            paid += op.ck_pad;
            if !matches!(
                pol,
                RecoveryPolicy::Checkpoint { .. } | RecoveryPolicy::AdaptiveCheckpoint { .. }
            ) {
                prop_assert_eq!(op.done_frac, 0.0, "resume outside Checkpoint");
                prop_assert_eq!(op.ck_pad, 0.0, "padding outside Checkpoint");
            }
        }
        prop_assert!(
            (out.work_saved - saved).abs() < 1e-6,
            "work_saved {} != trace total {saved}", out.work_saved
        );
        prop_assert!(
            (out.checkpoint_overhead - paid).abs() < 1e-6,
            "checkpoint_overhead {} != trace total {paid}", out.checkpoint_overhead
        );
        // A task completed iff some computation of it completed.
        for (t, f) in out.first_finish.iter().enumerate() {
            prop_assert_eq!(
                f.is_some(),
                task_done[t],
                "task {} completion disagrees with its ops", t
            );
        }
    }

    /// Invariant 4: precedence — a completed from-scratch computation
    /// starts no earlier than some completed computation of each
    /// predecessor (resumes exempt: the checkpoint subsumes the inputs).
    #[test]
    fn precedence_is_respected(w in arb_workload(), mix in arb_mix()) {
        let (inst, _, _, _, trace, _) = traced_cell(w, mix);
        let mut earliest = vec![f64::INFINITY; inst.num_tasks()];
        for op in trace.ops.iter().filter(|o| o.completed) {
            if let Some(t) = op.task {
                earliest[t.index()] = earliest[t.index()].min(op.finish);
            }
        }
        for (i, op) in trace.ops.iter().enumerate().filter(|(_, o)| o.completed) {
            let Some(t) = op.task else { continue };
            if op.done_frac > 0.0 {
                continue; // restored from stable storage, no input pulls
            }
            for &e in inst.graph.in_edges(t) {
                let pred = inst.graph.edge(e).src;
                prop_assert!(
                    earliest[pred.index()] <= op.start + 1e-9,
                    "op {i}: {t} started at {} before any completion of its \
                     predecessor {pred} (earliest {})",
                    op.start, earliest[pred.index()]
                );
            }
        }
    }

    /// Invariant 5: the streaming Monte-Carlo aggregation is independent
    /// of the rayon thread count and chunking — the parallel fold/reduce
    /// equals the sequential one-accumulator path byte-for-byte, with
    /// transient failure draws exercising the availability machine.
    #[test]
    fn batch_summary_is_thread_count_independent(
        w in arb_workload(),
        mix in arb_mix(),
        runs in 12usize..40,
    ) {
        let (seed, tasks, procs, eps, gran) = w;
        let (kind_ix, policy_ix, det_ix, net_ix) = mix;
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let nominal = sched.latency();
        let cfg = MonteCarloConfig {
            runs,
            lifetime: LifetimeDist::Exponential { mean: nominal },
            failure: failure_kind(kind_ix, nominal),
            engine: EngineConfig {
                policy: policy(policy_ix, inst.mean_task_cost()),
                detection: detection(det_ix, procs, seed),
                seed: seed ^ 0xE21,
                contention: contention(net_ix),
            },
            seed: seed ^ 0xBA7C4,
        };
        let streamed = simulate_many(&inst, &sched, &cfg);
        let one_shot = sim(&inst, &sched, &cfg.engine);
        let mut acc = BatchAccumulator::new(nominal);
        for i in 0..runs {
            let scenario = cfg.scenario_of_run(procs, i);
            let out = one_shot.run(&scenario);
            acc.record(scenario.earliest_crash(), &out);
        }
        let sequential = acc.finish(cfg.engine.policy);
        prop_assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&sequential).unwrap(),
            "streaming aggregation depends on the partitioning"
        );
    }

    /// Invariant 6 (open policy API): a custom policy whose every hook is
    /// the default no-op is **trace-identical** to the `Absorb` built-in
    /// — same outcome bytes, same materialized operations, same event
    /// log. Doing nothing through the trait is exactly the baseline.
    #[test]
    fn no_op_custom_policy_is_trace_identical_to_absorb(
        w in arb_workload(),
        mix in arb_mix(),
    ) {
        struct Inert;
        impl Policy for Inert {}

        let (seed, tasks, procs, eps, gran) = w;
        let (kind_ix, _, det_ix, net_ix) = mix;
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let kind = failure_kind(kind_ix, sched.latency());
        let scenario = draw_scenario_with(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() },
            &kind,
            &mut StdRng::seed_from_u64(seed ^ 0x1A7E),
        );
        let cfg = EngineConfig {
            policy: RecoveryPolicy::Absorb,
            detection: detection(det_ix, procs, seed),
            seed: seed ^ 0xE21,
            contention: contention(net_ix),
        };
        let absorb_sim = sim(&inst, &sched, &cfg);
        let (absorb, absorb_trace) = traced(&absorb_sim, &scenario);
        let (noop, noop_trace) = traced(&absorb_sim.clone().policy_impl(Arc::new(Inert)), &scenario);
        prop_assert_eq!(
            serde_json::to_string(&absorb).unwrap(),
            serde_json::to_string(&noop).unwrap(),
            "a no-op custom policy must be Absorb"
        );
        prop_assert_eq!(noop.rejected_actions, 0);
        prop_assert_eq!(
            format!("{:?}", absorb_trace.ops),
            format!("{:?}", noop_trace.ops),
            "op traces diverge"
        );
        prop_assert_eq!(absorb_trace.events, noop_trace.events, "event logs diverge");
    }

    /// Invariant 7 (action validation): whatever a hostile custom policy
    /// proposes, nothing lands on a non-eligible processor. A policy
    /// that pre-stages every task onto every processor — including
    /// crashed and knowledge-lagged ones — has its invalid proposals
    /// rejected and counted, and every operation the run does
    /// materialize still respects the down windows (invariant 1) and the
    /// spawn guards; the run stays deterministic.
    #[test]
    fn ineligible_actions_are_rejected_never_executed(
        w in arb_workload(),
        mix in arb_mix(),
    ) {
        /// Spawns every lost task and pre-stages every task everywhere.
        struct Mischief;
        impl Policy for Mischief {
            fn on_crash(
                &self,
                view: &PolicyView<'_>,
                event: &PolicyEvent,
                actions: &mut Vec<RecoveryAction>,
            ) {
                for t in view.crash_lost_tasks(event.proc) {
                    actions.push(RecoveryAction::SpawnReplica(t));
                }
                for t in 0..view.num_tasks() {
                    for p in 0..view.num_procs() {
                        actions.push(RecoveryAction::PreStage {
                            task: TaskId::from_index(t),
                            on: ProcId::from_index(p),
                        });
                    }
                }
            }
            fn on_rejoin(
                &self,
                view: &PolicyView<'_>,
                _event: &PolicyEvent,
                actions: &mut Vec<RecoveryAction>,
            ) {
                for t in view.lost_tasks() {
                    actions.push(RecoveryAction::SpawnReplica(t));
                }
            }
        }

        let (seed, tasks, procs, eps, gran) = w;
        let (kind_ix, _, det_ix, net_ix) = mix;
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let kind = failure_kind(kind_ix, sched.latency());
        let scenario = draw_scenario_with(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() },
            &kind,
            &mut StdRng::seed_from_u64(seed ^ 0x1A7E),
        );
        let cfg = EngineConfig {
            policy: RecoveryPolicy::Absorb,
            detection: detection(det_ix, procs, seed),
            seed: seed ^ 0xE21,
            contention: contention(net_ix),
        };
        let mischief = sim(&inst, &sched, &cfg).policy_impl(Arc::new(Mischief));
        let (out, trace) = traced(&mischief, &scenario);
        // Every crash-knowledge event proposed pre-stages onto the
        // believed-dead processor itself: with any detection at all,
        // some proposal must have been rejected.
        if out.detections > 0 && procs > 1 {
            prop_assert!(
                out.rejected_actions > 0,
                "pre-staging onto crashed processors must be rejected"
            );
        }
        // Nothing rejected ever ran: the down-window invariant holds on
        // the full trace, pre-stage transfers included.
        for (i, op) in trace.ops.iter().enumerate().filter(|(_, o)| o.completed) {
            for (crash, up) in scenario.epochs_of(op.proc) {
                prop_assert!(
                    !(op.finish > crash + 1e-9 && op.start < up - 1e-9),
                    "op {i} on {} runs [{}, {}] across down window ({crash}, {up})",
                    op.proc, op.start, op.finish
                );
            }
        }
        // Determinism survives hostile action streams.
        let again = mischief.run(&scenario);
        prop_assert_eq!(
            serde_json::to_string(&out).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    /// Invariant 8: the metric histograms are independent of the merge
    /// tree. One accumulator fed sequentially, uneven chunks merged
    /// left-to-right, and a pairwise merge tree all produce byte-identical
    /// `MetricSet`s (and `BatchSummary`s): `ExactSum` limbs make the merge
    /// associative to the bit.
    #[test]
    fn metric_merges_are_independent_of_the_merge_tree(
        w in arb_workload(),
        mix in arb_mix(),
        runs in 12usize..40,
        chunk in 1usize..7,
    ) {
        let (seed, tasks, procs, eps, gran) = w;
        let (kind_ix, policy_ix, det_ix, net_ix) = mix;
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let nominal = sched.latency();
        let cfg = MonteCarloConfig {
            runs,
            lifetime: LifetimeDist::Exponential { mean: nominal },
            failure: failure_kind(kind_ix, nominal),
            engine: EngineConfig {
                policy: policy(policy_ix, inst.mean_task_cost()),
                detection: detection(det_ix, procs, seed),
                seed: seed ^ 0xE21,
                contention: contention(net_ix),
            },
            seed: seed ^ 0xBA7C4,
        };
        let one_shot = sim(&inst, &sched, &cfg.engine);
        let outcomes: Vec<(Option<f64>, RunOutcome)> = (0..runs)
            .map(|i| {
                let scenario = cfg.scenario_of_run(procs, i);
                let out = one_shot.run(&scenario);
                (scenario.earliest_crash(), out)
            })
            .collect();

        // Shape A: one accumulator, fed sequentially.
        let mut solo = BatchAccumulator::new(nominal);
        for (t, out) in &outcomes {
            solo.record(*t, out);
        }

        // Uneven chunks (the parallel fold's partial accumulators).
        let parts: Vec<BatchAccumulator> = outcomes
            .chunks(chunk)
            .map(|c| {
                let mut a = BatchAccumulator::new(nominal);
                for (t, out) in c {
                    a.record(*t, out);
                }
                a
            })
            .collect();

        // Shape B: left-to-right fold over the chunks.
        let left = parts
            .iter()
            .cloned()
            .fold(BatchAccumulator::new(nominal), BatchAccumulator::merge);

        // Shape C: pairwise merge tree over the chunks.
        let mut layer = parts;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => a.clone().merge(b.clone()),
                    [a] => a.clone(),
                    _ => unreachable!(),
                })
                .collect();
        }
        let tree = layer.pop().unwrap();

        let summarize =
            |acc: BatchAccumulator| serde_json::to_string(&acc.finish(cfg.engine.policy)).unwrap();
        let a = summarize(solo);
        let b = summarize(left);
        let c = summarize(tree);
        prop_assert_eq!(&a, &b, "left fold drifted from the sequential accumulator");
        prop_assert_eq!(&a, &c, "pairwise merge tree drifted from the sequential accumulator");
        // And the streamed batch (whatever merge tree rayon used today)
        // agrees too — metrics included.
        let streamed = serde_json::to_string(&simulate_many(&inst, &sched, &cfg)).unwrap();
        prop_assert_eq!(&a, &streamed, "rayon's merge tree drifted from the sequential accumulator");
    }

    /// Invariant 9: a `MetricSet` survives a serde round-trip
    /// byte-identically, and its histograms account for every run —
    /// per-bucket counts (overflow bucket included) sum to the
    /// histogram's count, and the latency histogram plus the
    /// `incomplete_runs` counter covers the whole batch.
    #[test]
    fn metric_set_round_trips_and_buckets_account_for_every_run(
        w in arb_workload(),
        mix in arb_mix(),
        runs in 12usize..40,
    ) {
        let (seed, tasks, procs, eps, gran) = w;
        let (kind_ix, policy_ix, det_ix, net_ix) = mix;
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let nominal = sched.latency();
        let cfg = MonteCarloConfig {
            runs,
            lifetime: LifetimeDist::Exponential { mean: nominal },
            failure: failure_kind(kind_ix, nominal),
            engine: EngineConfig {
                policy: policy(policy_ix, inst.mean_task_cost()),
                detection: detection(det_ix, procs, seed),
                seed: seed ^ 0xE21,
                contention: contention(net_ix),
            },
            seed: seed ^ 0xBA7C4,
        };
        let summary = simulate_many(&inst, &sched, &cfg);
        let metrics = &summary.metrics;

        // Byte-identical serde round-trip: a stored metrics dump
        // reloads into the exact accumulator state (ExactSum limbs,
        // NaN-seeded extrema serialized as null, bucket layouts).
        let text = serde_json::to_string(metrics).unwrap();
        let back: MetricSet = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(
            &text,
            &serde_json::to_string(&back).unwrap(),
            "MetricSet serde round-trip is not byte-identical"
        );

        // Every histogram's buckets sum to its count...
        for (name, h) in [
            ("latency", &metrics.latency),
            ("slowdown", &metrics.slowdown),
            ("work_lost", &metrics.work_lost),
            ("work_saved", &metrics.work_saved),
            ("detection_lag", &metrics.detection_lag),
        ] {
            let bucketed: u64 = h.counts.iter().sum();
            prop_assert_eq!(
                bucketed, h.count,
                "{} histogram buckets sum to {} but count {} samples",
                name, bucketed, h.count
            );
        }
        // ...and the latency histogram + incomplete_runs covers the
        // whole batch: the accounting identity behind
        // `MetricSet::completion_rate` (what the validation harness
        // reads) and the legacy scalar counters.
        prop_assert_eq!(metrics.runs(), runs as u64);
        prop_assert_eq!(metrics.latency.count, summary.completed as u64);
        prop_assert_eq!(metrics.incomplete_runs, (runs - summary.completed) as u64);
        prop_assert!(
            (metrics.completion_rate() - summary.completion_rate()).abs() < 1e-12,
            "histogram-derived completion rate drifted from the scalar counters"
        );
    }
}
