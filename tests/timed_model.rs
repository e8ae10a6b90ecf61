//! Property tests pinning the timed fault model to the static stack.
//!
//! Nine consistency guarantees tie `ft-runtime`'s online engine to
//! `ft-sim`'s replay semantics and anchor the checkpoint, detection,
//! availability, aggregation, policy-dispatch and observability models:
//!
//! * crash times at or beyond the schedule's makespan change nothing: the
//!   online run reproduces the no-failure static replay exactly (for the
//!   `Checkpoint` policy: whenever its per-checkpoint overhead is 0);
//! * crash time 0 under the `Absorb` policy is the adversarial special
//!   case: the online run reproduces the strict dead-from-start replay of
//!   `FaultScenario::procs` exactly;
//! * `Checkpoint` with `interval = ∞` never writes a checkpoint and
//!   degenerates to `ReReplicate` exactly — same replicas, same
//!   transfers, same times, zero overhead paid and zero work saved;
//! * `DetectionModel::PerProcessor` with one constant delay degenerates
//!   to `DetectionModel::Uniform` exactly (byte-identical `RunOutcome`:
//!   a single detection instant at which every survivor is
//!   repair-eligible);
//! * the streaming `simulate_many` aggregation reproduces the old
//!   collect-then-summarize path byte-for-byte, under any chunking or
//!   merge tree of the per-run outcomes (the `BatchAccumulator`'s sums
//!   are exact, so the merge is associative to the bit);
//! * **availability**: a transient scenario whose every repair is ∞ is
//!   permanent fail-stop — byte-identical `RunOutcome` under every
//!   policy and detection model, with zero rejoins (the reboot machine
//!   only ever acts through finite repair windows);
//! * **open dispatch**: every built-in policy runs byte-identically as
//!   the serializable enum and as an `Arc<dyn Policy>` trait object —
//!   the recovery redesign replaced the engine's enum match with the
//!   open action path without changing any built-in's behavior;
//! * **observers listen but never steer**: a run with a `NoopObserver`
//!   or a `TraceObserver` attached, or profiled by `run_profiled`, is the
//!   plain run byte-for-byte (and the profile times its phases);
//! * **network**: `Contention::Ideal` is the historical contention-free
//!   engine byte-for-byte under every policy and detection model (and
//!   charges nothing against the link model), while the contended
//!   sharing modes stay deterministic run-over-run.
//!
//! Plus the documented detection edge cases: a crash with no live
//! observer is never detected under `Gossip` (a rumor with nobody to
//! start it), while the timeout models fall back to the crashed
//! processor's own heartbeat instant.

use ftsched::prelude::*;
use ftsched::runtime::report;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_workload() -> impl Strategy<Value = (u64, usize, usize, usize, f64)> {
    // (seed, tasks, procs, eps, granularity)
    (
        any::<u64>(),
        10usize..40,
        4usize..10,
        0usize..3,
        prop_oneof![Just(0.4f64), Just(1.0), Just(3.0)],
    )
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

/// Per-task equality between an online outcome and a replay outcome.
fn same_results(out: &RunOutcome, rep: &ReplayOutcome) -> Result<(), String> {
    if out.completed() != rep.completed() {
        return Err(format!(
            "completion mismatch: online {} vs replay {}",
            out.completed(),
            rep.completed()
        ));
    }
    for (t, f) in out.first_finish.iter().enumerate() {
        let rf = rep.replica_finish[t]
            .iter()
            .flatten()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        match f {
            Some(f) if (f - rf).abs() > 1e-9 => {
                return Err(format!("task {t}: online {f} vs replay {rf}"));
            }
            None if rf.is_finite() => {
                return Err(format!("task {t}: online missing, replay {rf}"));
            }
            _ => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash times ≥ the full makespan reproduce the no-failure replay
    /// exactly, under every scheduler and recovery policy.
    #[test]
    fn crashes_beyond_makespan_change_nothing(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        offset in 0.0f64..100.0,
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        for sched in [
            caft(&inst, eps, CommModel::OnePort, seed),
            ftsa(&inst, eps, CommModel::OnePort, seed),
        ] {
            let after = sched.full_makespan() + offset;
            let crashes: Vec<_> = inst.platform.procs().map(|p| (p, after)).collect();
            let scenario = FaultScenario::timed(&crashes);
            let rep = replay(&inst, &sched, &FaultScenario::none());
            for policy in RecoveryPolicy::ALL {
                let out = Simulation::of(&inst, &sched).policy(policy).run(&scenario);
                if let Err(e) = same_results(&out, &rep) {
                    prop_assert!(false, "{policy}: {e}");
                }
                prop_assert_eq!(out.recovery_replicas, 0);
            }
        }
    }

    /// Crash time 0 under `Absorb` reproduces the adversarial
    /// dead-from-start strict replay exactly.
    #[test]
    fn crash_at_zero_matches_adversarial_replay(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        k in 1usize..3,
    ) {
        let eps = eps.min(procs - 1);
        let k = k.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let scenario = FaultScenario::random(procs, k, &mut rng);
        prop_assert!(scenario.is_static());
        for sched in [
            caft(&inst, eps, CommModel::OnePort, seed),
            ftsa(&inst, eps, CommModel::OnePort, seed),
        ] {
            let out = Simulation::of(&inst, &sched)
                .policy(RecoveryPolicy::Absorb)
                .run(&scenario);
            let rep = replay(&inst, &sched, &scenario);
            if let Err(e) = same_results(&out, &rep) {
                prop_assert!(false, "{e}");
            }
        }
    }

    /// Online latency of a completed undisturbed-or-disturbed run never
    /// beats the physics: it is at least the biggest single-task cost and,
    /// when no crash happens before the makespan, exactly the nominal.
    #[test]
    fn timed_draws_respect_nominal((seed, tasks, procs, eps, gran) in arb_workload()) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let scenario = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Weibull { shape: 1.5, scale: sched.latency() * 3.0 },
            &mut rng,
        );
        let out = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::Absorb)
            .run(&scenario);
        let undisturbed = scenario
            .earliest_crash()
            .is_none_or(|t| t >= sched.full_makespan());
        if undisturbed {
            prop_assert!(out.completed());
            let lat = out.latency().unwrap();
            prop_assert!((lat - sched.latency()).abs() < 1e-9);
        }
        if let Some(lat) = out.latency() {
            let rpt = report(&inst, &sched, &out);
            prop_assert!(rpt.latency == lat);
            prop_assert!(lat > 0.0 && lat.is_finite());
        }
    }

    /// The third pinned identity: `Checkpoint` with `interval = ∞` is
    /// `ReReplicate` under any timed scenario — byte-identical outcomes,
    /// nothing paid, nothing saved.
    #[test]
    fn checkpoint_interval_infinity_is_re_replicate(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        overhead in 0.0f64..2.0,
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let scenario = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() * 1.5 },
            &mut rng,
        );
        let sim = |policy| {
            Simulation::of(&inst, &sched)
                .policy(policy)
                .detection(DetectionModel::uniform(0.5))
                .seed(1)
                .run(&scenario)
        };
        let ck = sim(RecoveryPolicy::checkpoint(f64::INFINITY, overhead));
        let rr = sim(RecoveryPolicy::ReReplicate);
        prop_assert_eq!(
            serde_json::to_string(&ck).unwrap(),
            serde_json::to_string(&rr).unwrap()
        );
        prop_assert_eq!(ck.checkpoint_overhead, 0.0);
        prop_assert_eq!(ck.work_saved, 0.0);
    }

    /// The crash-beyond-makespan identity extends to `Checkpoint` when the
    /// per-checkpoint overhead is 0 (the failure-free timeline is then
    /// untouched at any interval).
    #[test]
    fn free_checkpoints_beyond_makespan_change_nothing(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        interval in 0.5f64..20.0,
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let after = sched.full_makespan();
        let crashes: Vec<_> = inst.platform.procs().map(|p| (p, after)).collect();
        let scenario = FaultScenario::timed(&crashes);
        let out = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::checkpoint(interval, 0.0))
            .run(&scenario);
        let rep = replay(&inst, &sched, &FaultScenario::none());
        if let Err(e) = same_results(&out, &rep) {
            prop_assert!(false, "{e}");
        }
        prop_assert_eq!(out.recovery_replicas, 0);
        prop_assert_eq!(out.work_saved, 0.0);
    }

    /// Recovery policies never complete fewer tasks than Absorb on the
    /// same timed scenario (they only ever add replicas).
    #[test]
    fn recovery_dominates_absorb((seed, tasks, procs, eps, gran) in arb_workload()) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let scenario = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() * 2.0 },
            &mut rng,
        );
        let count = |policy| {
            Simulation::of(&inst, &sched)
                .policy(policy)
                .detection(DetectionModel::uniform(0.5))
                .seed(1)
                .run(&scenario)
                .first_finish
                .iter()
                .flatten()
                .count()
        };
        let absorb = count(RecoveryPolicy::Absorb);
        prop_assert!(count(RecoveryPolicy::ReReplicate) >= absorb);
        prop_assert!(count(RecoveryPolicy::Reschedule) >= absorb);
    }

    /// The open-policy identity: every built-in policy produces a
    /// byte-identical `RunOutcome` whether dispatched as the
    /// serializable enum (`.policy(…)`) or as a trait object through the
    /// open action path (`.policy_impl(Arc::new(…))`), across detection
    /// models and timed scenarios — the enum match was replaced by
    /// `Policy` trait dispatch without changing a single bit of any
    /// built-in's behavior.
    #[test]
    fn builtins_are_identical_through_trait_dispatch(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        delay in 0.1f64..2.0,
    ) {
        use std::sync::Arc;
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15);
        let scenario = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() * 1.5 },
            &mut rng,
        );
        let policies = RecoveryPolicy::ALL.into_iter().chain([
            RecoveryPolicy::checkpoint(inst.mean_task_cost() * 0.5, 0.05),
            RecoveryPolicy::adaptive_checkpoint(sched.latency() * 1.5, 0.05),
        ]);
        for policy in policies {
            for detection in [
                DetectionModel::uniform(delay),
                DetectionModel::per_processor_spread(procs, delay),
                DetectionModel::Gossip { period: delay, fanout: 2, seed },
            ] {
                let base = Simulation::of(&inst, &sched)
                    .detection(detection.clone())
                    .seed(1);
                let via_enum = base.clone().policy(policy).run(&scenario);
                let via_trait = base
                    .clone()
                    .policy(policy) // keeps cfg.policy equal for serde
                    .policy_impl(Arc::new(policy))
                    .run(&scenario);
                prop_assert_eq!(
                    serde_json::to_string(&via_enum).unwrap(),
                    serde_json::to_string(&via_trait).unwrap(),
                    "{} under {}: trait dispatch drifted from the enum path",
                    policy, detection
                );
            }
        }
    }

    /// The eighth pinned identity (observability): observers listen but
    /// never steer. A `NoopObserver` or a `TraceObserver` attached with
    /// `run_observed`, or a phase profile attached by `run_profiled`,
    /// reproduces the plain run byte-for-byte.
    #[test]
    fn observers_listen_but_never_steer(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        delay in 0.1f64..2.0,
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E);
        let scenario = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() * 1.5 },
            &mut rng,
        );
        for policy in RecoveryPolicy::ALL {
            let base = Simulation::of(&inst, &sched)
                .policy(policy)
                .detection(DetectionModel::uniform(delay))
                .seed(1);

            // No-op observer ≡ the plain run.
            let plain = base.run(&scenario);
            let mut noop = NoopObserver;
            let observed = base.run_observed(&scenario, &mut noop);
            prop_assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&observed).unwrap(),
                "{}: a no-op observer changed the run", policy
            );

            // A buffering observer ≡ the plain run too.
            let mut tracer = TraceObserver::new();
            let traced_out = base.run_observed(&scenario, &mut tracer);
            prop_assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&traced_out).unwrap(),
                "{}: tracing changed the run", policy
            );

            // A phase profile only measures, and it sees the run.
            let (profiled, profile) = base.run_profiled(&scenario);
            prop_assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&profiled).unwrap(),
                "{}: profiling changed the run", policy
            );
            prop_assert!(
                profile.phases.iter().any(|s| s.calls > 0),
                "{}: no phase was timed", policy
            );
        }
    }

    /// The fourth pinned identity: `PerProcessor` detection with one
    /// constant delay is `Uniform` with that delay — byte-identical
    /// `RunOutcome` under every policy (a single detection instant per
    /// crash at which every survivor is repair-eligible).
    #[test]
    fn constant_per_processor_detection_is_uniform(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        delay in 0.0f64..3.0,
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD37EC7);
        let scenario = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() * 1.5 },
            &mut rng,
        );
        let policies = RecoveryPolicy::ALL
            .into_iter()
            .chain([RecoveryPolicy::checkpoint(inst.mean_task_cost() * 0.5, 0.05)]);
        for policy in policies {
            let run = |detection: DetectionModel| {
                Simulation::of(&inst, &sched)
                    .policy(policy)
                    .detection(detection)
                    .seed(1)
                    .run(&scenario)
            };
            let pp = run(DetectionModel::PerProcessor(vec![delay; procs]));
            let uni = run(DetectionModel::Uniform(delay));
            prop_assert_eq!(
                serde_json::to_string(&pp).unwrap(),
                serde_json::to_string(&uni).unwrap(),
                "{} under constant per-processor delays must be uniform", policy
            );
        }
    }

    /// The sixth pinned identity (availability): `repair = ∞` is
    /// permanent fail-stop — a transient scenario whose every repair is
    /// infinite runs today's permanent-crash engine byte-for-byte, under
    /// every recovery policy and detection model, and the reboot machine
    /// never fires (zero rejoins).
    #[test]
    fn repair_infinity_is_permanent_fail_stop(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        delay in 0.1f64..2.0,
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x12EB007);
        let permanent = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() * 1.5 },
            &mut rng,
        );
        let forever: Vec<_> = permanent
            .crashes()
            .map(|(p, t)| (p, t, f64::INFINITY))
            .collect();
        let transient = FaultScenario::transient(&forever);
        prop_assert!(!transient.has_transients());
        let policies = RecoveryPolicy::ALL
            .into_iter()
            .chain([RecoveryPolicy::checkpoint(inst.mean_task_cost() * 0.5, 0.05)]);
        for policy in policies {
            for detection in [
                DetectionModel::uniform(delay),
                DetectionModel::per_processor_spread(procs, delay),
                DetectionModel::Gossip { period: delay, fanout: 2, seed },
            ] {
                let run = |scenario: &FaultScenario| {
                    Simulation::of(&inst, &sched)
                        .policy(policy)
                        .detection(detection.clone())
                        .seed(1)
                        .run(scenario)
                };
                let perm = run(&permanent);
                let tra = run(&transient);
                prop_assert_eq!(
                    serde_json::to_string(&perm).unwrap(),
                    serde_json::to_string(&tra).unwrap(),
                    "{} under {}: repair = ∞ must be permanent fail-stop",
                    policy, detection
                );
                prop_assert_eq!(tra.rejoins, 0);
            }
        }
    }

    /// The ninth pinned identity (network): `Contention::Ideal` IS the
    /// historical contention-free engine. An explicit
    /// `.contention(Ideal)` run is byte-identical to the default config
    /// under every recovery policy and detection model, and charges
    /// nothing against the network (`net_transfers == 0`). The contended
    /// modes stay fully deterministic — the same scenario re-run under
    /// `Exclusive` or `FairShare` reproduces itself byte-for-byte — and
    /// only ever add delay, never remove it.
    #[test]
    fn ideal_contention_is_the_contention_free_engine(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        delay in 0.1f64..2.0,
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2E7);
        let scenario = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() * 1.5 },
            &mut rng,
        );
        let policies = RecoveryPolicy::ALL
            .into_iter()
            .chain([RecoveryPolicy::checkpoint(inst.mean_task_cost() * 0.5, 0.05)]);
        for policy in policies {
            for detection in [
                DetectionModel::uniform(delay),
                DetectionModel::per_processor_spread(procs, delay),
                DetectionModel::Gossip { period: delay, fanout: 2, seed },
            ] {
                let base = Simulation::of(&inst, &sched)
                    .policy(policy)
                    .detection(detection.clone())
                    .seed(1);
                let implicit = base.clone().run(&scenario);
                let ideal = base.clone().contention(Contention::Ideal).run(&scenario);
                prop_assert_eq!(
                    serde_json::to_string(&implicit).unwrap(),
                    serde_json::to_string(&ideal).unwrap(),
                    "{} under {}: explicit Ideal drifted from the default engine",
                    policy, detection
                );
                prop_assert_eq!(ideal.net_transfers, 0);
                prop_assert_eq!(ideal.net_contended, 0);
                prop_assert_eq!(ideal.net_delay, 0.0);
            }
            for mode in [Contention::Exclusive, Contention::FairShare] {
                let run = || {
                    Simulation::of(&inst, &sched)
                        .policy(policy)
                        .detection(DetectionModel::uniform(delay))
                        .seed(1)
                        .contention(mode)
                        .run(&scenario)
                };
                let a = run();
                let b = run();
                prop_assert_eq!(
                    serde_json::to_string(&a).unwrap(),
                    serde_json::to_string(&b).unwrap(),
                    "{} under {}: contended engine must be deterministic",
                    policy, mode.name()
                );
                prop_assert!(a.net_delay >= 0.0, "{}: negative net delay", policy);
                prop_assert!(
                    a.net_contended <= a.net_transfers,
                    "{}: more contended transfers than transfers", policy
                );
            }
        }
    }

    /// Pin for the pooled one-shot path: `Simulation::run` borrows its
    /// scratch arena from a process-wide pool, and pooling must be
    /// invisible — repeated calls (first cold, then warm reuse of a
    /// dirty arena) stay byte-identical, and both match a dedicated warm
    /// [`Executor`] on the same scenario, under Ideal and contended
    /// configs alike.
    #[test]
    fn pooled_one_shot_execute_is_byte_stable(
        (seed, tasks, procs, eps, gran) in arb_workload(),
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
        let scenario = ftsched::runtime::draw_scenario(
            procs,
            &LifetimeDist::Exponential { mean: sched.latency() * 1.5 },
            &mut rng,
        );
        for contention in [Contention::Ideal, Contention::FairShare] {
            let sim = Simulation::of(&inst, &sched)
                .policy(RecoveryPolicy::ReReplicate)
                .contention(contention);
            let first = sim.run(&scenario);
            let first_bytes = serde_json::to_string(&first).unwrap();
            for round in 0..2 {
                let again = sim.run(&scenario);
                prop_assert_eq!(
                    &first_bytes,
                    &serde_json::to_string(&again).unwrap(),
                    "{}: pooled one-shot round {} drifted",
                    contention.name(), round
                );
            }
            let mut exec = Executor::new(&inst, &sched, sim.config());
            exec.run(&scenario);
            let warm = exec.run(&scenario);
            prop_assert_eq!(
                &first_bytes,
                &serde_json::to_string(warm).unwrap(),
                "{}: pooled one-shot run drifted from a warm Executor",
                contention.name()
            );
        }
    }

    /// The fifth pinned identity: the streaming `simulate_many`
    /// aggregation is byte-identical to the old collect-then-summarize
    /// path — and to any other partition of the runs into mergeable
    /// accumulators, which is what makes the summary independent of the
    /// rayon thread count.
    #[test]
    fn streaming_batches_match_collect_then_summarize(
        (seed, tasks, procs, eps, gran) in arb_workload(),
        runs in 16usize..64,
        chunk in 1usize..13,
    ) {
        let eps = eps.min(procs - 1);
        let inst = make_instance(seed, tasks, procs, gran);
        let sched = caft(&inst, eps, CommModel::OnePort, seed);
        let lifetime = LifetimeDist::Exponential { mean: sched.latency() };
        let sim = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::ReReplicate)
            .detection(DetectionModel::uniform(0.5))
            .seed(seed);
        let streamed = sim.monte_carlo(runs, lifetime.clone());

        // The old path: collect every outcome, then summarize in run
        // order through one accumulator.
        let mc = MonteCarloConfig {
            runs,
            lifetime,
            failure: FailureKind::Permanent,
            engine: sim.config().clone(),
            seed,
        };
        let outcomes: Vec<_> = (0..runs)
            .map(|i| {
                let scenario = mc.scenario_of_run(procs, i);
                (scenario.earliest_crash(), sim.run(&scenario))
            })
            .collect();
        let mut seq = BatchAccumulator::new(sched.latency());
        for (earliest, out) in &outcomes {
            seq.record(*earliest, out);
        }
        let collected = seq.finish(RecoveryPolicy::ReReplicate);
        prop_assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&collected).unwrap(),
            "streaming != collect-then-summarize"
        );

        // An adversarial re-chunking (arbitrary chunk size, merged right
        // to left) must still agree byte-for-byte.
        let mut parts: Vec<BatchAccumulator> = outcomes
            .chunks(chunk)
            .map(|c| {
                let mut acc = BatchAccumulator::new(sched.latency());
                for (earliest, out) in c {
                    acc.record(*earliest, out);
                }
                acc
            })
            .collect();
        parts.reverse();
        let merged = parts
            .into_iter()
            .fold(BatchAccumulator::new(sched.latency()), BatchAccumulator::merge)
            .finish(RecoveryPolicy::ReReplicate);
        prop_assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&merged).unwrap(),
            "merge tree changed the summary"
        );
    }
}

/// The documented gossip edge case, pinned: a crash with no live observer
/// is **never** detected under `Gossip` (an epidemic needs a first
/// witness), while the timeout models still detect every crash through
/// the crashed processor's own heartbeat instant. Exercised both on a
/// multi-processor platform whose other processors are already dead and
/// on the single-processor platform.
#[test]
fn gossip_crash_with_no_live_observer_is_never_detected() {
    let mut rng = StdRng::seed_from_u64(4);
    let graph = random_layered(&RandomDagParams::default().with_tasks(24), &mut rng);
    let inst = random_instance(
        graph,
        &PlatformParams::default().with_procs(4),
        1.0,
        &mut rng,
    );
    let sched = caft(&inst, 1, CommModel::OnePort, 4);
    // Everyone except ProcId(0) dies at t = 0; ProcId(0) dies mid-run
    // with nobody left to notice.
    let mut crashes = vec![(ProcId(0), sched.latency() * 0.5)];
    for p in 1..4 {
        crashes.push((ProcId(p as u32), 0.0));
    }
    let scenario = FaultScenario::timed(&crashes);
    let run = |detection: DetectionModel| {
        Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::ReReplicate)
            .detection(detection)
            .seed(0)
            .run(&scenario)
    };
    let gossip = run(DetectionModel::Gossip {
        period: 0.5,
        fanout: 2,
        seed: 9,
    });
    assert_eq!(
        gossip.detections, 3,
        "the t = 0 crashes have a witness; the last crash has none and \
         must never be detected under gossip"
    );
    let uniform = run(DetectionModel::uniform(0.5));
    let per_proc = run(DetectionModel::per_processor_spread(4, 0.5));
    assert_eq!(uniform.detections, 4, "self-timeout fallback must fire");
    assert_eq!(per_proc.detections, 4, "self-timeout fallback must fire");
}

/// The single-processor half of the same edge case: the lone processor's
/// crash is still detected by the timeout models (its own heartbeat
/// instant — there is no other observer), and never under gossip.
#[test]
fn single_processor_self_timeout_fallback_still_fires() {
    let mut rng = StdRng::seed_from_u64(2);
    let graph = random_layered(&RandomDagParams::default().with_tasks(12), &mut rng);
    let inst = random_instance(
        graph,
        &PlatformParams::default().with_procs(1),
        1.0,
        &mut rng,
    );
    let sched = caft(&inst, 0, CommModel::OnePort, 2);
    let scenario = FaultScenario::timed(&[(ProcId(0), sched.latency() * 0.5)]);
    let run = |detection: DetectionModel| {
        Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::ReReplicate)
            .detection(detection)
            .seed(0)
            .run(&scenario)
    };
    for detection in [
        DetectionModel::uniform(0.5),
        DetectionModel::PerProcessor(vec![0.5]),
    ] {
        let out = run(detection);
        assert_eq!(out.detections, 1, "the lone crash must be detected");
        assert!(!out.completed());
        assert!(out.unrecoverable > 0, "lost tasks must be flagged");
    }
    let gossip = run(DetectionModel::Gossip {
        period: 0.5,
        fanout: 1,
        seed: 0,
    });
    assert_eq!(gossip.detections, 0, "no observer, no rumor, no detection");
}
