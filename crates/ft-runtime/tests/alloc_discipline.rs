//! Allocation-discipline pin for the zero-alloc event core (DESIGN.md
//! §15): after warm-up, the steady-state hot loop — a warm
//! [`Executor`] running failure-free scenarios, or scenarios with
//! crashes and reboots under any detection model and any policy but
//! `Reschedule` — performs **zero** heap allocations per run, and batch
//! chunks through a warm [`ChunkedBatch`] allocate sublinearly in the
//! number of runs (the only allocations left are rayon's per-chunk
//! bookkeeping). A one-shot [`Simulation::run`] allocates a
//! constant number of times, whatever the instance size and whichever
//! instance the pooled arena served before, and CAFT — static and on a
//! sub-DAG — allocates a small constant per task. Allocation counts are
//! deterministic, so these gates hold on any machine.
//!
//! The counting allocator tallies process-wide, so this binary contains
//! exactly one `#[test]` — a second test thread would pollute the
//! counter.

use alloc_counter::{allocation_count, CountingAlloc};
use ft_algos::{caft, caft_on_subdag, CaftOptions, CommModel, SubDagSpec};
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_graph::topological_order;
use ft_platform::{random_instance, Instance, PlatformParams, ProcId, Topology};
use ft_runtime::{
    ChunkedBatch, Contention, DetectionModel, EngineConfig, Executor, FailureKind, LifetimeDist,
    MonteCarloConfig, RecoveryPolicy, Simulation,
};
use ft_sim::FaultScenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations `f` performs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

/// A `tasks`-task instance of the benchmark's crash-drill shape: a Beneš
/// B(3) platform (m = 8) at granularity 0.2.
fn drill_instance(seed: u64, tasks: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_layered(&RandomDagParams::default().with_tasks(tasks), &mut rng);
    let params = PlatformParams::default()
        .with_procs(8)
        .with_topology(Topology::Benes { log2_m: 3 });
    random_instance(g, &params, 0.2, &mut rng)
}

#[test]
fn steady_state_hot_loop_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
    let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
    let sched = caft(&inst, 1, CommModel::OnePort, 5);
    let cfg = EngineConfig::with_policy(RecoveryPolicy::checkpoint(2.0, 0.05));

    // Part 1: a warm Executor on failure-free scenarios allocates
    // nothing at all — the scratch arena owns every buffer, the op
    // template is cloned into existing capacity, and the outcome's
    // vectors are recycled run-over-run.
    let none = FaultScenario::none();
    let mut exec = Executor::new(&inst, &sched, &cfg);
    for _ in 0..3 {
        assert!(exec.run(&none).completed(), "warm-up run must complete");
    }
    let before = allocation_count();
    for _ in 0..100 {
        exec.run(&none);
    }
    let during = allocation_count() - before;
    assert_eq!(
        during, 0,
        "steady-state Executor runs allocated {during} times over 100 runs"
    );

    // Part 1b: the contended engine obeys the same discipline. Charging
    // every static transfer through the link model (occupancy tables,
    // staged plans, route walks) reuses the `NetworkState` buffers the
    // scratch arena carries run-over-run — a warm contended Executor
    // allocates nothing either.
    let contended_cfg = EngineConfig {
        contention: Contention::FairShare,
        ..EngineConfig::with_policy(RecoveryPolicy::ReReplicate)
    };
    let mut exec = Executor::new(&inst, &sched, &contended_cfg);
    for _ in 0..3 {
        assert!(
            exec.run(&none).completed(),
            "contended warm-up must complete"
        );
    }
    let before = allocation_count();
    for _ in 0..100 {
        exec.run(&none);
    }
    let during = allocation_count() - before;
    assert_eq!(
        during, 0,
        "steady-state contended runs allocated {during} times over 100 runs"
    );

    // Part 1c: runs that crash and reboot. Every availability event and
    // what each processor knows of it live in the arena's event table,
    // written in place by the detection model, so a warm Absorb run
    // allocates nothing under any detection model, contended or not.
    // Part 1d: the same runs under the repairing policies. Repair ops are
    // written over the op pool's recycled slots, and every list a spawn,
    // a pre-stage or a resume reads is an arena buffer, so a warm run
    // that re-replicates, pre-stages onto a rejoined processor or resumes
    // from a checkpoint allocates nothing either.
    let nominal = sched.latency();
    let m = inst.num_procs();
    let scenarios = [
        FaultScenario::timed(&[(ProcId(2), 0.4 * nominal)]),
        FaultScenario::timed(&[(ProcId(2), 0.3 * nominal), (ProcId(5), 0.6 * nominal)]),
        FaultScenario::transient(&[
            (ProcId(2), 0.3 * nominal, 0.2 * nominal),
            (ProcId(5), 0.6 * nominal, f64::INFINITY),
        ]),
    ];
    let detections = [
        DetectionModel::uniform(1.0),
        DetectionModel::per_processor_spread(m, 1.0),
        DetectionModel::Gossip {
            period: 0.5,
            fanout: 2,
            seed: 3,
        },
    ];
    let policies = [
        RecoveryPolicy::Absorb,
        RecoveryPolicy::ReReplicate,
        RecoveryPolicy::WarmSpare,
        RecoveryPolicy::checkpoint(2.0, 0.05),
    ];
    for policy in policies {
        for detection in &detections {
            for contention in [Contention::Ideal, Contention::FairShare] {
                let crashy_cfg = EngineConfig {
                    detection: detection.clone(),
                    contention,
                    ..EngineConfig::with_policy(policy)
                };
                let mut exec = Executor::new(&inst, &sched, &crashy_cfg);
                for _ in 0..3 {
                    for scenario in &scenarios {
                        exec.run(scenario);
                    }
                }
                for (i, scenario) in scenarios.iter().enumerate() {
                    let before = allocation_count();
                    for _ in 0..100 {
                        exec.run(scenario);
                    }
                    let during = allocation_count() - before;
                    assert_eq!(
                        during,
                        0,
                        "warm {} runs ({} detection, {contention:?}) on scenario {i} \
                         allocated {during} times over 100 runs",
                        policy.label(),
                        detection.name()
                    );
                }
            }
        }
    }

    // Part 2: batch chunks through warm pooled arenas. The engine side
    // is allocation-free per run, so chunk cost must not scale with run
    // count — only the rayon driver's per-chunk bookkeeping (its
    // materialized item list and thread spawns) remains, which grows
    // O(log n) via Vec doubling, not O(n). A 10× larger chunk staying
    // within a small constant of the smaller one pins exactly that.
    let mc = MonteCarloConfig {
        runs: 4200,
        lifetime: LifetimeDist::Never,
        failure: FailureKind::Permanent,
        engine: cfg,
        seed: 9,
    };
    let mut chunked = ChunkedBatch::new(&inst, &sched, &mc, &mc.engine.policy);
    assert_eq!(chunked.run_chunk(1000), 1000, "warm-up chunk");
    let before = allocation_count();
    assert_eq!(chunked.run_chunk(200), 200);
    let small = allocation_count() - before;
    let before = allocation_count();
    assert_eq!(chunked.run_chunk(2000), 2000);
    let big = allocation_count() - before;
    assert!(
        big <= small + 64,
        "a 10x chunk allocated {big} vs {small} for the small chunk — \
         per-run allocations crept back into the hot loop"
    );

    // Part 3: a one-shot run recycles the pooled arena's ops in place,
    // so once warm it allocates the same number of times on a 100-task
    // instance as on a 25-task one — failure-free, and with a processor
    // dead at t = 0, which takes the full op-graph build. (Only the
    // throwaway plan's few per-run tables remain.)
    let mut oneshot = Vec::new();
    for tasks in [25, 100] {
        let mut rng = StdRng::seed_from_u64(6);
        let g = random_layered(&RandomDagParams::default().with_tasks(tasks), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let sched = caft(&inst, 1, CommModel::OnePort, 6);
        let sim = Simulation::of(&inst, &sched);
        for scenario in [none.clone(), FaultScenario::timed(&[(ProcId(0), 0.0)])] {
            for _ in 0..3 {
                sim.run(&scenario);
            }
            oneshot.push(allocations(|| sim.run(&scenario)).0);
        }
    }
    let (small, big) = oneshot.split_at(2);
    for (scenario, (small, big)) in ["failure-free", "crash-at-0"]
        .iter()
        .zip(small.iter().zip(big))
    {
        assert!(
            big.abs_diff(*small) <= 8,
            "{scenario} one-shot runs allocated {small} times on 25 tasks and {big} on 100 — \
             the op-graph build allocates per op again"
        );
    }
    // The pooled arena keeps every op slot it ever held: one-shot Absorb
    // runs with a mid-run crash that alternate between two crash-drill
    // instances of different op counts allocate as often as a
    // failure-free one-shot run, instead of re-growing the larger op
    // graph each time the smaller one ran before it.
    let drills: Vec<_> = [7, 8]
        .into_iter()
        .map(|seed| {
            let inst = drill_instance(seed, 100);
            let sched = caft(&inst, 2, CommModel::OnePort, seed);
            (inst, sched)
        })
        .collect();
    let op_count =
        |k: usize| drills[k].1.replicas.iter().flatten().count() + drills[k].1.messages.len();
    assert_ne!(
        op_count(0),
        op_count(1),
        "the two drills must differ in size"
    );
    let sims: Vec<_> = drills
        .iter()
        .map(|(inst, sched)| Simulation::of(inst, sched))
        .collect();
    let crashes: Vec<_> = drills
        .iter()
        .map(|(_, sched)| FaultScenario::timed(&[(ProcId(1), 0.4 * sched.latency())]))
        .collect();
    for _ in 0..3 {
        sims[0].run(&none);
    }
    let (failure_free, _) = allocations(|| sims[0].run(&none));
    for _ in 0..3 {
        for k in [0, 1] {
            sims[k].run(&crashes[k]);
        }
    }
    for k in [0, 1, 0, 1] {
        let (n, _) = allocations(|| sims[k].run(&crashes[k]));
        assert!(
            n.abs_diff(failure_free) <= 8,
            "a one-shot drill run after the other drill allocated {n} times against \
             {failure_free} for a failure-free one-shot run — the op pool was cut and re-grown"
        );
    }

    // Part 4: CAFT plans into per-run buffers, so a static schedule and a
    // sub-DAG repair each allocate a small constant per task: the output
    // schedule's replica lists and the run's own tables.
    let tasks = 100;
    let inst = drill_instance(3, tasks);
    let (n, sched) = allocations(|| caft(&inst, 2, CommModel::OnePort, 3));
    let limit = 4 * tasks as u64;
    assert!(
        n <= limit,
        "caft allocated {n} times on {tasks} tasks (limit {limit})"
    );
    // The crash-drill repair: everything without a replica finished by
    // half the latency is the remnant, the other tasks' surviving copies
    // off the lost processor are its frontier.
    let cut = 0.5 * sched.latency();
    let lost = ProcId(1);
    let g = &inst.graph;
    let mut remnant = vec![false; tasks];
    for t in topological_order(g) {
        remnant[t.index()] = g.predecessors(t).any(|p| remnant[p.index()])
            || sched.replicas_of(t).iter().all(|r| r.finish > cut);
    }
    let sources: Vec<Vec<(ProcId, f64)>> = g
        .tasks()
        .map(|t| {
            let live = sched.replicas_of(t).iter().filter(|r| r.proc != lost);
            match remnant[t.index()] {
                true => Vec::new(),
                false => live.map(|r| (r.proc, r.finish)).collect(),
            }
        })
        .collect();
    let alive: Vec<ProcId> = inst.platform.procs().filter(|&p| p != lost).collect();
    let spec = SubDagSpec {
        remnant: &remnant,
        sources: &sources,
        alive: &alive,
        release: cut,
    };
    let opts = CaftOptions {
        eps: 2,
        ..CaftOptions::default()
    };
    let (n, out) = allocations(|| caft_on_subdag(&inst, &spec, &opts));
    assert!(out.unscheduled.is_empty(), "every remnant task is repaired");
    assert!(
        n <= limit,
        "caft_on_subdag allocated {n} times on {tasks} tasks (limit {limit})"
    );
}
