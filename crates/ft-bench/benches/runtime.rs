//! Benchmarks of the online failure-injection engine (`ft-runtime`):
//!
//! * `runtime/execute` — one online run per policy of the
//!   `RecoveryPolicy::ALL` registry on a paper-scale instance with two
//!   mid-execution crashes;
//! * `runtime/no-failure` — the engine on a failure-free scenario vs. the
//!   static replay it must reproduce. The `online engine` cell drives a
//!   warm [`Executor`] — the zero-alloc arena path every batch entry
//!   point uses — so it measures the steady-state event loop, not the
//!   per-run setup; `one-shot execute` (a one-shot `Simulation::run`)
//!   keeps the cold path honest and
//!   `static replay` is the floor;
//! * `runtime/grid-sweep` — one million failure-free runs sharded across
//!   an 8-cell policy grid via `simulate_grid`: all cells share one
//!   scratch-arena pool and one `StaticPlan` per distinct checkpoint
//!   table, so the
//!   cell measures pure steady-state engine throughput at sweep scale;
//! * `runtime/detection` — one `ReReplicate` run per detection model
//!   (uniform / per-processor / gossip) on the same crash pair;
//! * `runtime/transient` — the availability machine: the same crash pair
//!   under permanent fail-stop vs. transient failures (the first victim
//!   reboots mid-run and crashes again later — two extra availability
//!   events, rejoin-knowledge propagation, and the rejoined processor
//!   re-enlisted by the policy). The permanent cell doubles as the
//!   engine-loop cost baseline: its numbers track `runtime/execute`
//!   (within noise) because the per-epoch availability tables collapse
//!   to the historical single-crash path when every repair is ∞;
//! * `runtime/contended` — the link-contention surcharge: one crashy
//!   `ReReplicate` run per sharing model (ideal / exclusive store-and-
//!   forward / fair-share) on a Beneš B(3) interconnect. The ideal cell
//!   is the contention-free engine (and doubles as the cross-check that
//!   it never touches the link model); the deltas to the other cells are
//!   the per-transfer `NetworkState` charging cost;
//! * `serve/` — sweep-service job setup (ft-serve's artifact cache):
//!   cold resolution pays the full instance build plus CAFT scheduling,
//!   warm resolution is two LRU lookups — the fast path that lets a
//!   repeat job skip scheduling entirely;
//! * `runtime/simulate_many` — Monte-Carlo batch throughput (rayon), now
//!   including a 100 000-run case that only the streaming aggregator makes
//!   practical: the pre-redesign collect-then-summarize path materialized
//!   one `RunOutcome` per run (two 60-entry vectors ≈ 1.6 KB each ⇒
//!   ≈ 160 MB peak for 1e5 runs, gigabytes at 1e6), while the streaming
//!   `BatchAccumulator` fold keeps one ≈ 4.4 KB accumulator per rayon
//!   chunk (O(threads), independent of the run count).
//!
//! Each group also re-asserts the headline semantic property (recovery
//! completes at least as much as absorb; failure-free engine == replay) so
//! the bench doubles as a regression harness. Baseline numbers:
//! `BENCH_runtime.json` at the repo root (regenerate with
//! `BENCH_JSON=$PWD/BENCH_runtime.json cargo bench -p ft-bench --bench
//! runtime` — the path must be absolute: cargo runs the bench binary
//! with the package directory, not the workspace root, as its cwd).
//!
//! Treat ~±10% as the noise floor of these timings: the `static replay`
//! case, which no engine change touches, has moved ±11% between runs on
//! one machine, so a regression gate on them must sit above that band.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_algos::{caft, CommModel};
use ft_bench::paper_instance;
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_platform::{random_instance, PlatformParams, ProcId, Topology};
use ft_runtime::{
    simulate_grid, Contention, DetectionModel, EngineConfig, Executor, FailureKind, LifetimeDist,
    MonteCarloConfig, RecoveryPolicy, Simulation,
};
use ft_serve::{ArtifactCache, JobSpec};
use ft_sim::{replay, FaultScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_execute(c: &mut Criterion) {
    let inst = paper_instance(1, 100, 10, 1.0);
    let sched = caft(&inst, 1, CommModel::OnePort, 0);
    let nominal = sched.latency();
    let scenario = FaultScenario::timed(&[(ProcId(2), nominal * 0.3), (ProcId(7), nominal * 0.6)]);
    let mut group = c.benchmark_group("runtime/execute");
    let mut completions = Vec::new();
    for policy in RecoveryPolicy::ALL {
        let sim = Simulation::of(&inst, &sched).policy(policy);
        completions.push(sim.run(&scenario).completed());
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.name()),
            &sim,
            |b, sim| b.iter(|| black_box(sim.run(&scenario))),
        );
    }
    group.finish();
    assert!(
        completions[1] >= completions[0] && completions[2] >= completions[0],
        "recovery must not complete less than absorb"
    );
}

fn bench_no_failure_overhead(c: &mut Criterion) {
    let inst = paper_instance(2, 100, 10, 1.0);
    let sched = caft(&inst, 1, CommModel::OnePort, 0);
    let none = FaultScenario::none();
    let cfg = EngineConfig::default();
    let sim = Simulation::of(&inst, &sched);
    // Semantics check: engine == replay on the failure-free run.
    let online = sim.run(&none).latency().unwrap();
    let stat = replay(&inst, &sched, &none).latency().unwrap();
    assert!(
        (online - stat).abs() < 1e-9,
        "online {online} vs replay {stat}"
    );

    let mut group = c.benchmark_group("runtime/no-failure");
    // The warm path: one Executor, one pre-resolved static plan + op
    // template, zero heap allocations per run (pinned by the
    // `alloc_discipline` test). This is what `simulate_many`,
    // `ChunkedBatch` and `simulate_grid` pay per run.
    let mut exec = Executor::new(&inst, &sched, &cfg);
    assert!((exec.run(&none).latency().unwrap() - stat).abs() < 1e-9);
    group.bench_function("online engine", |b| {
        b.iter(|| black_box(exec.run(black_box(&none)).completed()))
    });
    // The cold path: plan resolution + arena growth on every call.
    group.bench_function("one-shot execute", |b| b.iter(|| black_box(sim.run(&none))));
    group.bench_function("static replay", |b| {
        b.iter(|| black_box(replay(&inst, &sched, &none)))
    });
    group.finish();
}

fn bench_grid_sweep(c: &mut Criterion) {
    let inst = paper_instance(7, 18, 4, 1.0);
    let sched = caft(&inst, 1, CommModel::OnePort, 0);
    // Eight failure-free cells x 125k runs = 1e6 engine runs per
    // iteration. Two distinct policies alternate; neither checkpoints,
    // so `simulate_grid` serves all eight cells from one StaticPlan;
    // `LifetimeDist::Never` keeps every run on the template fast path,
    // so this measures raw steady-state sweep throughput.
    let cells: Vec<MonteCarloConfig> = (0..8)
        .map(|i| MonteCarloConfig {
            runs: 125_000,
            lifetime: LifetimeDist::Never,
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(if i % 2 == 0 {
                RecoveryPolicy::Absorb
            } else {
                RecoveryPolicy::ReReplicate
            }),
            seed: i as u64,
        })
        .collect();
    // Semantics check: a failure-free sweep completes every run.
    let summaries = simulate_grid(&inst, &sched, &cells);
    assert_eq!(summaries.len(), cells.len());
    for s in &summaries {
        assert_eq!(s.runs, 125_000, "every cell runs to completion");
    }

    let mut group = c.benchmark_group("runtime/grid-sweep");
    group.sample_size(2);
    group.bench_function("1e6 runs", |b| {
        b.iter(|| black_box(simulate_grid(&inst, &sched, &cells)))
    });
    group.finish();
}

fn bench_detection_models(c: &mut Criterion) {
    let inst = paper_instance(4, 100, 10, 1.0);
    let sched = caft(&inst, 1, CommModel::OnePort, 0);
    let nominal = sched.latency();
    let scenario = FaultScenario::timed(&[(ProcId(1), nominal * 0.3), (ProcId(6), nominal * 0.6)]);
    let m = inst.num_procs();
    let models = [
        DetectionModel::uniform(1.0),
        DetectionModel::per_processor_spread(m, 1.0),
        DetectionModel::Gossip {
            period: 0.5,
            fanout: 2,
            seed: 0,
        },
    ];
    let mut group = c.benchmark_group("runtime/detection");
    for model in models {
        let sim = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::ReReplicate)
            .detection(model.clone());
        group.bench_with_input(BenchmarkId::from_parameter(model.name()), &sim, |b, sim| {
            b.iter(|| black_box(sim.run(&scenario)))
        });
    }
    group.finish();
}

fn bench_transient(c: &mut Criterion) {
    let inst = paper_instance(5, 100, 10, 1.0);
    let sched = caft(&inst, 1, CommModel::OnePort, 0);
    let nominal = sched.latency();
    // Permanent baseline vs. the same first crashes with the first victim
    // rebooting mid-run and relapsing later.
    let permanent = FaultScenario::timed(&[(ProcId(2), nominal * 0.3), (ProcId(7), nominal * 0.6)]);
    let transient = FaultScenario::transient(&[
        (ProcId(2), nominal * 0.3, nominal * 0.2),
        (ProcId(2), nominal * 0.8, f64::INFINITY),
        (ProcId(7), nominal * 0.6, nominal * 0.25),
    ]);
    let mut group = c.benchmark_group("runtime/transient");
    for policy in [RecoveryPolicy::ReReplicate, RecoveryPolicy::Reschedule] {
        let sim = Simulation::of(&inst, &sched).policy(policy);
        // Headline semantics: reboots only ever help.
        let perm_done = sim.run(&permanent).first_finish.iter().flatten().count();
        let tra = sim.run(&transient);
        assert!(tra.rejoins > 0, "{policy}: the reboots must be observed");
        assert!(
            tra.first_finish.iter().flatten().count() >= perm_done,
            "{policy}: rebooting processors must not complete less"
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("permanent-{}", policy.name())),
            &sim,
            |b, sim| b.iter(|| black_box(sim.run(&permanent))),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("transient-{}", policy.name())),
            &sim,
            |b, sim| b.iter(|| black_box(sim.run(&transient))),
        );
    }
    group.finish();
}

fn bench_contended(c: &mut Criterion) {
    // The contention surcharge on the engine hot loop: the same crash
    // pair replayed per link-sharing model on a Beneš B(3) interconnect,
    // where every repair transfer crosses 2r shared switch hops. `ideal`
    // is the historical contention-free engine (the `timed_model` suite
    // pins it byte-identical and it never touches the link model); the
    // contended cells price the per-transfer `NetworkState` charging on
    // top of it, on the same warm zero-alloc `Executor` path as
    // `runtime/no-failure/online engine`.
    let mut rng = StdRng::seed_from_u64(6);
    let graph = random_layered(&RandomDagParams::default().with_tasks(100), &mut rng);
    let params = PlatformParams::default()
        .with_procs(8)
        .with_topology(Topology::Benes { log2_m: 3 });
    let inst = random_instance(graph, &params, 1.0, &mut rng);
    let sched = caft(&inst, 1, CommModel::OnePort, 0);
    let nominal = sched.latency();
    let scenario = FaultScenario::timed(&[(ProcId(2), nominal * 0.3), (ProcId(5), nominal * 0.6)]);
    let mut group = c.benchmark_group("runtime/contended");
    for contention in [
        Contention::Ideal,
        Contention::Exclusive,
        Contention::FairShare,
    ] {
        let cfg = EngineConfig {
            contention,
            ..EngineConfig::with_policy(RecoveryPolicy::ReReplicate)
        };
        let mut exec = Executor::new(&inst, &sched, &cfg);
        // Semantics check: the ideal cell charges nothing against the
        // network; the contended cells account every transfer.
        let transfers = exec.run(&scenario).net_transfers;
        if contention == Contention::Ideal {
            assert_eq!(transfers, 0, "ideal runs must not touch the network");
        } else {
            assert!(transfers > 0, "{contention:?} must charge the links");
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(contention.name()),
            &scenario,
            |b, sc| b.iter(|| black_box(exec.run(black_box(sc)).completed())),
        );
    }
    group.finish();
}

fn bench_simulate_many(c: &mut Criterion) {
    let inst = paper_instance(3, 60, 10, 1.0);
    let sched = caft(&inst, 1, CommModel::OnePort, 0);
    let nominal = sched.latency();
    let lifetime = LifetimeDist::Exponential {
        mean: nominal * 4.0,
    };
    let mut group = c.benchmark_group("runtime/simulate_many");
    group.sample_size(10);
    for runs in [100usize, 500] {
        let sim = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::Reschedule)
            .seed(9);
        group.bench_with_input(BenchmarkId::from_parameter(runs), &sim, |b, sim| {
            b.iter(|| black_box(sim.monte_carlo(runs, lifetime.clone())))
        });
    }
    // The streaming-aggregator showcase: 1e5 runs under the cheapest
    // recovery policy. Peak allocation stays at O(threads) accumulators
    // (≈ 4.4 KB each) instead of 1e5 collected outcomes (≈ 160 MB); see
    // the module docs for the arithmetic.
    group.sample_size(2);
    let sim = Simulation::of(&inst, &sched)
        .policy(RecoveryPolicy::Absorb)
        .seed(9);
    group.bench_with_input(BenchmarkId::from_parameter(100_000usize), &sim, |b, sim| {
        b.iter(|| black_box(sim.monte_carlo(100_000, lifetime.clone())))
    });
    group.finish();
}

fn bench_serve_setup(c: &mut Criterion) {
    let workload = JobSpec::example("bench").workload;
    // Semantics check: the warm resolve reports both levels hit and
    // hands back the very artifacts the cold resolve built.
    let shared = ArtifactCache::default();
    let cold = shared.resolve(&workload);
    let warm = shared.resolve(&workload);
    assert!(!cold.outcome.schedule_hit && warm.outcome.schedule_hit);
    assert!(std::sync::Arc::ptr_eq(&cold.sched, &warm.sched));

    let mut group = c.benchmark_group("serve");
    group.bench_function("cold job setup", |b| {
        b.iter(|| black_box(ArtifactCache::default().resolve(&workload)))
    });
    group.bench_function("warm job setup", |b| {
        b.iter(|| black_box(shared.resolve(&workload)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_execute, bench_no_failure_overhead, bench_grid_sweep, bench_detection_models,
        bench_transient, bench_contended, bench_simulate_many, bench_serve_setup
}
criterion_main!(benches);
