//! Phase-attribution benchmark of the online engine.
//!
//! Two cells compare the engine with and without the profiling
//! scaffolding on the standard two-crash paper-scale run:
//!
//! * `runtime/profile/run` — the plain engine (the baseline);
//! * `runtime/profile/run_profiled` — the same run through
//!   [`Simulation::run_profiled`]; the gap *is* the measurement overhead.
//!
//! The bench also aggregates a [`PhaseProfile`] over a batch of runs and
//! reports the per-phase wall-clock attribution
//! (op build / queue pop / completion drain / detection fan-out / policy
//! dispatch / action validation / spawn-replan). Set `PHASE_JSON=<path>` to dump the
//! aggregate as JSON; the committed attribution baseline lives in
//! `BENCH_phases.json` at the repo root, regenerated with
//!
//! ```text
//! PHASE_JSON=$PWD/BENCH_phases.json \
//!   cargo bench -p ft-bench --bench profile
//! ```
//!
//! (absolute path: cargo runs the bench binary with the package
//! directory, not the workspace root, as its cwd)
//!
//! The bench also pins the invariant that profiling only measures: the
//! profiled outcome is byte-identical to the plain one.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_algos::{caft, CommModel};
use ft_bench::paper_instance;
use ft_platform::ProcId;
use ft_runtime::{PhaseProfile, RecoveryPolicy, Simulation};
use ft_sim::FaultScenario;
use std::hint::black_box;

fn bench_profile(c: &mut Criterion) {
    let inst = paper_instance(6, 100, 10, 1.0);
    let sched = caft(&inst, 1, CommModel::OnePort, 0);
    let nominal = sched.latency();
    let scenario = FaultScenario::timed(&[(ProcId(2), nominal * 0.3), (ProcId(7), nominal * 0.6)]);
    let sim = Simulation::of(&inst, &sched).policy(RecoveryPolicy::ReReplicate);

    // Profiling only measures: the outcome is byte-identical either way.
    let plain = sim.run(&scenario);
    let (profiled, _) = sim.run_profiled(&scenario);
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&profiled).unwrap(),
        "run_profiled must not steer the run"
    );

    let mut group = c.benchmark_group("runtime/profile");
    group.bench_function("run", |b| b.iter(|| black_box(sim.run(&scenario))));
    group.bench_function("run_profiled", |b| {
        b.iter(|| black_box(sim.run_profiled(&scenario)))
    });
    group.finish();

    // Attribution baseline: aggregate the per-phase wall clock over a
    // batch of identical runs so one-off scheduling noise averages out.
    let mut total = PhaseProfile::new();
    for _ in 0..100 {
        let (_, profile) = sim.run_profiled(&scenario);
        total.merge(&profile);
    }
    let json = serde_json::to_string_pretty(&total).unwrap();
    eprintln!("phase attribution over 100 runs:\n{json}");
    if let Ok(path) = std::env::var("PHASE_JSON") {
        std::fs::write(&path, json + "\n").expect("writing PHASE_JSON");
        eprintln!("phase attribution written to {path}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_profile
}
criterion_main!(benches);
