//! `mc-sweep`: the degradation sweep, two workload specs × 30 cells, each
//! spec's table in one `simulate_grid` call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ft_experiments::{CellSpec, SweepGrid, WorkloadSpec};
use ft_model::FtSchedule;
use ft_net::NetworkModel;
use ft_platform::Instance;
use ft_runtime::{
    simulate_grid, simulate_many, BatchAccumulator, BatchSummary, Contention, Executor,
    MonteCarloConfig, RecoveryPolicy,
};

use crate::stats::{self, fingerprint, mix};
use crate::trace::{self, call, Tracer};
use crate::{fastest_setup, median_call_us, median_us, Args, EngineCounts, Report};

/// Timed passes over every table at `--seconds 10`.
const PASSES: usize = 5;
/// Fewest identical set-up builds timed for `setup_s`.
const SETUP_REPEATS: usize = 15;

/// Runs per cell of the paper-scale and the wide specs at `--seconds
/// 10`: 4 : 1 as in the degradation sweep's 400 : 100.
const PAPER_RUNS: usize = 20;
const WIDE_RUNS: usize = 5;

/// Seeded instances of each spec shape (their cost differs from seed to
/// seed; several per run keep a run's cost close to the average).
const INSTANCES: usize = 8;

/// One spec and its scenario grid.
struct Sweep {
    workload: WorkloadSpec,
    grid: SweepGrid,
}

/// `INSTANCES` paper-scale and `INSTANCES` wide specs, from the seed.
/// Runs per cell shrink in runs shorter than 10 s.
fn sweeps(args: &Args) -> Vec<Sweep> {
    let seed = args.seed;
    let grid = |runs: usize, salt: u64| SweepGrid {
        mttf_factors: vec![8.0, 4.0, 2.0],
        mttr_factors: vec![None, Some(0.25)],
        checkpoint_intervals: vec![0.25],
        checkpoint_overhead: 0.005,
        only_policy: None,
        runs: args.ops(runs).max(2),
        seed: mix(seed, salt),
        contention: Contention::Ideal,
        ..SweepGrid::default()
    };
    (0..INSTANCES as u64)
        .flat_map(|k| {
            [
                Sweep {
                    workload: WorkloadSpec {
                        tasks: 100,
                        procs: 10,
                        eps: 1,
                        granularity: 1.0,
                        seed: mix(seed, 10 + k),
                    },
                    grid: grid(PAPER_RUNS, 20 + k),
                },
                Sweep {
                    workload: WorkloadSpec {
                        tasks: 300,
                        procs: 16,
                        eps: 2,
                        granularity: 0.5,
                        seed: mix(seed, 30 + k),
                    },
                    grid: grid(WIDE_RUNS, 40 + k),
                },
            ]
        })
        .collect()
}

/// A built spec: instance, CAFT schedule and the 30 cells (every
/// roster policy but Reschedule).
struct Built {
    inst: Instance,
    sched: FtSchedule,
    cells: Vec<MonteCarloConfig>,
}

fn build(sweep: &Sweep, mut tr: Option<&mut Tracer>) -> Built {
    let inst = call(tr.as_deref_mut(), trace::PLATFORM, "build_instance", || {
        sweep.workload.build_instance()
    });
    let sched = call(tr, trace::ALGOS, "caft", || sweep.workload.schedule(&inst));
    let cells = sweep
        .grid
        .cells(inst.mean_task_cost(), sched.latency())
        .iter()
        .filter(|c| c.policy != RecoveryPolicy::Reschedule)
        .map(|c: &CellSpec| c.monte_carlo_config(&inst, &sched))
        .collect();
    Built { inst, sched, cells }
}

fn json(summary: &BatchSummary) -> String {
    serde_json::to_string(summary).expect("BatchSummary serializes")
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let sweeps = sweeps(args);
    let passes = args.repeats(PASSES);

    // Set-up: the deterministic build, timed several times.
    let mut aux = Tracer::default();
    let (setup_s, built) = fastest_setup(SETUP_REPEATS, 100, || {
        sweeps
            .iter()
            .map(|s| build(s, args.trace.then_some(&mut aux)))
            .collect::<Vec<Built>>()
    });
    let runs_per_pass: usize = built
        .iter()
        .map(|b| b.cells.iter().map(|c| c.runs).sum::<usize>())
        .sum();
    let cells_per_pass: usize = built.iter().map(|b| b.cells.len()).sum();

    // Untimed warm-up on shortened cells.
    for b in &built {
        let short: Vec<MonteCarloConfig> = b
            .cells
            .iter()
            .map(|c| MonteCarloConfig {
                runs: (c.runs / 10).max(2),
                ..c.clone()
            })
            .collect();
        std::hint::black_box(simulate_grid(&b.inst, &b.sched, &short));
    }

    // Timed phase: whole passes, one simulate_grid call per spec. A
    // spec's table time is its fastest pass: the host's speed drifts by
    // tens of percent over seconds, and the fastest of several identical
    // calls is what stays put. Right after its timer stops, each table is
    // fingerprinted cell by cell and dropped (checked below), so the
    // process's peak resident set is the program's.
    let mut served: Vec<Vec<Vec<u64>>> = vec![Vec::new(); built.len()];
    let mut best = vec![f64::INFINITY; built.len()];
    let mut timed = Duration::ZERO;
    for _ in 0..passes {
        for (k, b) in built.iter().enumerate() {
            let t = Instant::now();
            let table = simulate_grid(&b.inst, &b.sched, &b.cells);
            let took = t.elapsed();
            timed += took;
            best[k] = best[k].min(took.as_secs_f64());
            served[k].push(table.iter().map(|s| fingerprint(&json(s))).collect());
        }
    }
    report.set("peak_rss_mb", stats::peak_rss_mb());
    let pass: f64 = best.iter().sum();
    report.note(format!(
        "{passes} passes x {cells_per_pass} cells, {runs_per_pass} runs per pass; \
         timed {:.3} s, fastest tables sum to {pass:.3} s",
        timed.as_secs_f64()
    ));
    report.set("runs_per_s", runs_per_pass as f64 / pass);
    // One call runs a whole table, so a cell's latency is the table's
    // wall time shared out over its cells.
    let cell_ms = pass * 1e3 / cells_per_pass as f64;
    report.set("op_ms_p50", cell_ms);
    report.set("op_ms_tail", cell_ms);
    report.set("setup_s", setup_s);
    report.note("op_ms_p50 and op_ms_tail are the mean cell time (grid wall / cells)");

    // Checks: every cell equals a per-cell simulate_many, in every pass.
    let reference: Vec<Vec<String>> = built
        .iter()
        .map(|b| {
            b.cells
                .iter()
                .map(|c| json(&simulate_many(&b.inst, &b.sched, c)))
                .collect()
        })
        .collect();
    for (tables, want) in served.iter().zip(&reference) {
        for table in tables {
            for (got, want) in table.iter().zip(want) {
                report.attempted += 1;
                if *got != fingerprint(want) {
                    report.failed += 1;
                }
            }
        }
    }

    if args.trace {
        traced(
            args,
            &mut report,
            &sweeps,
            &built,
            &reference,
            &aux,
            timed / passes as u32,
        );
    }
    report
}

/// The traced pass: each cell replayed as `scenario_of_run` → warm
/// `Executor::run` → `BatchAccumulator::record` per run, then
/// `finish_labeled`, checked against the grid's bytes.
fn traced(
    args: &Args,
    report: &mut Report,
    sweeps: &[Sweep],
    built: &[Built],
    reference: &[Vec<String>],
    aux: &Tracer,
    untraced_pass: Duration,
) {
    let mut tr = Tracer::default();
    for s in sweeps {
        build(s, Some(&mut tr));
    }
    let mut counts = EngineCounts::default();
    let mut op = 0;
    for (b, refs) in built.iter().zip(reference) {
        for (mc, want) in b.cells.iter().zip(refs) {
            let span = tr.begin_op(op, "cell");
            let summary = replay_cell(&mut tr, &b.inst, &b.sched, mc, &mut counts);
            tr.end_op(span);
            if json(&summary) != *want {
                report.problem(format!("replay of cell {op} drifted from simulate_grid"));
            }
            op += 1;
        }
    }
    counts.report(report);
    let setup_ms = |name: &str| {
        let mut v = aux.durations_us(name);
        v.extend(tr.durations_us(name));
        stats::median(&mut v) / 1e3
    };
    report.set("ft-platform.instance_ms", setup_ms("build_instance"));
    report.set("ft-algos.caft_ms", setup_ms("caft"));
    report.set("ft-algos.caft_calls", tr.durations_us("caft").len() as f64);
    report.set(
        "ft-runtime.scratch.plan_us",
        median_us(&tr, "Executor::new"),
    );
    report.set("ft-runtime.engine.run_us", median_us(&tr, "Executor::run"));
    report.set(
        "ft-runtime.lifetime.draw_us",
        median_us(&tr, "scenario_of_run"),
    );
    report.set("ft-runtime.batch.record_us", median_us(&tr, "record"));
    report.set(
        "ft-runtime.batch.finish_us",
        median_us(&tr, "finish_labeled"),
    );
    report.set(
        "ft-net.model_us",
        median_call_us(200, || NetworkModel::new(&built[0].inst.platform)),
    );
    report.layer_shares(&tr, &BTreeMap::new(), untraced_pass.as_nanos() as u64);
    let path = args
        .out_dir
        .join(format!("spans-mc-sweep-seed{}.jsonl", args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        report.problem(format!("writing {}: {e}", path.display()));
    }
}

/// Replays one grid cell through the layers' own entry points, recording
/// a span per call; returns the cell's summary.
pub fn replay_cell(
    tr: &mut Tracer,
    inst: &Instance,
    sched: &FtSchedule,
    mc: &MonteCarloConfig,
    counts: &mut EngineCounts,
) -> BatchSummary {
    let mut exec = tr.leaf(trace::SCRATCH, "Executor::new", || {
        Executor::new(inst, sched, &mc.engine)
    });
    let m = inst.num_procs();
    let mut acc = BatchAccumulator::new(sched.latency());
    for i in 0..mc.runs {
        let scenario = tr.leaf(trace::LIFETIME, "scenario_of_run", || {
            mc.scenario_of_run(m, i)
        });
        let span = tr.begin(trace::ENGINE, "Executor::run");
        let out = exec.run(&scenario);
        tr.end(span);
        counts.add(out);
        tr.leaf(trace::BATCH, "record", || {
            acc.record(scenario.earliest_crash(), out)
        });
    }
    tr.leaf(trace::BATCH, "finish_labeled", || {
        acc.finish_labeled(mc.engine.policy, mc.engine.policy.label())
    })
}
