//! `storm-drill`: a closed loop of crash-burst drills on a Beneš B(3)
//! platform, each answered one-shot under every policy × network model.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ft_algos::{caft, CommModel};
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_model::FtSchedule;
use ft_net::NetworkModel;
use ft_platform::{random_instance, Instance, PlatformParams, ProcId, Topology};
use ft_runtime::{
    Contention, DetectionModel, Executor, RecoveryPolicy, RunOutcome, Simulation, StaticPlan,
};
use ft_sim::FaultScenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{self, fingerprint, mix};
use crate::trace::{self, call, Tracer};
use crate::{fastest_setup, median_call_us, Args, EngineCounts, Report};

/// Drills at `--seconds 10` (≈ 10 ms each), each run once per pass.
const DRILLS: usize = 250;
/// Passes over the catalogue; a drill's latency is its fastest pass.
const PASSES: usize = 4;
/// Untimed warm-up drills (the catalogue's first ones).
const WARMUP: usize = 20;
const SETUP_REPEATS: usize = 15;
const PROCS: usize = 8;
const MODES: [Contention; 3] = [
    Contention::Ideal,
    Contention::Exclusive,
    Contention::FairShare,
];
/// Cells per drill: every built-in policy under every network model.
const CELLS: usize = RecoveryPolicy::ALL.len() * MODES.len();

fn policy_index(p: RecoveryPolicy) -> usize {
    RecoveryPolicy::ALL
        .iter()
        .position(|&q| q == p)
        .expect("a built-in policy")
}

/// Seeded instances the drills spread over (drill `i` on instance
/// `i % INSTANCES`), so a run's cost stays close to the seed average.
const INSTANCES: usize = 16;

/// One instance (100 tasks on B(3), granularity 0.2) and its ε = 2 CAFT
/// schedule.
struct Platform {
    inst: Instance,
    sched: FtSchedule,
}

/// The instances and the drill catalogue: `(instance, scenario)` per
/// drill.
struct Built {
    platforms: Vec<Platform>,
    drills: Vec<(usize, FaultScenario)>,
}

fn build(seed: u64, drills: usize, mut tr: Option<&mut Tracer>) -> Built {
    let platforms: Vec<Platform> = (0..INSTANCES as u64)
        .map(|k| {
            let inst = call(tr.as_deref_mut(), trace::PLATFORM, "build_instance", || {
                let mut rng = StdRng::seed_from_u64(mix(seed, 10 + k));
                let graph = random_layered(&RandomDagParams::default().with_tasks(100), &mut rng);
                let params = PlatformParams::default()
                    .with_procs(PROCS)
                    .with_topology(Topology::Benes { log2_m: 3 });
                random_instance(graph, &params, 0.2, &mut rng)
            });
            let sched = call(tr.as_deref_mut(), trace::ALGOS, "caft", || {
                caft(&inst, 2, CommModel::OnePort, mix(seed, 10 + k))
            });
            Platform { inst, sched }
        })
        .collect();
    // 1, 2 or 3 victims crashing together, each size equally often;
    // exactly a quarter of the drills at t = 0, the rest uniformly in
    // [0.15, 0.6] × nominal.
    let mut rng = StdRng::seed_from_u64(mix(seed, 12));
    let mut at_zero = vec![false; drills];
    for i in rand::seq::index::sample(&mut rng, drills, drills / 4) {
        at_zero[i] = true;
    }
    let bursts = rand::seq::index::sample(&mut rng, drills, drills).into_vec();
    let drills = at_zero
        .into_iter()
        .zip(bursts)
        .enumerate()
        .map(|(i, (zero, b))| {
            let p = i % INSTANCES;
            let at = if zero {
                0.0
            } else {
                rng.gen_range(0.15..0.6) * platforms[p].sched.latency()
            };
            let crashes: Vec<(ProcId, f64)> = rand::seq::index::sample(&mut rng, PROCS, 1 + b % 3)
                .into_iter()
                .map(|v| (ProcId(v as u32), at))
                .collect();
            (p, FaultScenario::timed(&crashes))
        })
        .collect();
    Built { platforms, drills }
}

fn json(out: &RunOutcome) -> String {
    serde_json::to_string(out).expect("RunOutcome serializes")
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let n = args.ops(DRILLS).max(4 * WARMUP);
    let passes = args.repeats(PASSES);

    let mut aux = Tracer::default();
    let (setup_s, Built { platforms, drills }) = fastest_setup(SETUP_REPEATS, 200, || {
        build(args.seed, n, args.trace.then_some(&mut aux))
    });

    // Per instance, cell c = policy × mode, policy-major.
    let sims: Vec<Vec<Simulation>> = platforms
        .iter()
        .map(|pl| {
            RecoveryPolicy::ALL
                .iter()
                .flat_map(|&p| MODES.map(|mode| (p, mode)))
                .map(|(p, mode)| {
                    Simulation::of(&pl.inst, &pl.sched)
                        .policy(p)
                        .detection(DetectionModel::uniform(1.0))
                        .seed(mix(args.seed, 13))
                        .contention(mode)
                })
                .collect()
        })
        .collect();

    for (p, d) in &drills[..WARMUP] {
        for s in &sims[*p] {
            std::hint::black_box(s.run(d));
        }
    }

    // Timed phase: one client issuing drills back to back, the whole
    // catalogue `passes` times over. A drill's latency is its fastest pass:
    // the host's speed drifts by tens of percent over seconds, and the
    // fastest of several identical drills is what stays put. Right after
    // its timer stops, each drill's outcomes are checked against the first
    // pass's by fingerprint and dropped, so the process's peak resident
    // set is the program's, not a buffer of every pass's outcomes.
    let mut first: Vec<u64> = Vec::with_capacity(n * CELLS);
    let mut counts = EngineCounts::default();
    let mut bad = vec![false; n];
    let mut outs: Vec<RunOutcome> = Vec::with_capacity(CELLS);
    let mut op_ms = vec![f64::INFINITY; n];
    let mut timed = Duration::ZERO;
    for pass in 0..passes {
        for (d, (p, drill)) in drills.iter().enumerate() {
            let t = Instant::now();
            for s in &sims[*p] {
                outs.push(s.run(drill));
            }
            let took = t.elapsed();
            timed += took;
            op_ms[d] = op_ms[d].min(stats::ms(took));
            for (c, out) in outs.drain(..).enumerate() {
                let print = fingerprint(&json(&out));
                if pass == 0 {
                    first.push(print);
                    counts.add(&out);
                    // Ideal cells charge nothing.
                    bad[d] |= !MODES[c % MODES.len()].is_contended() && out.net_transfers != 0;
                } else {
                    bad[d] |= print != first[d * CELLS + c];
                }
            }
        }
    }
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set(
        "runs_per_s",
        (n * CELLS) as f64 * 1e3 / op_ms.iter().sum::<f64>(),
    );
    report.op_latency(op_ms);
    report.set("setup_s", setup_s);
    report.note(format!(
        "{n} drills x {CELLS} one-shot runs on {INSTANCES} instances, {passes} passes, timed {:.3} s",
        timed.as_secs_f64()
    ));

    // Check: one-shot ≡ warm Executor per cell.
    let mut warm_ns = vec![0i128; n * CELLS];
    for (pi, pl) in platforms.iter().enumerate() {
        for (c, s) in sims[pi].iter().enumerate() {
            let mut exec = Executor::new(&pl.inst, &pl.sched, s.config());
            for (d, (_, drill)) in drills.iter().enumerate().filter(|(_, (p, _))| *p == pi) {
                let i = d * CELLS + c;
                let t = Instant::now();
                let out = exec.run(drill);
                warm_ns[i] = t.elapsed().as_nanos() as i128;
                bad[d] |= fingerprint(&json(out)) != first[i];
            }
        }
    }
    report.attempted = n as u64;
    report.failed = bad.iter().filter(|&&b| b).count() as u64;

    if args.trace {
        let mut tr = Tracer::default();
        build(args.seed, n, Some(&mut tr));
        let mut drift = false;
        for (d, (p, drill)) in drills.iter().enumerate() {
            let op = tr.begin_op(d as u32, "drill");
            for s in &sims[*p] {
                outs.push(tr.leaf("oneshot", "Simulation::run", || s.run(drill)));
            }
            tr.end_op(op);
            for (c, out) in outs.drain(..).enumerate() {
                drift |= fingerprint(&json(&out)) != first[d * CELLS + c];
            }
        }
        if drift {
            report.problem("traced one-shot runs drifted from the untraced outcomes");
        }
        let pl = &platforms[0];
        attribute(
            &mut report,
            &tr,
            &aux,
            &pl.inst,
            &pl.sched,
            &counts,
            &warm_ns,
        );
        let untraced = timed.as_nanos() as u64 / passes as u64;
        report.layer_shares(&tr, &split(&tr, &warm_ns), untraced);
        let path = args
            .out_dir
            .join(format!("spans-storm-drill-seed{}.jsonl", args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            report.problem(format!("writing {}: {e}", path.display()));
        }
    }
    report
}

/// Warm time of cell (policy, mode) of drill `d`.
fn warm(warm_ns: &[i128], d: usize, p: RecoveryPolicy, mode: usize) -> i128 {
    warm_ns[d * CELLS + policy_index(p) * MODES.len() + mode]
}

/// Σ over drills and modes of warm Reschedule minus warm ReReplicate.
fn replan_ns(warm_ns: &[i128], drills: usize) -> i128 {
    (0..drills)
        .flat_map(|d| (0..MODES.len()).map(move |m| (d, m)))
        .map(|(d, m)| {
            warm(warm_ns, d, RecoveryPolicy::Reschedule, m)
                - warm(warm_ns, d, RecoveryPolicy::ReReplicate, m)
        })
        .sum()
}

/// Σ over drills, policies and contended modes of warm contended minus
/// warm Ideal.
fn charge_ns(warm_ns: &[i128], drills: usize) -> i128 {
    let mut sum = 0;
    for d in 0..drills {
        for p in RecoveryPolicy::ALL {
            for m in 1..MODES.len() {
                sum += warm(warm_ns, d, p, m) - warm(warm_ns, d, p, 0);
            }
        }
    }
    sum
}

/// Splits the one-shot spans' time over the layers by the warm table:
/// one-shot minus warm is plan and op-graph build (scratch), contended
/// minus Ideal is link charging (net), Reschedule minus ReReplicate on
/// the Ideal network is replanning (subdag), the rest of warm is the
/// engine loop.
fn split(tr: &Tracer, warm_ns: &[i128]) -> BTreeMap<&'static str, i128> {
    let drills = warm_ns.len() / CELLS;
    let oneshot: i128 = tr.busy_ns().get("oneshot").copied().unwrap_or(0) as i128;
    let warm_total: i128 = warm_ns.iter().sum();
    let net = charge_ns(warm_ns, drills);
    let subdag: i128 = (0..drills)
        .map(|d| {
            MODES.len() as i128
                * (warm(warm_ns, d, RecoveryPolicy::Reschedule, 0)
                    - warm(warm_ns, d, RecoveryPolicy::ReReplicate, 0))
        })
        .sum();
    BTreeMap::from([
        (trace::SCRATCH, oneshot - warm_total),
        (trace::NET, net),
        (trace::SUBDAG, subdag),
        (trace::ENGINE, warm_total - net - subdag),
    ])
}

/// Per-call and count metrics of the traced run.
fn attribute(
    report: &mut Report,
    tr: &Tracer,
    aux: &Tracer,
    inst: &Instance,
    sched: &FtSchedule,
    counts: &EngineCounts,
    warm_ns: &[i128],
) {
    let drills = warm_ns.len() / CELLS;
    counts.report(report);
    let setup_ms = |name: &str| {
        let mut v = aux.durations_us(name);
        v.extend(tr.durations_us(name));
        stats::median(&mut v) / 1e3
    };
    report.set("ft-platform.instance_ms", setup_ms("build_instance"));
    report.set("ft-algos.caft_ms", setup_ms("caft"));
    report.set("ft-algos.caft_calls", tr.durations_us("caft").len() as f64);
    let oneshot_ns: f64 = tr.durations_us("Simulation::run").iter().sum::<f64>() * 1e3;
    let warm_total: i128 = warm_ns.iter().sum();
    report.set(
        "ft-runtime.scratch.oneshot_extra_us",
        (oneshot_ns - warm_total as f64) / warm_ns.len() as f64 / 1e3,
    );
    let mut plan_us: Vec<f64> = Vec::new();
    for p in RecoveryPolicy::ALL {
        for _ in 0..25 {
            let t = Instant::now();
            std::hint::black_box(StaticPlan::new(inst, sched, &p));
            plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.set("ft-runtime.scratch.plan_us", stats::median(&mut plan_us));
    let mut run_us: Vec<f64> = warm_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    report.set("ft-runtime.engine.run_us", stats::median(&mut run_us));
    report.set(
        "ft-algos.subdag.replan_us",
        replan_ns(warm_ns, drills) as f64 / counts.reschedules.max(1) as f64 / 1e3,
    );
    report.set(
        "ft-net.charge_us",
        charge_ns(warm_ns, drills) as f64 / counts.net_transfers.max(1) as f64 / 1e3,
    );
    report.set(
        "ft-net.model_us",
        median_call_us(200, || NetworkModel::new(&inst.platform)),
    );
}
