//! Golden-file regression test for the static schedulers: the exact bytes
//! of every schedule each `ft-algos` entry point builds.
//!
//! The validation records hold aggregate claims with tolerances, and the
//! engine goldens see CAFT only through run outcomes. This one pins the
//! schedules themselves: four seeded instances (20–60 tasks, m ∈ {4, 6,
//! 10}, granularity 0.2 and 1.0) × ε ∈ {0, 1, 2} × both communication
//! models, through HEFT, FTSA, FTBAR, CAFT, hardened CAFT, windowed CAFT,
//! the CAFT ablations and the insertion variants, plus `caft_on_subdag`
//! repairs on three cuts per case, each losing one processor. Every case
//! writes one line: its label and an FNV-1a hash of the serialized
//! `FtSchedule` (for sub-DAG repairs also of the unscheduled tasks, whose
//! count the line shows). Any change that moves one schedule byte shows up
//! here.
//!
//! To bless an intentional change, regenerate the file:
//!
//! ```text
//! BLESS_SCHEDULE_GOLDEN=1 cargo test --test schedule_golden
//! ```

use ftsched::algos::{caft_windowed_with, caft_with, ftbar_with, ftsa_with};
use ftsched::graph::topo::topological_order;
use ftsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/schedule_golden.txt");

/// `(seed, tasks, processors, granularity)` of each instance.
const INSTANCES: [(u64, usize, usize, f64); 4] = [
    (1, 20, 4, 0.2),
    (2, 40, 6, 1.0),
    (3, 30, 6, 0.2),
    (4, 60, 10, 1.0),
];

/// Cut instants of the sub-DAG repairs, as fractions of the CAFT latency.
const CUTS: [f64; 3] = [0.25, 0.5, 0.75];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn schedule_bytes(s: &FtSchedule) -> Vec<u8> {
    serde_json::to_string(s).expect("serializable").into_bytes()
}

fn instance(seed: u64, tasks: usize, m: usize, granularity: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_layered(&RandomDagParams::default().with_tasks(tasks), &mut rng);
    random_instance(
        g,
        &PlatformParams::default().with_procs(m),
        granularity,
        &mut rng,
    )
}

/// The repair input of a crash at `cut` that loses `lost`: the remnant is
/// every task with no replica finished by `cut`, closed under successors;
/// the sources are the other tasks' replicas off `lost`, by (finish,
/// proc).
fn cut_spec(
    inst: &Instance,
    sched: &FtSchedule,
    cut: f64,
    lost: ProcId,
) -> (Vec<bool>, Vec<Vec<(ProcId, f64)>>) {
    let g = &inst.graph;
    let mut remnant = vec![false; g.num_tasks()];
    for t in topological_order(g) {
        remnant[t.index()] = g.predecessors(t).any(|p| remnant[p.index()])
            || sched.replicas_of(t).iter().all(|r| r.finish > cut);
    }
    let sources = g
        .tasks()
        .map(|t| {
            if remnant[t.index()] {
                return Vec::new();
            }
            let mut copies: Vec<(ProcId, f64)> = sched
                .replicas_of(t)
                .iter()
                .filter(|r| r.proc != lost)
                .map(|r| (r.proc, r.finish))
                .collect();
            copies.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            copies
        })
        .collect();
    (remnant, sources)
}

/// Renders one line per (instance, ε, model, entry point) case and
/// returns the total number of unscheduled sub-DAG tasks.
fn render() -> (String, usize) {
    let mut table = String::new();
    let mut unscheduled_total = 0;
    for (seed, tasks, m, granularity) in INSTANCES {
        let inst = instance(seed, tasks, m, granularity);
        for eps in 0..=2usize {
            for model in [CommModel::OnePort, CommModel::MacroDataflow] {
                let caft_opts = CaftOptions {
                    eps,
                    model,
                    seed,
                    ..CaftOptions::default()
                };
                let ftsa_opts = FtsaOptions {
                    eps,
                    model,
                    seed,
                    insertion: true,
                };
                let ftbar_opts = FtbarOptions {
                    eps,
                    model,
                    seed,
                    insertion: true,
                };
                let windowed = |window| {
                    caft_windowed_with(
                        &inst,
                        WindowedOptions {
                            caft: caft_opts,
                            window,
                        },
                    )
                };
                let plain = caft(&inst, eps, model, seed);
                let mut cases: Vec<(&str, FtSchedule)> = Vec::new();
                if eps == 0 {
                    cases.push(("heft", heft(&inst, model, seed)));
                }
                cases.extend([
                    ("ftsa", ftsa(&inst, eps, model, seed)),
                    ("ftbar", ftbar(&inst, eps, model, seed)),
                    ("caft", plain.clone()),
                    ("caft_hardened", caft_hardened(&inst, eps, model, seed)),
                    ("caft_windowed/3", windowed(3)),
                    ("caft_windowed/10", windowed(10)),
                    (
                        "caft_with/insertion",
                        caft_with(
                            &inst,
                            CaftOptions {
                                insertion: true,
                                ..caft_opts
                            },
                        ),
                    ),
                    (
                        "caft_with/no-one-to-one",
                        caft_with(
                            &inst,
                            CaftOptions {
                                one_to_one: false,
                                ..caft_opts
                            },
                        ),
                    ),
                    (
                        "caft_with/no-lock",
                        caft_with(
                            &inst,
                            CaftOptions {
                                lock_senders: false,
                                ..caft_opts
                            },
                        ),
                    ),
                    ("ftsa_with/insertion", ftsa_with(&inst, ftsa_opts)),
                    ("ftbar_with/insertion", ftbar_with(&inst, ftbar_opts)),
                ]);
                let case = format!("i{seed} eps{eps} {}", model_name(model));
                for (label, sched) in &cases {
                    writeln!(
                        table,
                        "{:<40}                fnv {:016x}",
                        format!("{case} {label}"),
                        fnv1a(&schedule_bytes(sched))
                    )
                    .expect("write to string");
                }
                let nominal = plain.latency();
                for (k, frac) in CUTS.iter().enumerate() {
                    let lost = ProcId::from_index((seed as usize + k) % m);
                    let (remnant, sources) = cut_spec(&inst, &plain, frac * nominal, lost);
                    let alive: Vec<ProcId> = inst.platform.procs().filter(|&p| p != lost).collect();
                    let spec = SubDagSpec {
                        remnant: &remnant,
                        sources: &sources,
                        alive: &alive,
                        release: frac * nominal,
                    };
                    let out = caft_on_subdag(&inst, &spec, &caft_opts);
                    unscheduled_total += out.unscheduled.len();
                    let mut bytes = schedule_bytes(&out.schedule);
                    for t in &out.unscheduled {
                        bytes.extend(t.0.to_le_bytes());
                    }
                    writeln!(
                        table,
                        "{:<40} unscheduled {:>2} fnv {:016x}",
                        format!("{case} subdag/{frac}-P{}", lost.index()),
                        out.unscheduled.len(),
                        fnv1a(&bytes)
                    )
                    .expect("write to string");
                }
            }
        }
    }
    (table, unscheduled_total)
}

fn model_name(model: CommModel) -> &'static str {
    match model {
        CommModel::OnePort => "one-port",
        CommModel::MacroDataflow => "macro",
    }
}

#[test]
fn schedules_match_the_golden_file() {
    let (table, unscheduled) = render();
    // Per instance and model: HEFT once, then 11 schedulers and the cuts
    // at each ε.
    assert_eq!(
        table.lines().count(),
        INSTANCES.len() * 2 * (1 + 3 * (11 + CUTS.len()))
    );
    // The repairs must reach the lost-data rule as well as placements.
    assert!(unscheduled > 0, "no sub-DAG repair lost a task's data");
    if std::env::var("BLESS_SCHEDULE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &table).expect("writable golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing golden file — run with BLESS_SCHEDULE_GOLDEN=1 to generate it");
    assert!(
        table == golden,
        "schedules drifted from the golden file.\n\
         If the change is intentional, bless it with BLESS_SCHEDULE_GOLDEN=1.\n\n\
         --- golden ---\n{golden}\n--- rendered ---\n{table}"
    );
}
