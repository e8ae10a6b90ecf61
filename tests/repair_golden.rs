//! Golden-file regression test for the online engine's repair path: the
//! absolute outcome bytes of crashy runs under every recovery policy,
//! every detection model, and both the ideal and the fair-share network.
//!
//! The degradation and transient goldens pin aggregate tables on the
//! uniform-detection, contention-free engine only. This one pins each
//! run: one 30-task instance on a Beneš B(3) platform with its ε = 1
//! CAFT schedule, ten fixed scenarios (crashes at 0, mid-run bursts,
//! staggered crashes, transient epochs), and per cell one line with the
//! completed-run count and an FNV-1a hash of the serialized
//! `RunOutcome`s. Any change to a repair rule that moves one outcome
//! byte shows up here.
//!
//! To bless an intentional change, regenerate the file:
//!
//! ```text
//! BLESS_REPAIR_GOLDEN=1 cargo test --test repair_golden
//! ```

use ftsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repair_golden.txt");

const SEED: u64 = 0x4E9A;

/// The 30-task workload on a Beneš B(3) interconnect (8 processors) and
/// its ε = 1 CAFT schedule.
fn workload() -> (Instance, FtSchedule) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let graph = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
    let params = PlatformParams::default()
        .with_procs(8)
        .with_topology(Topology::Benes { log2_m: 3 });
    let inst = random_instance(graph, &params, 0.5, &mut rng);
    let sched = caft(&inst, 1, CommModel::OnePort, SEED);
    (inst, sched)
}

/// Ten fixed scenarios, as fractions of the nominal latency: crashes at
/// 0, mid-run bursts, staggered crashes and transient epochs (single,
/// repeated, and mixed with a permanent crash).
fn scenarios(nominal: f64) -> Vec<FaultScenario> {
    let at = |f: f64| f * nominal;
    let p = ProcId;
    let inf = f64::INFINITY;
    vec![
        FaultScenario::timed(&[(p(0), 0.0)]),
        FaultScenario::timed(&[(p(3), 0.0), (p(5), 0.0)]),
        FaultScenario::timed(&[(p(2), at(0.3))]),
        FaultScenario::timed(&[(p(1), at(0.25)), (p(4), at(0.25))]),
        FaultScenario::timed(&[(p(0), at(0.5)), (p(6), at(0.5)), (p(7), at(0.5))]),
        FaultScenario::timed(&[(p(2), at(0.2)), (p(5), at(0.45)), (p(7), at(0.7))]),
        FaultScenario::transient(&[(p(1), at(0.2), at(0.3))]),
        FaultScenario::transient(&[
            (p(3), at(0.1), at(0.15)),
            (p(3), at(0.5), at(0.2)),
            (p(6), at(0.35), at(0.25)),
        ]),
        FaultScenario::transient(&[(p(4), 0.0, at(0.4)), (p(0), at(0.4), inf)]),
        FaultScenario::transient(&[
            (p(2), at(0.3), at(0.1)),
            (p(5), at(0.3), at(0.1)),
            (p(6), at(0.3), at(0.1)),
        ]),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Renders one line per (policy, detection, contention) cell, and
/// returns the summed outcomes' repair counters for the coverage check.
fn render() -> (String, RunOutcome) {
    let (inst, sched) = workload();
    let nominal = sched.latency();
    let m = inst.num_procs();
    let scenarios = scenarios(nominal);
    let mut policies = RecoveryPolicy::ALL.to_vec();
    policies.push(RecoveryPolicy::checkpoint(nominal * 0.05, nominal * 0.002));
    policies.push(RecoveryPolicy::adaptive_checkpoint(
        nominal * 0.2,
        nominal * 0.002,
    ));
    let detections = [
        DetectionModel::uniform(nominal * 0.03),
        DetectionModel::per_processor_spread(m, nominal * 0.03),
        DetectionModel::Gossip {
            period: nominal * 0.01,
            fanout: 2,
            seed: SEED,
        },
    ];
    let mut totals = RunOutcome::default();
    let mut table = String::new();
    for policy in &policies {
        for detection in &detections {
            for contention in [Contention::Ideal, Contention::FairShare] {
                let sim = Simulation::of(&inst, &sched)
                    .policy(*policy)
                    .detection(detection.clone())
                    .contention(contention)
                    .seed(SEED);
                let mut bytes = Vec::new();
                let mut completed = 0;
                for scenario in &scenarios {
                    let out = sim.run(scenario);
                    completed += usize::from(out.completed());
                    totals.recovery_replicas += out.recovery_replicas;
                    totals.reschedules += out.reschedules;
                    totals.prestaged += out.prestaged;
                    totals.rejoins += out.rejoins;
                    totals.net_contended += out.net_contended;
                    totals.work_saved += out.work_saved;
                    bytes.extend(serde_json::to_string(&out).expect("serializable").bytes());
                    bytes.push(b'\n');
                }
                writeln!(
                    table,
                    "{:<24} {:<24} {:<10} completed {:>2}/{} fnv {:016x}",
                    policy.label(),
                    detection.label(),
                    contention.name(),
                    completed,
                    scenarios.len(),
                    fnv1a(&bytes)
                )
                .expect("write to string");
            }
        }
    }
    (table, totals)
}

#[test]
fn repair_outcomes_match_the_golden_file() {
    let (table, totals) = render();
    // The cells must actually drive the repair path they pin.
    assert_eq!(table.lines().count(), 6 * 3 * 2);
    assert!(totals.recovery_replicas > 0, "no replacement was spawned");
    assert!(totals.reschedules > 0, "no replan ran");
    assert!(totals.prestaged > 0, "no input was pre-staged");
    assert!(totals.rejoins > 0, "no reboot was observed");
    assert!(totals.net_contended > 0, "no transfer was contended");
    assert!(totals.work_saved > 0.0, "no checkpoint resume paid off");
    if std::env::var("BLESS_REPAIR_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &table).expect("writable golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing golden file — run with BLESS_REPAIR_GOLDEN=1 to generate it");
    assert!(
        table == golden,
        "repair-path outcomes drifted from the golden file.\n\
         If the change is intentional, bless it with BLESS_REPAIR_GOLDEN=1.\n\n\
         --- golden ---\n{golden}\n--- rendered ---\n{table}"
    );
}
