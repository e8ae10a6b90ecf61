//! Degradation vs. failure rate: the online-runtime experiment.
//!
//! The paper's §6 crash experiments kill a fixed number of processors at
//! t = 0 and replay statically. The online engine in `ft-runtime` opens
//! the temporal axis: processors crash *during* execution with
//! exponential lifetimes, failures are detected after a latency, and a
//! recovery policy reacts. This experiment sweeps the failure rate (mean
//! time to failure as a multiple of the schedule's nominal latency) and
//! reports, per [`RecoveryPolicy`], the completion rate and the latency
//! degradation over a Monte-Carlo batch — the online analogue of the
//! figure panels (b)/(c).
//!
//! The sweep is **four-way**: next to `Absorb` / `ReReplicate` /
//! `Reschedule` it runs one `Checkpoint` policy per configured interval
//! (intervals and the per-checkpoint overhead are expressed as multiples
//! of the instance's mean task cost, so they track the workload's
//! scale). `only_policy` restricts the sweep to a single policy name —
//! the `paper-figures degradation --policy checkpoint` path.
//!
//! The sweep also has a **detection axis** ([`DetectionKind`], the
//! `paper-figures degradation --detection uniform|per-proc|gossip`
//! path): the same policies and fault draws can be re-run under uniform
//! detection, per-processor heartbeat spreads, or gossip propagation,
//! isolating how much of a policy's payout survives imperfect failure
//! detectors (repair is only placed on survivors that already know about
//! the crash — see DESIGN.md §7).
//!
//! The roster is drawn from the [`RecoveryPolicy::ALL`] registry (new
//! parameterless built-ins — `WarmSpare` today — join the sweep
//! automatically) and every rate row additionally runs one
//! [`AdaptiveCheckpoint`](RecoveryPolicy::AdaptiveCheckpoint) policy
//! tuned to that row's MTTF: the Young/Daly interval
//! `τ* = √(2 · overhead · MTTF)` tracks the failure pressure, so one
//! policy spans the whole fixed-interval column family (the comparison
//! recorded in EXPERIMENTS.md).

use crate::sweep::{SweepGrid, WorkloadSpec};
#[cfg(doc)]
use ft_runtime::RecoveryPolicy;
use ft_runtime::{BatchSummary, Contention, DetectionModel};
use serde::{Deserialize, Serialize};

/// Configuration of the degradation sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Tasks in the workload.
    pub tasks: usize,
    /// Processors `m`.
    pub procs: usize,
    /// Supported failures ε of the static schedule.
    pub eps: usize,
    /// Granularity of the instance.
    pub granularity: f64,
    /// MTTF sweep, as multiples of the schedule's nominal latency
    /// (descending = increasing failure pressure).
    pub mttf_factors: Vec<f64>,
    /// Checkpoint intervals to sweep, as multiples of the instance's
    /// mean task cost (one `Checkpoint` policy per entry).
    pub checkpoint_intervals: Vec<f64>,
    /// Per-checkpoint overhead, as a multiple of the mean task cost.
    pub checkpoint_overhead: f64,
    /// Restrict the sweep to the policy with this
    /// [`name`](RecoveryPolicy::name) (e.g. `"checkpoint"`); `None` runs
    /// the full four-way comparison.
    pub only_policy: Option<String>,
    /// Monte-Carlo runs per (factor, policy) cell.
    pub runs: usize,
    /// Detection latency of the runtime (the scale knob of every
    /// [`DetectionKind`]: the uniform delay, the centre of the
    /// per-processor spread, twice the gossip period).
    pub detection_latency: f64,
    /// Which detection model the runtime uses (the `--detection` axis).
    pub detection: DetectionKind,
    /// Mean time to repair as a multiple of the nominal latency (the
    /// `--transient`/`--mttr` axis): `Some(f)` draws transient failures
    /// with exponential repairs of mean `f × nominal` (crashed
    /// processors reboot and may crash again — the rejuvenation
    /// experiments); `None` keeps the paper's permanent fail-stop model.
    pub mttr_factor: Option<f64>,
    /// Base RNG seed.
    pub seed: u64,
}

/// The detection-model axis of the sweep: a parameter-free selector that
/// [`DegradationConfig::detection_model`] turns into a concrete
/// [`DetectionModel`] scaled by `detection_latency`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionKind {
    /// Every survivor detects `detection_latency` after the crash.
    Uniform,
    /// Heterogeneous heartbeats: survivor delays evenly spread over
    /// `[0.5, 1.5] · detection_latency` (same mean as `Uniform`).
    PerProcessor,
    /// Seeded gossip rounds of period `detection_latency / 2`, fanout 2:
    /// the first observer notices after one period (i.e. at *half* the
    /// uniform delay — earlier, but alone), and platform-wide knowledge
    /// takes several rounds more.
    Gossip,
}

impl DetectionKind {
    /// Parses a `--detection` CLI value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(DetectionKind::Uniform),
            "per-proc" | "per-processor" => Some(DetectionKind::PerProcessor),
            "gossip" => Some(DetectionKind::Gossip),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            DetectionKind::Uniform => "uniform",
            DetectionKind::PerProcessor => "per-proc",
            DetectionKind::Gossip => "gossip",
        }
    }

    /// The concrete [`DetectionModel`] of this selector on an
    /// `m`-processor platform: `latency` is the scale knob (the uniform
    /// delay, the centre of the per-processor spread, twice the gossip
    /// period) and `seed` drives the gossip rounds.
    pub fn model(self, m: usize, latency: f64, seed: u64) -> DetectionModel {
        match self {
            DetectionKind::Uniform => DetectionModel::uniform(latency),
            DetectionKind::PerProcessor => DetectionModel::per_processor_spread(m, latency),
            DetectionKind::Gossip => DetectionModel::Gossip {
                period: latency / 2.0,
                fanout: 2,
                seed,
            },
        }
    }
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            tasks: 60,
            procs: 10,
            eps: 1,
            granularity: 1.0,
            mttf_factors: vec![16.0, 8.0, 4.0, 2.0, 1.0],
            checkpoint_intervals: vec![0.25, 1.0],
            checkpoint_overhead: 0.005,
            only_policy: None,
            runs: 400,
            detection_latency: 1.0,
            detection: DetectionKind::Uniform,
            mttr_factor: None,
            seed: 0x5EED,
        }
    }
}

impl DegradationConfig {
    /// The workload recipe of the sweep, as a serializable
    /// [`WorkloadSpec`]: [`build`](WorkloadSpec::build) reproduces the
    /// sweep's graph → instance → schedule pipeline byte-for-byte.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            tasks: self.tasks,
            procs: self.procs,
            eps: self.eps,
            granularity: self.granularity,
            seed: self.seed,
        }
    }

    /// The scenario axes of the sweep, as a serializable [`SweepGrid`]
    /// (singleton MTTR and detection axes — the degradation sweep varies
    /// them one config at a time).
    pub fn grid(&self) -> SweepGrid {
        SweepGrid {
            mttf_factors: self.mttf_factors.clone(),
            mttr_factors: vec![self.mttr_factor],
            detections: vec![self.detection],
            checkpoint_intervals: self.checkpoint_intervals.clone(),
            checkpoint_overhead: self.checkpoint_overhead,
            only_policy: self.only_policy.clone(),
            runs: self.runs,
            detection_latency: self.detection_latency,
            seed: self.seed,
            contention: Contention::Ideal,
        }
    }

    /// The concrete [`DetectionModel`] of the sweep on an `m`-processor
    /// platform (see [`DetectionKind`] for the scaling conventions).
    pub fn detection_model(&self, m: usize) -> DetectionModel {
        self.detection.model(m, self.detection_latency, self.seed)
    }
}

/// One cell of the sweep: a policy at a failure rate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DegradationRow {
    /// MTTF as a multiple of the nominal latency.
    pub mttf_factor: f64,
    /// The Monte-Carlo aggregate for each policy at this rate.
    pub summary: BatchSummary,
}

/// Runs the sweep: one CAFT schedule, `|mttf_factors| × |policies|`
/// Monte-Carlo batches. Deterministic in the configuration; every policy
/// sees the **same** fault draws at a given rate (the simulation seed
/// depends only on the rate), so cells in one rate group are run-for-run
/// comparable.
///
/// A thin composition of the job-facing [`sweep`](crate::sweep) types —
/// [`WorkloadSpec::build`], then the whole grid through
/// [`simulate_grid`](ft_runtime::simulate_grid), which shares one warm
/// scratch-arena pool across all cells and one static plan per distinct
/// checkpoint table —
/// byte-identical to the historical fused per-cell loop (pinned by the
/// golden tests and `sweep::tests`).
pub fn run_degradation(cfg: &DegradationConfig) -> Vec<DegradationRow> {
    let (inst, sched) = cfg.workload().build();
    let cells = cfg.grid().cells(inst.mean_task_cost(), sched.latency());
    let mcs: Vec<_> = cells
        .iter()
        .map(|cell| cell.monte_carlo_config(&inst, &sched))
        .collect();
    cells
        .iter()
        .zip(ft_runtime::simulate_grid(&inst, &sched, &mcs))
        .map(|(cell, summary)| DegradationRow {
            mttf_factor: cell.mttf_factor,
            summary,
        })
        .collect()
}

/// ASCII table of the sweep.
pub fn render_degradation(cfg: &DegradationConfig, rows: &[DegradationRow]) -> String {
    let mut out = String::new();
    let failures = match cfg.mttr_factor {
        None => "permanent".to_string(),
        Some(f) => format!("transient, exp MTTR = {f:.2}x nominal"),
    };
    out.push_str(&format!(
        "degradation vs. failure rate (exponential lifetimes; MTTF in units of the \
         nominal latency; detection: {}; failures: {failures})\n",
        cfg.detection_model(cfg.procs).label(),
    ));
    out.push_str(
        "  MTTF   policy                    completion   mean slowdown   recovered/run   \
         replicas/run   msgs/run   ck-paid/run   saved/run\n",
    );
    let mut last = f64::NAN;
    for row in rows {
        let s = &row.summary;
        if row.mttf_factor != last {
            out.push_str(&format!("  {:-<130}\n", ""));
            last = row.mttf_factor;
        }
        let runs = s.runs.max(1) as f64;
        out.push_str(&format!(
            "  {:>5.1}  {:<24}  {:>8.1}%   {:>12.3}   {:>13.2}   {:>12.2}   {:>8.2}   \
             {:>11.2}   {:>9.2}\n",
            row.mttf_factor,
            s.policy_label.as_str(),
            s.completion_rate() * 100.0,
            s.mean_slowdown,
            s.tasks_recovered as f64 / runs,
            s.recovery_replicas as f64 / runs,
            s.recovery_messages as f64 / runs,
            s.mean_checkpoint_overhead(),
            s.mean_work_saved(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_runtime::RecoveryPolicy;

    const QUICK_FACTORS: [f64; 3] = [8.0, 2.0, 1.0];

    fn quick() -> DegradationConfig {
        DegradationConfig {
            tasks: 25,
            procs: 6,
            runs: 40,
            mttf_factors: QUICK_FACTORS.to_vec(),
            ..Default::default()
        }
    }

    fn by_policy<'a>(
        rows: &'a [DegradationRow],
        factor: f64,
        pred: impl Fn(&RecoveryPolicy) -> bool + 'a,
    ) -> impl Iterator<Item = &'a DegradationRow> {
        rows.iter()
            .filter(move |r| r.mttf_factor == factor && pred(&r.summary.policy))
    }

    #[test]
    fn sweep_shape_and_determinism() {
        let cfg = quick();
        let rows = run_degradation(&cfg);
        // The full registry of parameterless built-ins + one checkpoint
        // policy per interval + the per-rate adaptive policy, per rate.
        assert_eq!(
            rows.len(),
            3 * (RecoveryPolicy::ALL.len() + cfg.checkpoint_intervals.len() + 1)
        );
        let again = run_degradation(&cfg);
        assert_eq!(
            serde_json::to_string(&rows).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
        let table = render_degradation(&cfg, &rows);
        assert!(table.contains("re-replicate"));
        assert!(table.contains("warm-spare"));
        assert!(table.contains("ckpt τ="));
        assert!(table.contains("adapt τ*="));
        assert!(table.contains("8.0"));
        assert!(table.contains("uniform δ=1.00"));
    }

    #[test]
    fn detection_axis_changes_the_model_not_the_roster() {
        for kind in [
            DetectionKind::Uniform,
            DetectionKind::PerProcessor,
            DetectionKind::Gossip,
        ] {
            let cfg = DegradationConfig {
                detection: kind,
                mttf_factors: vec![2.0],
                runs: 30,
                ..quick()
            };
            let rows = run_degradation(&cfg);
            assert_eq!(
                rows.len(),
                RecoveryPolicy::ALL.len() + cfg.checkpoint_intervals.len() + 1
            );
            let table = render_degradation(&cfg, &rows);
            assert!(table.contains(cfg.detection_model(cfg.procs).label().as_str()));
            // Recovery only ever adds replicas, so the dominance over
            // Absorb survives any detection model.
            let absorb = by_policy(&rows, 2.0, |p| *p == RecoveryPolicy::Absorb)
                .next()
                .unwrap();
            for r in by_policy(&rows, 2.0, |p| *p != RecoveryPolicy::Absorb) {
                assert!(
                    r.summary.completed >= absorb.summary.completed,
                    "{} under {} completed {} < absorb {}",
                    r.summary.policy.label(),
                    kind.name(),
                    r.summary.completed,
                    absorb.summary.completed
                );
            }
        }
    }

    #[test]
    fn adaptive_checkpoint_tracks_the_rate() {
        // The adaptive entry is the only per-rate one: its MTTF — and
        // therefore its Young/Daly interval — must follow the row.
        let cfg = quick();
        let mttfs: Vec<f64> = [8.0, 2.0]
            .iter()
            .flat_map(|&f| cfg.grid().roster(1.0, 10.0 * f))
            .filter_map(|p| match p {
                RecoveryPolicy::AdaptiveCheckpoint { mttf, .. } => Some(mttf),
                _ => None,
            })
            .collect();
        assert_eq!(mttfs, vec![80.0, 20.0]);
        let only = DegradationConfig {
            only_policy: Some("adaptive-checkpoint".into()),
            ..quick()
        };
        let rows = run_degradation(&only);
        assert_eq!(rows.len(), 3, "one adaptive row per rate");
        assert!(rows
            .iter()
            .all(|r| matches!(r.summary.policy, RecoveryPolicy::AdaptiveCheckpoint { .. })));
    }

    #[test]
    fn adaptive_beats_every_fixed_checkpoint_somewhere() {
        // The redesign's acceptance cell (EXPERIMENTS.md): at some
        // failure rate, the per-rate Young/Daly interval beats *every*
        // fixed-interval column — per column, completing more runs, or
        // at least as many with a strictly better mean slowdown. The
        // regime that separates the policies is a non-trivial checkpoint
        // premium (0.1 × mean task cost): Young/Daly then prices the
        // insurance per rate — opting out entirely when the MTTF is long
        // enough that no fixed column's premium ever pays for itself.
        let cfg = DegradationConfig {
            checkpoint_overhead: 0.1,
            ..quick()
        };
        let rows = run_degradation(&cfg);
        let beats = |a: &BatchSummary, b: &BatchSummary| {
            a.completed > b.completed
                || (a.completed >= b.completed && a.mean_slowdown < b.mean_slowdown)
        };
        let cell = QUICK_FACTORS.iter().find(|&&factor| {
            let adaptive = by_policy(&rows, factor, |p| {
                matches!(p, RecoveryPolicy::AdaptiveCheckpoint { .. })
            })
            .next()
            .unwrap();
            by_policy(&rows, factor, |p| {
                matches!(p, RecoveryPolicy::Checkpoint { .. })
            })
            .all(|fixed| beats(&adaptive.summary, &fixed.summary))
        });
        assert!(
            cell.is_some(),
            "no rate where adaptive beats every fixed checkpoint column:\n{}",
            render_degradation(&cfg, &rows)
        );
    }

    #[test]
    fn warm_spare_matches_re_replicate_under_permanent_failures() {
        // Pre-staging only fires at rejoin events: with permanent
        // failures the two policies must aggregate identically (label
        // aside) — the warm-spare payout is a transient-regime effect.
        let rows = run_degradation(&quick());
        for &factor in &QUICK_FACTORS {
            let rr = by_policy(&rows, factor, |p| *p == RecoveryPolicy::ReReplicate)
                .next()
                .unwrap();
            let ws = by_policy(&rows, factor, |p| *p == RecoveryPolicy::WarmSpare)
                .next()
                .unwrap();
            assert_eq!(rr.summary.completed, ws.summary.completed);
            assert_eq!(rr.summary.recovery_replicas, ws.summary.recovery_replicas);
            assert_eq!(rr.summary.recovery_messages, ws.summary.recovery_messages);
            assert_eq!(
                rr.summary.mean_latency.to_bits(),
                ws.summary.mean_latency.to_bits()
            );
        }
    }

    #[test]
    fn per_processor_spread_has_one_delay_per_processor() {
        let cfg = DegradationConfig {
            detection: DetectionKind::PerProcessor,
            ..quick()
        };
        let DetectionModel::PerProcessor(delays) = cfg.detection_model(cfg.procs) else {
            panic!("expected a per-processor model");
        };
        assert_eq!(delays.len(), cfg.procs);
        assert!((delays[0] - 0.5 * cfg.detection_latency).abs() < 1e-12);
        assert!(
            (delays[cfg.procs - 1] - 1.5 * cfg.detection_latency).abs() < 1e-12,
            "spread must top out at 1.5x the latency knob"
        );
    }

    #[test]
    fn only_policy_restricts_the_roster() {
        let cfg = DegradationConfig {
            only_policy: Some("checkpoint".into()),
            ..quick()
        };
        let rows = run_degradation(&cfg);
        assert_eq!(rows.len(), 3 * cfg.checkpoint_intervals.len());
        assert!(
            rows.iter()
                .all(|r| matches!(r.summary.policy, RecoveryPolicy::Checkpoint { .. })),
            "adaptive-checkpoint has its own name and must not leak into --policy checkpoint"
        );
    }

    #[test]
    fn recovery_never_completes_less() {
        let rows = run_degradation(&quick());
        for &factor in &QUICK_FACTORS {
            let absorb = by_policy(&rows, factor, |p| *p == RecoveryPolicy::Absorb)
                .next()
                .unwrap();
            for r in by_policy(&rows, factor, |p| *p != RecoveryPolicy::Absorb) {
                assert!(
                    r.summary.completed >= absorb.summary.completed,
                    "{} completed {} < absorb {} at MTTF {factor}",
                    r.summary.policy.label(),
                    r.summary.completed,
                    absorb.summary.completed
                );
            }
        }
    }

    #[test]
    fn harsher_rates_complete_no_more_under_absorb() {
        let rows = run_degradation(&quick());
        let absorb: Vec<_> = rows
            .iter()
            .filter(|r| r.summary.policy == RecoveryPolicy::Absorb)
            .collect();
        assert!(absorb[0].mttf_factor > absorb[1].mttf_factor);
        assert!(absorb[0].summary.completed >= absorb[1].summary.completed);
    }

    #[test]
    fn transient_axis_rejuvenates_the_sweep() {
        // The `--transient/--mttr` axis: crashed processors reboot after
        // an exponential repair and recovery policies re-enlist them.
        let perm = quick();
        let tra = DegradationConfig {
            mttr_factor: Some(0.25),
            ..quick()
        };
        let rp = run_degradation(&perm);
        let rt = run_degradation(&tra);
        assert!(render_degradation(&perm, &rp).contains("failures: permanent"));
        assert!(
            render_degradation(&tra, &rt).contains("transient, exp MTTR = 0.25x nominal"),
            "the rendered header must name the repair model"
        );
        assert!(
            rt.iter().all(|r| r.summary.rejoins > 0),
            "every transient cell must observe reboots"
        );
        assert!(rp.iter().all(|r| r.summary.rejoins == 0));
        // The rejuvenation finding (EXPERIMENTS.md): at the harshest
        // rate, re-replication over rebooting processors completes
        // strictly more runs than under permanent fail-stop — reboots
        // turn a mostly-lost workload into a mostly-recovered one. (The
        // two sweeps draw different scenarios from the shared stream —
        // repair draws shift it — so this is an aggregate, not a
        // run-for-run, comparison.)
        let harshest = *QUICK_FACTORS.last().unwrap();
        let completed = |rows: &[DegradationRow]| {
            by_policy(rows, harshest, |p| *p == RecoveryPolicy::ReReplicate)
                .next()
                .unwrap()
                .summary
                .completed
        };
        assert!(
            completed(&rt) > completed(&rp),
            "reboots must rejuvenate re-replication at MTTF {harshest}: \
             {} vs {}",
            completed(&rt),
            completed(&rp)
        );
        // Deterministic like the permanent sweep.
        let again = run_degradation(&tra);
        assert_eq!(
            serde_json::to_string(&rt).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn checkpoint_beats_re_replicate_somewhere() {
        // The acceptance cell: at some (failure rate, interval), resuming
        // from checkpoints yields a better expected makespan than
        // recomputing from scratch — completing at least as many runs
        // with a strictly lower mean latency.
        let cfg = quick();
        let rows = run_degradation(&cfg);
        let mut found = false;
        for &factor in &QUICK_FACTORS {
            let rerep = by_policy(&rows, factor, |p| *p == RecoveryPolicy::ReReplicate)
                .next()
                .unwrap();
            for ck in by_policy(&rows, factor, |p| {
                matches!(p, RecoveryPolicy::Checkpoint { .. })
            }) {
                if ck.summary.completed >= rerep.summary.completed
                    && ck.summary.mean_latency < rerep.summary.mean_latency
                {
                    found = true;
                }
            }
        }
        assert!(
            found,
            "no (rate, interval) cell where checkpoint beats re-replicate:\n{}",
            render_degradation(&cfg, &rows)
        );
    }
}
