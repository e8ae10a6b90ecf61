//! Per-run and aggregate metrics of online executions.
//!
//! A [`RunOutcome`] is what [`Simulation::run`](crate::Simulation::run)
//! returns: per-task first completion times plus recovery and checkpoint
//! accounting. [`report`] puts one run in context of the §6 static
//! latency bounds;
//! [`BatchSummary`] is the deterministic Monte-Carlo aggregate of
//! [`crate::simulate_many`].
//!
//! # Example
//!
//! ```
//! use ft_runtime::{report, Simulation};
//! use ft_algos::{caft, CommModel};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(2);
//! let g = random_layered(&RandomDagParams::default().with_tasks(20), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! let sched = caft(&inst, 1, CommModel::OnePort, 2);
//!
//! let out = Simulation::of(&inst, &sched).run(&ft_sim::FaultScenario::none());
//! assert!(out.completed());
//! let rpt = report(&inst, &sched, &out);
//! assert!(rpt.within_bound && (rpt.slowdown - 1.0).abs() < 1e-9);
//! ```

use crate::batch::ExactSum;
use crate::policy::RecoveryPolicy;
use ft_model::FtSchedule;
use ft_platform::Instance;
use ft_sim::latency_bounds;
use serde::{Deserialize, Serialize};

/// The outcome of one online execution
/// ([`Simulation::run`](crate::Simulation::run)).
///
/// `Default` is the all-zero outcome of a run over nothing; it exists so
/// a reusable [`EngineScratch`](crate::EngineScratch) can hold an
/// outcome slot the engine fills in place.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunOutcome {
    /// First completion time of each task (any replica, static or
    /// recovery); `None` if the task never completed.
    pub first_finish: Vec<Option<f64>>,
    /// Whether the first completion of each task came from a recovery
    /// replica (false for uncompleted tasks).
    pub recovered: Vec<bool>,
    /// Number of processors that crash in the scenario (at any time).
    pub num_failures: usize,
    /// Failure detections processed (first knowledge event per crash
    /// epoch).
    pub detections: usize,
    /// Rejoins brought into the coordinator view (first knowledge event
    /// per reboot; 0 for permanent-only scenarios).
    pub rejoins: usize,
    /// Repair plans computed (`Reschedule` invocations).
    pub reschedules: usize,
    /// Recovery replicas spawned (both policies).
    pub recovery_replicas: usize,
    /// Remote recovery transfers added.
    pub recovery_messages: usize,
    /// Distinct tasks a recovery pass flagged as unrepairable (data lost
    /// on every survivor) and that indeed never completed.
    pub unrecoverable: usize,
    /// Applied `PreStage` actions that scheduled at least one input
    /// transfer (warm-spare pre-staging; the transfers themselves are
    /// counted in `recovery_messages`). 0 outside
    /// [`RecoveryPolicy::WarmSpare`] and pre-staging custom policies.
    pub prestaged: usize,
    /// Policy actions the engine's validation refused to apply
    /// (survivor-knowledge rule, out-of-range ids). Always 0 for the
    /// built-in policies — they only propose what the engine's own
    /// analytics selected.
    pub rejected_actions: usize,
    /// Total time spent writing and reading checkpoints in completed
    /// computations (0 outside the `Checkpoint` policy, and 0 under
    /// `Checkpoint` with `interval = ∞` — nothing is ever written).
    pub checkpoint_overhead: f64,
    /// Total recomputation avoided by resuming from checkpoints (work
    /// units on the resuming hosts, over completed resumed replicas);
    /// the benefit side of the `checkpoint_overhead` cost.
    pub work_saved: f64,
    /// Total wall-clock execution time destroyed by crashes: the progress
    /// computations had made when their host died under them (checkpointed
    /// fractions are separately credited back through `work_saved`).
    pub work_lost: f64,
    /// Summed first-knowledge detection lag over all crash epochs: for
    /// each crash, the earliest processed detection instant minus the
    /// crash instant. 0 when nothing crashed (or crashes were never
    /// detected within the run).
    pub detection_lag: f64,
    /// Operations that charged link or storage-port capacity against the
    /// live [`ft_net::NetworkState`]: remote transfers and checkpointing
    /// computations. Always 0 under [`ft_net::Contention::Ideal`] (the
    /// default), where the network is never consulted.
    pub net_transfers: usize,
    /// Charged operations that finished later than their contention-free
    /// nominal time (a subset of `net_transfers`).
    pub net_contended: usize,
    /// Summed finish delay of contended operations over their nominal
    /// contention-free finish times (wall-clock units).
    pub net_delay: f64,
}

impl RunOutcome {
    /// True if every task completed at least one replica.
    pub fn completed(&self) -> bool {
        self.first_finish.iter().all(|f| f.is_some())
    }

    /// Achieved latency `max_t` (first completion of `t`); `None` if some
    /// task never completed.
    pub fn latency(&self) -> Option<f64> {
        let mut latency = 0.0f64;
        for f in &self.first_finish {
            latency = latency.max((*f)?);
        }
        Some(latency)
    }

    /// Achieved latency normalized by `nominal` (the schedule's 0-crash
    /// makespan); `None` if some task never completed. The single
    /// definition of the headline *slowdown* metric — [`report`] and
    /// [`MetricSet::record`] both call this instead of recomputing it.
    pub fn slowdown(&self, nominal: f64) -> Option<f64> {
        self.latency().map(|l| l / nominal)
    }

    /// Tasks whose first completion came from a recovery replica.
    pub fn tasks_recovered(&self) -> usize {
        self.recovered.iter().filter(|&&r| r).count()
    }
}

/// One run's metrics put in context of the §6 static bounds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Achieved latency (`NaN` when the run did not complete).
    pub latency: f64,
    /// The schedule's nominal (0-crash) latency.
    pub zero_crash: f64,
    /// The schedule's last-copy upper bound.
    pub upper_bound: f64,
    /// `latency / zero_crash` (`NaN` when incomplete).
    pub slowdown: f64,
    /// True if the achieved latency stayed at or below the upper bound.
    pub within_bound: bool,
}

/// Packages a run against the §6 latency bounds of its schedule.
pub fn report(inst: &Instance, sched: &FtSchedule, out: &RunOutcome) -> RunReport {
    let b = latency_bounds(inst, sched);
    let latency = out.latency().unwrap_or(f64::NAN);
    RunReport {
        latency,
        zero_crash: b.zero_crash,
        upper_bound: b.upper,
        slowdown: out.slowdown(b.zero_crash).unwrap_or(f64::NAN),
        within_bound: latency <= b.upper + 1e-9,
    }
}

/// Deterministic aggregate over a Monte-Carlo batch
/// ([`crate::simulate_many`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchSummary {
    /// Recovery policy the batch ran under (the serializable built-in
    /// form; for a custom [`Policy`](crate::Policy) batch this is the
    /// engine config's placeholder and
    /// [`policy_label`](BatchSummary::policy_label) names the policy
    /// that actually dispatched).
    pub policy: RecoveryPolicy,
    /// Table label of the dispatched policy ([`label`](RecoveryPolicy::label)
    /// of `policy` for built-in batches, [`Policy::label`](crate::Policy::label)
    /// of the custom implementation otherwise).
    pub policy_label: String,
    /// Runs simulated.
    pub runs: usize,
    /// Runs in which every task completed.
    pub completed: usize,
    /// Runs with at least one crash before the nominal makespan.
    pub disturbed: usize,
    /// Total rejoins brought into the coordinator view, across runs (0
    /// for permanent-only batches).
    pub rejoins: usize,
    /// Mean achieved latency over completed runs.
    pub mean_latency: f64,
    /// Maximum achieved latency over completed runs.
    pub max_latency: f64,
    /// Mean achieved latency over completed runs, normalized by the
    /// schedule's nominal (0-crash) latency.
    pub mean_slowdown: f64,
    /// Mean number of crashes injected per run.
    pub mean_failures: f64,
    /// Total tasks completed by a recovery replica, across runs.
    pub tasks_recovered: usize,
    /// Total recovery replicas spawned, across runs.
    pub recovery_replicas: usize,
    /// Total remote recovery transfers, across runs.
    pub recovery_messages: usize,
    /// Total checkpoint write/read time paid, across runs (the cost side
    /// of checkpoint/restart; 0 for the other policies).
    pub checkpoint_overhead: f64,
    /// Total recomputation avoided by checkpoint resumes, across runs
    /// (the benefit side; 0 for the other policies).
    pub work_saved: f64,
    /// The batch's full per-run metric distributions and action counters
    /// (see [`MetricSet`]); merged exactly, so byte-identical across
    /// thread counts and merge trees like every other field.
    pub metrics: MetricSet,
}

impl BatchSummary {
    /// Fraction of runs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.runs == 0 {
            return 1.0;
        }
        self.completed as f64 / self.runs as f64
    }

    /// Mean checkpoint overhead paid per run.
    pub fn mean_checkpoint_overhead(&self) -> f64 {
        self.checkpoint_overhead / self.runs.max(1) as f64
    }

    /// Mean recomputation avoided per run.
    pub fn mean_work_saved(&self) -> f64 {
        self.work_saved / self.runs.max(1) as f64
    }

    /// One-line human-readable summary (stable format; the acceptance
    /// example diffs two of these for determinism).
    pub fn one_line(&self) -> String {
        format!(
            "{:<24} runs {:>5}  completed {:>5} ({:>5.1}%)  disturbed {:>5}  \
             mean latency {:>8.2}  mean slowdown {:>5.2}x  recovered {:>4}  \
             spawned {:>4} (+{} msgs)  ck-paid/run {:>6.2}  saved/run {:>6.2}",
            self.policy_label,
            self.runs,
            self.completed,
            self.completion_rate() * 100.0,
            self.disturbed,
            self.mean_latency,
            self.mean_slowdown,
            self.tasks_recovered,
            self.recovery_replicas,
            self.recovery_messages,
            self.mean_checkpoint_overhead(),
            self.mean_work_saved(),
        )
    }
}

/// A fixed-bucket histogram whose aggregates merge *exactly*.
///
/// Bucket counts, `count`, `min` and `max` are order-insensitive by
/// construction, and the running total lives in an [`ExactSum`], so
/// merging partial histograms yields byte-identical results regardless of
/// thread count or merge-tree shape — the same determinism contract as
/// [`crate::BatchAccumulator`], pinned by the `engine_invariants` suite.
///
/// The bucket edges are fixed at construction: `counts[i]` counts samples
/// `x ≤ edges[i]` (first matching edge wins), and one final overflow
/// bucket counts everything past the last edge. Two histograms merge only
/// if their edges are identical.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive upper edges of the finite buckets, strictly increasing.
    pub edges: Vec<f64>,
    /// Per-bucket sample counts; `edges.len() + 1` entries, the last one
    /// being the overflow bucket.
    pub counts: Vec<u64>,
    /// Exact running total of the recorded samples (serialized as the
    /// rounded f64 value).
    pub sum: ExactSum,
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest recorded sample (`NaN` — JSON `null` — while empty).
    pub min: f64,
    /// Largest recorded sample (`NaN` — JSON `null` — while empty).
    pub max: f64,
}

impl Histogram {
    /// An empty histogram over the given bucket edges (finite, strictly
    /// increasing).
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| e.is_finite()),
            "histogram edges must be finite and strictly increasing"
        );
        let counts = vec![0; edges.len() + 1];
        Histogram {
            edges,
            counts,
            sum: ExactSum::new(),
            count: 0,
            min: f64::NAN,
            max: f64::NAN,
        }
    }

    /// Records one sample (finite, non-negative — everything the engine
    /// emits; the exact accumulator rejects the rest).
    pub fn record(&mut self, x: f64) {
        let slot = self
            .edges
            .iter()
            .position(|&e| x <= e)
            .unwrap_or(self.edges.len());
        self.counts[slot] += 1;
        self.sum.add(x);
        self.count += 1;
        // NaN-absorbing min/max: the first sample replaces the NaN seeds.
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another histogram (same edges) into this one; exact and
    /// merge-order-insensitive.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.edges, other.edges,
            "merging histograms with different edges"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum.merge(&other.sum);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the recorded samples (`NaN` while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.sum.value() / self.count as f64
    }

    /// Fraction of recorded samples `≤ x`, read off the bucket counts: it
    /// sums the finite buckets whose edge is `≤ x`, so `x` is rounded
    /// *down* to the nearest edge at or below it. The answer is exact when
    /// `x` is an edge and a lower bound otherwise (`NaN` while empty).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let below: u64 = self
            .edges
            .iter()
            .zip(&self.counts)
            .take_while(|(&e, _)| e <= x)
            .map(|(_, &c)| c)
            .sum();
        below as f64 / self.count as f64
    }
}

/// Mergeable per-run metric distributions of a Monte-Carlo batch.
///
/// One `MetricSet` travels inside every [`crate::BatchAccumulator`]: each
/// run feeds the histograms and counters below, partial sets merge
/// exactly ([`MetricSet::merge`]), and the batch's final set is exposed on
/// [`BatchSummary::metrics`] (and as `--metrics-json` in the experiment
/// binaries); the summary's run counts, latency and slowdown figures and
/// recovery totals are read off it. All aggregates are integer counts,
/// exact sums or min/max, so the merged result is byte-identical across
/// thread counts and merge orders.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricSet {
    /// Achieved latency over completed runs; edges at `nominal ×
    /// {1, 1.05, 1.1, 1.25, 1.5, 2, 3, 5}`.
    pub latency: Histogram,
    /// Slowdown (latency / nominal) over completed runs; edges at
    /// `{1, 1.05, 1.1, 1.25, 1.5, 2, 3, 5}`.
    pub slowdown: Histogram,
    /// Per-run execution time destroyed by crashes
    /// ([`RunOutcome::work_lost`]); edges at `nominal ×
    /// {0, 0.1, 0.25, 0.5, 1, 2, 4}`.
    pub work_lost: Histogram,
    /// Per-run recomputation avoided by checkpoint resumes
    /// ([`RunOutcome::work_saved`]); edges as `work_lost`.
    pub work_saved: Histogram,
    /// Per-run mean first-knowledge detection lag, over runs with at
    /// least one detection; absolute edges `{0, 0.25, 0.5, 1, 2, 4, 8}`.
    pub detection_lag: Histogram,
    /// Runs in which some task never completed.
    pub incomplete_runs: u64,
    /// Crash detections processed (first knowledge per crash epoch).
    pub detections: u64,
    /// Rejoins brought into the coordinator view.
    pub rejoins: u64,
    /// Recovery replicas spawned (the `SpawnReplica` / resume family).
    pub spawned_replicas: u64,
    /// Repair plans computed (`Replan` actions applied).
    pub reschedules: u64,
    /// Applied `PreStage` actions that scheduled at least one transfer.
    pub prestaged: u64,
    /// Remote recovery transfers added.
    pub recovery_messages: u64,
    /// Policy actions the engine's validation refused.
    pub rejected_actions: u64,
    /// Operations that charged link/port capacity against the live
    /// network ([`RunOutcome::net_transfers`]); 0 under
    /// [`ft_net::Contention::Ideal`].
    pub net_transfers: u64,
    /// Charged operations delayed past their contention-free finish
    /// ([`RunOutcome::net_contended`]).
    pub net_contended: u64,
    /// Total contention delay across runs (exact sum of
    /// [`RunOutcome::net_delay`]).
    pub net_delay: ExactSum,
}

impl MetricSet {
    /// An empty set with bucket edges scaled to the schedule's nominal
    /// (0-crash) latency. A non-positive or non-finite `nominal` (empty
    /// schedule) falls back to 1 so the edges stay valid.
    pub fn for_nominal(nominal: f64) -> Self {
        let nominal = if nominal.is_finite() && nominal > 0.0 {
            nominal
        } else {
            1.0
        };
        let ratios = [1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0];
        let work = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0];
        MetricSet {
            latency: Histogram::new(ratios.iter().map(|r| r * nominal).collect()),
            slowdown: Histogram::new(ratios.to_vec()),
            work_lost: Histogram::new(work.iter().map(|r| r * nominal).collect()),
            work_saved: Histogram::new(work.iter().map(|r| r * nominal).collect()),
            detection_lag: Histogram::new(vec![0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]),
            incomplete_runs: 0,
            detections: 0,
            rejoins: 0,
            spawned_replicas: 0,
            reschedules: 0,
            prestaged: 0,
            recovery_messages: 0,
            rejected_actions: 0,
            net_transfers: 0,
            net_contended: 0,
            net_delay: ExactSum::new(),
        }
    }

    /// Feeds one run's outcome into the set. `nominal` must be the value
    /// the set was built for.
    pub fn record(&mut self, nominal: f64, out: &RunOutcome) {
        match out.latency() {
            Some(lat) => {
                self.latency.record(lat);
                // The one slowdown definition, shared with reports.
                self.slowdown
                    .record(out.slowdown(nominal).unwrap_or(f64::NAN));
            }
            None => self.incomplete_runs += 1,
        }
        self.work_lost.record(out.work_lost);
        self.work_saved.record(out.work_saved);
        if out.detections > 0 {
            self.detection_lag
                .record(out.detection_lag / out.detections as f64);
        }
        self.detections += out.detections as u64;
        self.rejoins += out.rejoins as u64;
        self.spawned_replicas += out.recovery_replicas as u64;
        self.reschedules += out.reschedules as u64;
        self.prestaged += out.prestaged as u64;
        self.recovery_messages += out.recovery_messages as u64;
        self.rejected_actions += out.rejected_actions as u64;
        self.net_transfers += out.net_transfers as u64;
        self.net_contended += out.net_contended as u64;
        self.net_delay.add(out.net_delay);
    }

    /// Number of runs recorded into the set: every run lands either in
    /// the latency histogram (completed) or in `incomplete_runs`.
    pub fn runs(&self) -> u64 {
        self.latency.count + self.incomplete_runs
    }

    /// Fraction of recorded runs that completed (1 while empty, matching
    /// [`BatchSummary::completion_rate`]). The validation harness reads
    /// completion claims from here — through the histogram counts — so a
    /// metrics-plumbing regression fails the science gate, not just the
    /// counter checks.
    pub fn completion_rate(&self) -> f64 {
        if self.runs() == 0 {
            return 1.0;
        }
        self.latency.count as f64 / self.runs() as f64
    }

    /// Mean slowdown over completed runs (`NaN` while empty), straight
    /// off the slowdown histogram's exact sum — the histogram-backed
    /// counterpart of [`BatchSummary::mean_slowdown`].
    pub fn mean_slowdown(&self) -> f64 {
        self.slowdown.mean()
    }

    /// Folds another set (same edges) into this one; exact and
    /// merge-order-insensitive.
    pub fn merge(&mut self, other: &MetricSet) {
        self.latency.merge(&other.latency);
        self.slowdown.merge(&other.slowdown);
        self.work_lost.merge(&other.work_lost);
        self.work_saved.merge(&other.work_saved);
        self.detection_lag.merge(&other.detection_lag);
        self.incomplete_runs += other.incomplete_runs;
        self.detections += other.detections;
        self.rejoins += other.rejoins;
        self.spawned_replicas += other.spawned_replicas;
        self.reschedules += other.reschedules;
        self.prestaged += other.prestaged;
        self.recovery_messages += other.recovery_messages;
        self.rejected_actions += other.rejected_actions;
        self.net_transfers += other.net_transfers;
        self.net_contended += other.net_contended;
        self.net_delay.merge(&other.net_delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(first_finish: Vec<Option<f64>>) -> RunOutcome {
        RunOutcome {
            first_finish,
            recovered: vec![false],
            num_failures: 1,
            detections: 2,
            rejoins: 1,
            reschedules: 1,
            recovery_replicas: 3,
            recovery_messages: 4,
            unrecoverable: 0,
            prestaged: 1,
            rejected_actions: 1,
            checkpoint_overhead: 0.5,
            work_saved: 1.5,
            work_lost: 2.5,
            detection_lag: 3.0,
            net_transfers: 2,
            net_contended: 1,
            net_delay: 0.25,
        }
    }

    #[test]
    fn histogram_records_and_merges_exactly() {
        let mut a = Histogram::new(vec![1.0, 2.0, 4.0]);
        a.record(0.5);
        a.record(2.0); // inclusive upper edge: lands in the ≤2 bucket
        a.record(9.0); // overflow
        assert_eq!(a.counts, vec![1, 1, 0, 1]);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 0.5);
        assert_eq!(a.max, 9.0);
        assert!((a.sum.value() - 11.5).abs() < 1e-12);

        let mut b = Histogram::new(vec![1.0, 2.0, 4.0]);
        b.record(3.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            serde_json::to_string(&ab).unwrap(),
            serde_json::to_string(&ba).unwrap(),
            "histogram merge must be order-insensitive to the byte"
        );
        assert_eq!(ab.counts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn empty_histogram_serde_round_trips() {
        let h = Histogram::new(vec![1.0, 2.0]);
        assert!(h.min.is_nan() && h.max.is_nan() && h.mean().is_nan());
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        // NaN → null → NaN round-trip for the min/max seeds.
        assert!(back.min.is_nan() && back.max.is_nan());
        assert_eq!(back.counts, h.counts);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn metric_set_records_runs() {
        let mut set = MetricSet::for_nominal(10.0);
        set.record(10.0, &outcome(vec![Some(12.0)]));
        set.record(10.0, &outcome(vec![None]));
        assert_eq!(set.latency.count, 1);
        assert_eq!(set.slowdown.count, 1);
        assert!((set.slowdown.max - 1.2).abs() < 1e-12);
        assert_eq!(set.incomplete_runs, 1);
        assert_eq!(set.detections, 4);
        assert_eq!(set.spawned_replicas, 6);
        // Mean per-run detection lag 3.0 / 2 detections = 1.5.
        assert_eq!(set.detection_lag.count, 2);
        assert!((set.detection_lag.max - 1.5).abs() < 1e-12);
        assert_eq!(set.work_lost.count, 2);
        assert_eq!(set.net_transfers, 4);
        assert_eq!(set.net_contended, 2);
        assert!((set.net_delay.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_cumulative_fractions() {
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0]);
        assert!(h.fraction_le(2.0).is_nan(), "empty histogram has no CDF");
        for x in [0.5, 1.5, 2.0, 9.0] {
            h.record(x);
        }
        assert_eq!(h.fraction_le(1.0), 0.25);
        assert_eq!(h.fraction_le(2.0), 0.75);
        // Between edges the answer rounds down to the previous edge.
        assert_eq!(h.fraction_le(3.0), 0.75);
        assert_eq!(h.fraction_le(4.0), 0.75);
        assert_eq!(h.fraction_le(0.0), 0.0);
    }

    #[test]
    fn metric_set_summary_accessors() {
        let mut set = MetricSet::for_nominal(10.0);
        assert_eq!(set.completion_rate(), 1.0, "empty set matches BatchSummary");
        set.record(10.0, &outcome(vec![Some(12.0)]));
        set.record(10.0, &outcome(vec![Some(15.0)]));
        set.record(10.0, &outcome(vec![None]));
        assert_eq!(set.runs(), 3);
        assert!((set.completion_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Exact-sum mean over the two completed slowdowns 1.2 and 1.5.
        assert!((set.mean_slowdown() - 1.35).abs() < 1e-12);
    }

    #[test]
    fn outcome_accessors() {
        let out = RunOutcome {
            first_finish: vec![Some(3.0), Some(5.0)],
            recovered: vec![false, true],
            num_failures: 1,
            detections: 1,
            rejoins: 0,
            reschedules: 0,
            recovery_replicas: 1,
            recovery_messages: 2,
            unrecoverable: 0,
            prestaged: 0,
            rejected_actions: 0,
            checkpoint_overhead: 0.0,
            work_saved: 0.0,
            work_lost: 0.0,
            detection_lag: 0.0,
            net_transfers: 0,
            net_contended: 0,
            net_delay: 0.0,
        };
        assert!(out.completed());
        assert_eq!(out.latency(), Some(5.0));
        assert_eq!(out.slowdown(2.5), Some(2.0));
        assert_eq!(out.tasks_recovered(), 1);

        let failed = RunOutcome {
            first_finish: vec![Some(3.0), None],
            ..out
        };
        assert!(!failed.completed());
        assert_eq!(failed.latency(), None);
    }
}
