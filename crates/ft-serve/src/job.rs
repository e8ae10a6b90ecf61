//! The serde job surface: what clients submit and what the daemon
//! streams back.

use ft_experiments::{CellSpec, DetectionKind, SweepGrid, WorkloadSpec};
use ft_runtime::{BatchSummary, Contention};
use serde::{Deserialize, Serialize};

/// The most processors a job's workload may ask for. The instance build
/// allocates `procs²` delay and routing tables, and a failed allocation
/// aborts the daemon (no unwind guard catches it), so an oversized
/// workload must fail at validation, before anything is built.
pub(crate) const MAX_PROCS: usize = 1_024;

/// The largest `tasks × procs` execution matrix a job's workload may ask
/// for, for the same reason as [`MAX_PROCS`].
pub(crate) const MAX_TASK_PROCS: usize = 10_000_000;

/// The most cells a job's grid may resolve to. The daemon builds the
/// whole cell list and keeps every finished cell's summary until the
/// job's `final.json` is written, so an axis product of 10⁹ cells would
/// abort the daemon on a refused allocation, as for [`MAX_PROCS`].
pub(crate) const MAX_CELLS: usize = 1_024;

/// The most Monte-Carlo runs a job may ask for over all its cells
/// (`grid.runs × cells`): a batch chunk lists its run indices before it
/// runs them, and no job should hold a worker for longer than this many
/// runs.
pub(crate) const MAX_RUNS: usize = 10_000_000;

/// A simulation job: one tenant's workload plus the scenario grid to
/// sweep over it. Everything the daemon needs is in the spec — resolved
/// workload artifacts are shared through the
/// [`ArtifactCache`](crate::ArtifactCache), so two jobs naming the same
/// [`WorkloadSpec`] build it once.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSpec {
    /// The submitting tenant (fairness domain of the worker pool; also
    /// the namespace of auto-generated job ids).
    pub tenant: String,
    /// The workload recipe (graph → instance → CAFT schedule).
    pub workload: WorkloadSpec,
    /// The scenario axes swept over the workload.
    pub grid: SweepGrid,
    /// Delta-snapshot interval in Monte-Carlo runs: while a cell runs,
    /// a partial [`BatchSummary`] snapshot is appended to the job's
    /// `deltas.jsonl` every `delta_every` runs. `0` disables streaming
    /// (only the final record is written). Any value yields the same
    /// final bytes — chunking cannot change the science.
    pub delta_every: usize,
}

impl JobSpec {
    /// A small, fast example job for `tenant` — the spec behind
    /// `ft-serve example-spec`, sized for tests and CI acceptance (a
    /// 2-rate × full-roster grid over a 25-task workload).
    pub fn example(tenant: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            workload: WorkloadSpec {
                tasks: 25,
                procs: 6,
                eps: 1,
                granularity: 1.0,
                seed: 0x5EED,
            },
            grid: SweepGrid {
                mttf_factors: vec![8.0, 2.0],
                mttr_factors: vec![None],
                detections: vec![DetectionKind::Uniform],
                checkpoint_intervals: vec![0.25],
                checkpoint_overhead: 0.005,
                only_policy: None,
                runs: 40,
                detection_latency: 1.0,
                seed: 0x5EED,
                contention: Contention::Ideal,
            },
            delta_every: 16,
        }
    }

    /// The job's resolved cell list (requires building the workload to
    /// scale the grid; the daemon resolves through the cache instead).
    pub fn cells(&self) -> Vec<CellSpec> {
        let (inst, sched) = self.workload.build();
        self.grid.cells(inst.mean_task_cost(), sched.latency())
    }

    /// Executes every cell directly through
    /// [`simulate_many`](ft_runtime::simulate_many) — the reference the
    /// daemon's final record must match byte-for-byte (the `ft-serve
    /// verify` path).
    pub fn direct_cell_results(&self) -> Vec<CellResult> {
        let (inst, sched) = self.workload.build();
        self.grid
            .cells(inst.mean_task_cost(), sched.latency())
            .iter()
            .map(|cell| CellResult {
                label: cell.label(),
                summary: cell.run(&inst, &sched),
            })
            .collect()
    }

    /// Validates the spec's cheap invariants (a tenant that follows the
    /// job-id character rule, non-empty axes, positive run count, axis
    /// values the policy roster accepts, at least one cell, a workload
    /// the CAFT build accepts, and the cell, run and workload size
    /// limits) so misconfigured jobs fail at submit/claim time with a
    /// message instead of producing an empty sweep, panicking mid-build
    /// or aborting the daemon on a refused allocation — or, for a tenant
    /// such as `../x`, auto ids that escape the queue tree.
    pub fn validate(&self) -> Result<(), String> {
        if !is_safe_name(&self.tenant) {
            return Err(format!(
                "invalid tenant {:?}: use 1-128 ASCII letters, digits, '-', '_', '.'",
                self.tenant
            ));
        }
        let g = &self.grid;
        if g.runs == 0 {
            return Err("grid.runs must be positive".into());
        }
        if g.mttf_factors.is_empty() || g.mttr_factors.is_empty() || g.detections.is_empty() {
            return Err("grid axes must be non-empty".into());
        }
        // The values the policy roster's constructors assert on.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        for (axis, values) in [
            ("grid.mttf_factors", &g.mttf_factors),
            ("grid.checkpoint_intervals", &g.checkpoint_intervals),
        ] {
            if let Some(bad) = values.iter().find(|&&x| !positive(x)) {
                return Err(format!("{axis} must be finite and positive, got {bad}"));
            }
        }
        if let Some(bad) = g.mttr_factors.iter().flatten().find(|&&x| !positive(x)) {
            return Err(format!(
                "grid.mttr_factors must be finite and positive, got {bad}"
            ));
        }
        if !positive(g.checkpoint_overhead) {
            return Err(format!(
                "grid.checkpoint_overhead must be finite and positive, got {}",
                g.checkpoint_overhead
            ));
        }
        if !(g.detection_latency.is_finite() && g.detection_latency >= 0.0) {
            return Err(format!(
                "grid.detection_latency must be finite and non-negative, got {}",
                g.detection_latency
            ));
        }
        let cells = g.cell_count();
        if cells == 0 {
            return Err(format!(
                "the grid resolves to 0 cells: grid.only_policy = {:?} names no policy of the roster",
                g.only_policy.as_deref().unwrap_or_default()
            ));
        }
        if cells > MAX_CELLS {
            return Err(format!(
                "the grid resolves to {cells} cells (mttf_factors × mttr_factors × detections × \
                 roster), over the limit of {MAX_CELLS} cells"
            ));
        }
        if g.runs.saturating_mul(cells) > MAX_RUNS {
            return Err(format!(
                "grid.runs × cells = {} × {cells} exceeds the limit of {MAX_RUNS} runs",
                g.runs
            ));
        }
        let w = &self.workload;
        if w.tasks == 0 || w.procs == 0 {
            return Err("workload must have tasks and processors".into());
        }
        if w.procs > MAX_PROCS {
            return Err(format!(
                "workload.procs = {} exceeds the limit of {MAX_PROCS} processors",
                w.procs
            ));
        }
        if w.tasks.saturating_mul(w.procs) > MAX_TASK_PROCS {
            return Err(format!(
                "workload.tasks × workload.procs = {} × {} exceeds the limit of {MAX_TASK_PROCS}",
                w.tasks, w.procs
            ));
        }
        if w.eps >= w.procs {
            return Err(format!(
                "workload.eps = {} needs more than eps processors, got procs = {}",
                w.eps, w.procs
            ));
        }
        if !(w.granularity.is_finite() && w.granularity > 0.0) {
            return Err(format!(
                "workload.granularity must be finite and positive, got {}",
                w.granularity
            ));
        }
        Ok(())
    }
}

/// The job-id character rule: 1–128 ASCII letters, digits, `-`, `_` or
/// `.`. Job ids name files under the queue root and auto ids are built
/// from the tenant, so both are held to it: no path separator reaches a
/// file name.
pub(crate) fn is_safe_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// One finished cell of a job: the cell's key and its Monte-Carlo
/// aggregate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell key (see [`CellSpec::label`]).
    pub label: String,
    /// The cell's batch aggregate.
    pub summary: BatchSummary,
}

/// One streaming delta: a partial snapshot of a cell in progress,
/// appended to `results/<job>/deltas.jsonl`. Each snapshot covers **all
/// runs of the cell so far** (snapshots supersede each other — a client
/// only needs the latest line per cell).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeltaRecord {
    /// The job id.
    pub job: String,
    /// Index of the cell in the job's cell list.
    pub cell: usize,
    /// The cell key (see [`CellSpec::label`]).
    pub label: String,
    /// Runs executed so far.
    pub completed_runs: usize,
    /// Total runs of the cell.
    pub total_runs: usize,
    /// The partial aggregate over the runs so far — a well-defined
    /// [`BatchSummary`] (exactly the summary a `completed_runs`-run
    /// batch would produce).
    pub summary: BatchSummary,
}

/// The final record of a job, written atomically to
/// `results/<job>/final.json` when every cell finished.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FinalRecord {
    /// The job id.
    pub job: String,
    /// The submitting tenant.
    pub tenant: String,
    /// Every cell's final aggregate, in grid order — byte-identical to
    /// the same grid run directly through
    /// [`simulate_many`](ft_runtime::simulate_many).
    pub cells: Vec<CellResult>,
    /// Whether this job's workload resolution hit the artifact cache.
    pub cache: crate::cache::ResolveOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_experiments::DegradationConfig;

    #[test]
    fn example_spec_round_trips_and_validates() {
        let spec = JobSpec::example("alice");
        spec.validate().unwrap();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tenant, "alice");
        assert_eq!(back.grid.runs, spec.grid.runs);
        assert_eq!(back.delta_every, spec.delta_every);
        assert_eq!(back.cells().len(), spec.cells().len());
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut spec = JobSpec::example("");
        assert!(spec.validate().is_err(), "empty tenant");
        spec.tenant = "t".into();
        spec.grid.runs = 0;
        assert!(spec.validate().is_err(), "zero runs");
        spec.grid.runs = 1;
        spec.grid.mttf_factors.clear();
        assert!(spec.validate().is_err(), "empty axis");
        let mut spec = JobSpec::example("t");
        spec.workload.eps = spec.workload.procs;
        assert!(spec.validate().is_err(), "ε + 1 > m");
        spec.workload.eps = usize::MAX;
        let diag = spec.validate().unwrap_err();
        assert!(diag.contains("workload.eps"), "{diag}");
        for g in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut spec = JobSpec::example("t");
            spec.workload.granularity = g;
            assert!(spec.validate().is_err(), "granularity {g}");
        }
        let mut spec = JobSpec::example("t");
        spec.workload.procs = MAX_PROCS;
        spec.workload.tasks = MAX_TASK_PROCS / MAX_PROCS;
        spec.validate().expect("a workload at both size limits");
        spec.workload.procs = MAX_PROCS + 1;
        let diag = spec.validate().unwrap_err();
        assert!(
            diag.contains("workload.procs") && diag.contains("limit"),
            "{diag}"
        );
        spec.workload.procs = MAX_PROCS;
        for tasks in [MAX_TASK_PROCS / MAX_PROCS + 1, usize::MAX] {
            spec.workload.tasks = tasks;
            let diag = spec.validate().unwrap_err();
            assert!(
                diag.contains("workload.tasks") && diag.contains("limit"),
                "{diag}"
            );
        }

        // Axis values the policy roster's constructors assert on.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut spec = JobSpec::example("t");
            spec.grid.mttf_factors.push(bad);
            let diag = spec.validate().unwrap_err();
            assert!(diag.contains("grid.mttf_factors"), "{diag}");
            let mut spec = JobSpec::example("t");
            spec.grid.checkpoint_intervals.push(bad);
            let diag = spec.validate().unwrap_err();
            assert!(diag.contains("grid.checkpoint_intervals"), "{diag}");
            let mut spec = JobSpec::example("t");
            spec.grid.checkpoint_overhead = bad;
            let diag = spec.validate().unwrap_err();
            assert!(diag.contains("grid.checkpoint_overhead"), "{diag}");
            let mut spec = JobSpec::example("t");
            spec.grid.mttr_factors.push(Some(bad));
            let diag = spec.validate().unwrap_err();
            assert!(diag.contains("grid.mttr_factors"), "{diag}");
        }
        // The repair and detection constructors assert on these too.
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut spec = JobSpec::example("t");
            spec.grid.detection_latency = bad;
            let diag = spec.validate().unwrap_err();
            assert!(diag.contains("grid.detection_latency"), "{diag}");
        }
        let mut spec = JobSpec::example("t");
        spec.grid.mttr_factors = vec![None, Some(0.25)];
        spec.grid.detection_latency = 0.0;
        spec.validate()
            .expect("transient failures, instant detection");

        // A roster filter that names nothing resolves to 0 cells.
        let mut spec = JobSpec::example("t");
        spec.grid.only_policy = Some("rereplicate".into());
        let diag = spec.validate().unwrap_err();
        assert!(
            diag.contains("0 cells") && diag.contains("rereplicate"),
            "{diag}"
        );
        spec.grid.only_policy = Some("checkpoint".into());
        spec.grid.checkpoint_intervals.clear();
        let diag = spec.validate().unwrap_err();
        assert!(diag.contains("0 cells"), "{diag}");

        // Cell and run caps: three 1,000-entry axes (≈ 10⁹ cells) are
        // refused; exactly MAX_CELLS cells with the most runs per cell the
        // run cap admits pass, and one more cell or run per cell is
        // refused.
        let mut spec = JobSpec::example("t");
        spec.grid.mttf_factors = vec![2.0; 1_000];
        spec.grid.mttr_factors = vec![None; 1_000];
        spec.grid.detections = vec![DetectionKind::Uniform; 1_000];
        let diag = spec.validate().unwrap_err();
        assert!(diag.contains("cells") && diag.contains("limit"), "{diag}");
        let mut spec = JobSpec::example("t");
        spec.grid.only_policy = Some("absorb".into());
        spec.grid.mttf_factors = vec![2.0; MAX_CELLS];
        spec.grid.runs = MAX_RUNS / MAX_CELLS;
        spec.validate().expect("a grid at both caps");
        spec.grid.mttf_factors.push(2.0);
        let diag = spec.validate().unwrap_err();
        assert!(diag.contains("cells") && diag.contains("limit"), "{diag}");
        spec.grid.mttf_factors.pop();
        for runs in [MAX_RUNS / MAX_CELLS + 1, usize::MAX] {
            spec.grid.runs = runs;
            let diag = spec.validate().unwrap_err();
            assert!(
                diag.contains("grid.runs") && diag.contains("limit"),
                "{diag}"
            );
        }

        // The caps admit the example spec (12 cells × 40 runs), the
        // benchmark's serve-stream jobs (3 cells × 64 runs, one roster
        // entry each) and the default degradation grid as a job (35 cells
        // × 400 runs).
        assert_eq!(JobSpec::example("t").grid.cell_count(), 12);
        for only in [
            "absorb",
            "re-replicate",
            "warm-spare",
            "checkpoint",
            "adaptive-checkpoint",
        ] {
            let mut spec = JobSpec::example("t");
            spec.grid.mttf_factors = vec![8.0, 4.0, 2.0];
            spec.grid.only_policy = Some(only.into());
            spec.grid.runs = 64;
            spec.validate().unwrap();
            assert_eq!(spec.grid.cell_count(), 3, "{only}");
        }
        let mut spec = JobSpec::example("t");
        spec.grid = DegradationConfig::default().grid();
        spec.validate().unwrap();
        assert_eq!((spec.grid.cell_count(), spec.grid.runs), (35, 400));
    }
}
