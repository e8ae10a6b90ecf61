//! The serde job surface: what clients submit and what the daemon
//! streams back.

use ft_experiments::{CellSpec, DetectionKind, SweepGrid, WorkloadSpec};
use ft_runtime::{BatchSummary, Contention};
use serde::{Deserialize, Serialize};

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
    /// job-id character rule, non-empty axes, positive run count) so
    /// misconfigured jobs fail at submit/claim time with a message
    /// instead of producing an empty sweep — or, for a tenant such as
    /// `../x`, auto ids that escape the queue tree.
    pub fn validate(&self) -> Result<(), String> {
        if !is_safe_name(&self.tenant) {
            return Err(format!(
                "invalid tenant {:?}: use 1-128 ASCII letters, digits, '-', '_', '.'",
                self.tenant
            ));
        }
        if self.grid.runs == 0 {
            return Err("grid.runs must be positive".into());
        }
        if self.grid.mttf_factors.is_empty()
            || self.grid.mttr_factors.is_empty()
            || self.grid.detections.is_empty()
        {
            return Err("grid axes must be non-empty".into());
        }
        if self.workload.tasks == 0 || self.workload.procs == 0 {
            return Err("workload must have tasks and processors".into());
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
    }
}
