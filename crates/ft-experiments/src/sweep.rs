//! Job-facing sweep types: a serializable workload + scenario grid that
//! resolves into independently executable Monte-Carlo cells.
//!
//! The degradation experiment ([`run_degradation`](crate::run_degradation))
//! historically fused three concerns in one loop: *building* the workload
//! (graph → instance → CAFT schedule), *enumerating* the (policy × MTTF ×
//! MTTR × detection) cross product, and *executing* each cell's batch.
//! This module factors the first two out into plain serde data so that a
//! long-running service (`ft-serve`) can ship them in a job file, cache
//! the built artifacts across jobs, and execute cells incrementally:
//!
//! * [`WorkloadSpec`] — the workload recipe: [`build`](WorkloadSpec::build)
//!   reproduces the degradation sweep's exact RNG order (one `StdRng`
//!   seeded from `seed` drives the graph draw then the instance draw; the
//!   CAFT schedule reuses `seed`), so a spec extracted from a
//!   [`DegradationConfig`](crate::degradation::DegradationConfig)
//!   rebuilds byte-identical artifacts;
//! * [`SweepGrid`] — the scenario axes: [`cells`](SweepGrid::cells)
//!   enumerates the cross product in the degradation sweep's presentation
//!   order (MTTF outer, then MTTR, then detection, then the policy
//!   roster), each as a self-contained [`CellSpec`];
//! * [`CellSpec`] — one (policy, MTTF, MTTR, detection) cell:
//!   [`monte_carlo_config`](CellSpec::monte_carlo_config) resolves it
//!   against built artifacts into the exact [`MonteCarloConfig`] the
//!   [`Simulation`](ft_runtime::Simulation) front door would run, so
//!   [`run`](CellSpec::run) — or a chunked
//!   [`ChunkedBatch`](ft_runtime::ChunkedBatch) execution of the same
//!   config — is byte-identical to the historical sweep (pinned by the
//!   degradation golden tests and the `sweep_factors_the_degradation_loop`
//!   test below).

use ft_algos::{caft, CommModel};
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_model::FtSchedule;
use ft_platform::{random_instance, Instance, PlatformParams};
use ft_runtime::{
    simulate_many, BatchSummary, Contention, EngineConfig, FailureKind, LifetimeDist,
    MonteCarloConfig, RecoveryPolicy, RepairModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::degradation::DetectionKind;

/// The workload recipe of a sweep: everything needed to rebuild the
/// (instance, schedule) pair deterministically. Two specs with equal
/// fields build byte-identical artifacts — the property `ft-serve`'s
/// artifact cache keys on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Tasks in the random layered DAG.
    pub tasks: usize,
    /// Processors `m` of the platform.
    pub procs: usize,
    /// Supported failures ε of the static CAFT schedule.
    pub eps: usize,
    /// Granularity of the instance (computation/communication ratio).
    pub granularity: f64,
    /// Seed of the graph + instance draws and of the CAFT tie-breaks.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Builds the workload: graph and instance drawn from one `StdRng`
    /// seeded with `seed` (graph first — the same RNG order as the
    /// degradation sweep), then the ε-resilient CAFT schedule under the
    /// one-port model.
    pub fn build(&self) -> (Instance, FtSchedule) {
        let inst = self.build_instance();
        let sched = self.schedule(&inst);
        (inst, sched)
    }

    /// The instance half of [`build`](WorkloadSpec::build): graph +
    /// platform, independent of `eps` — the coarser of the two artifact
    /// levels a cache can share (every ε variant of a workload reuses
    /// it).
    pub fn build_instance(&self) -> Instance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let graph = random_layered(&RandomDagParams::default().with_tasks(self.tasks), &mut rng);
        random_instance(
            graph,
            &PlatformParams::default().with_procs(self.procs),
            self.granularity,
            &mut rng,
        )
    }

    /// The schedule half of [`build`](WorkloadSpec::build): the
    /// ε-resilient CAFT schedule of an instance built by
    /// [`build_instance`](WorkloadSpec::build_instance).
    pub fn schedule(&self, inst: &Instance) -> FtSchedule {
        caft(inst, self.eps, CommModel::OnePort, self.seed)
    }
}

/// The scenario axes of a sweep: the (MTTF × MTTR × detection × policy)
/// cross product, plus the run count and seeds shared by every cell.
/// [`cells`](SweepGrid::cells) resolves it into executable [`CellSpec`]s.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepGrid {
    /// MTTF axis, as multiples of the schedule's nominal latency
    /// (descending = increasing failure pressure).
    pub mttf_factors: Vec<f64>,
    /// MTTR axis: `None` = permanent fail-stop, `Some(f)` = transient
    /// failures with exponential repairs of mean `f × nominal`.
    pub mttr_factors: Vec<Option<f64>>,
    /// Detection-model axis.
    pub detections: Vec<DetectionKind>,
    /// Fixed checkpoint intervals of the policy roster, as multiples of
    /// the instance's mean task cost (one `Checkpoint` policy per entry).
    pub checkpoint_intervals: Vec<f64>,
    /// Per-checkpoint overhead, as a multiple of the mean task cost.
    pub checkpoint_overhead: f64,
    /// Restrict the roster to the policy with this
    /// [`name`](RecoveryPolicy::name); `None` runs the full roster.
    pub only_policy: Option<String>,
    /// Monte-Carlo runs per cell.
    pub runs: usize,
    /// Detection latency (the scale knob of every [`DetectionKind`]).
    pub detection_latency: f64,
    /// Base seed: each cell's simulation seed is `seed ^
    /// mttf_factor.to_bits()` (every policy at a rate sees the same fault
    /// draws), and gossip detection is seeded with `seed` itself.
    pub seed: u64,
    /// Link-contention model every cell's transfers are charged under.
    /// [`Contention::Ideal`] (the default) is the historical
    /// contention-free engine; job files without the field deserialize
    /// to `Ideal`.
    pub contention: Contention,
}

impl Default for SweepGrid {
    fn default() -> Self {
        let d = crate::degradation::DegradationConfig::default();
        d.grid()
    }
}

impl SweepGrid {
    /// The policy roster of one cell at failure rate `mttf` (absolute
    /// time units), in presentation order: the [`RecoveryPolicy::ALL`]
    /// registry, one `Checkpoint` per configured interval, then one
    /// `AdaptiveCheckpoint` tuned to the cell's MTTF — filtered down when
    /// `only_policy` is set.
    pub fn roster(&self, mean_task_cost: f64, mttf: f64) -> Vec<RecoveryPolicy> {
        let mut all: Vec<RecoveryPolicy> = RecoveryPolicy::ALL.to_vec();
        for &iv in &self.checkpoint_intervals {
            all.push(RecoveryPolicy::checkpoint(
                iv * mean_task_cost,
                self.checkpoint_overhead * mean_task_cost,
            ));
        }
        all.push(RecoveryPolicy::adaptive_checkpoint(
            mttf,
            self.checkpoint_overhead * mean_task_cost,
        ));
        if let Some(name) = &self.only_policy {
            all.retain(|p| p.name() == name.as_str());
        }
        all
    }

    /// The number of cells [`cells`](SweepGrid::cells) resolves to —
    /// |MTTF| × |MTTR| × |detections| × roster size, saturating at
    /// `usize::MAX` — counted without building the roster, whose policy
    /// constructors assert on their parameters.
    pub fn cell_count(&self) -> usize {
        let keep = |name: &str| self.only_policy.as_deref().is_none_or(|only| only == name);
        let builtins = RecoveryPolicy::ALL
            .iter()
            .filter(|p| keep(p.name()))
            .count();
        let fixed = if keep("checkpoint") {
            self.checkpoint_intervals.len()
        } else {
            0
        };
        let roster = builtins + fixed + usize::from(keep("adaptive-checkpoint"));
        [
            self.mttf_factors.len(),
            self.mttr_factors.len(),
            self.detections.len(),
            roster,
        ]
        .into_iter()
        .fold(1, usize::saturating_mul)
    }

    /// Checks every value the grid's cells hand to a runtime constructor,
    /// scaled as [`cells`](SweepGrid::cells) and
    /// [`CellSpec::monte_carlo_config`] scale it against a workload of
    /// the given mean task cost and `nominal` latency: MTTF and MTTR
    /// factors × `nominal`, checkpoint intervals and overhead × the mean
    /// task cost, and the delays each detection model derives from
    /// `detection_latency`. Each must be finite and positive (a detection
    /// delay may be 0). Finite factors can overflow once scaled, and the
    /// constructors assert on the result, so a service calls this before
    /// [`cells`](SweepGrid::cells) to fail such a grid with a diagnostic
    /// that names the axis.
    pub fn check_scaled(&self, mean_task_cost: f64, nominal: f64) -> Result<(), String> {
        let scaled = |axis: &str, factor: f64, base: f64, unit: &str| {
            let x = factor * base;
            if x.is_finite() && x > 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "{axis}: {factor} × the {unit} {base} = {x} is not finite and positive"
                ))
            }
        };
        let latency = "nominal latency";
        for &f in &self.mttf_factors {
            scaled("grid.mttf_factors", f, nominal, latency)?;
        }
        for &f in self.mttr_factors.iter().flatten() {
            scaled("grid.mttr_factors", f, nominal, latency)?;
        }
        let cost = "mean task cost";
        for &f in &self.checkpoint_intervals {
            scaled("grid.checkpoint_intervals", f, mean_task_cost, cost)?;
        }
        scaled(
            "grid.checkpoint_overhead",
            self.checkpoint_overhead,
            mean_task_cost,
            cost,
        )?;
        // The delays of `DetectionKind::model`: the latency itself, a
        // spread over [0.5, 1.5] × the latency, or gossip rounds every
        // latency / 2.
        let d = self.detection_latency;
        for &kind in &self.detections {
            let fits = match kind {
                DetectionKind::Uniform => d.is_finite() && d >= 0.0,
                DetectionKind::PerProcessor => d >= 0.0 && (1.5 * d).is_finite(),
                DetectionKind::Gossip => (d / 2.0).is_finite() && d / 2.0 > 0.0,
            };
            if !fits {
                return Err(format!(
                    "grid.detection_latency = {d} gives {} detection no valid delay",
                    kind.name()
                ));
            }
        }
        Ok(())
    }

    /// Resolves the grid into executable cells against a schedule of the
    /// given `nominal` latency on an instance of the given mean task
    /// cost, in the degradation sweep's order: MTTF outer, then MTTR,
    /// then detection, then the per-rate policy roster.
    pub fn cells(&self, mean_task_cost: f64, nominal: f64) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &mttf_factor in &self.mttf_factors {
            let roster = self.roster(mean_task_cost, nominal * mttf_factor);
            for &mttr_factor in &self.mttr_factors {
                for &detection in &self.detections {
                    for &policy in &roster {
                        cells.push(CellSpec {
                            policy,
                            mttf_factor,
                            mttr_factor,
                            detection,
                            detection_latency: self.detection_latency,
                            detection_seed: self.seed,
                            runs: self.runs,
                            seed: self.seed ^ mttf_factor.to_bits(),
                            contention: self.contention,
                        });
                    }
                }
            }
        }
        cells
    }
}

/// One fully-resolved sweep cell: a recovery policy under one (MTTF,
/// MTTR, detection) scenario. Self-contained and serializable — a cell
/// plus built workload artifacts determines its batch completely.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellSpec {
    /// The recovery policy of the cell (checkpoint intervals already in
    /// absolute time units — scaled by the roster, not here).
    pub policy: RecoveryPolicy,
    /// MTTF as a multiple of the schedule's nominal latency.
    pub mttf_factor: f64,
    /// `None` = permanent fail-stop; `Some(f)` = transient failures with
    /// exponential repairs of mean `f × nominal`.
    pub mttr_factor: Option<f64>,
    /// Detection-model selector.
    pub detection: DetectionKind,
    /// Detection latency the selector is scaled by.
    pub detection_latency: f64,
    /// Seed of the gossip detection rounds (the sweep's base seed — all
    /// cells share one gossip schedule, like the historical sweep).
    pub detection_seed: u64,
    /// Monte-Carlo runs of the cell.
    pub runs: usize,
    /// Simulation seed (scenario stream + engine streams).
    pub seed: u64,
    /// Link-contention model the cell's transfers are charged under
    /// (defaults to [`Contention::Ideal`] in legacy cell records).
    pub contention: Contention,
}

impl CellSpec {
    /// The cell's failure kind for a schedule of the given nominal
    /// latency: permanent fail-stop, or — when `mttr_factor` is set —
    /// transient failures with exponential repairs of mean
    /// `mttr_factor × nominal` and new epochs drawn up to a
    /// `4 × nominal` horizon. The horizon keeps the draw finite; it also
    /// means a run still going past `4 × nominal` faces no *further*
    /// attrition, while the permanent column draws unbounded crash
    /// times — so permanent-vs-transient completion is an aggregate
    /// comparison with a known tail bias toward transient (second-order
    /// here: completed transient runs finish near `1 × nominal`, far
    /// inside the horizon; the caveat is spelled out in EXPERIMENTS.md).
    pub fn failure_kind(&self, nominal: f64) -> FailureKind {
        match self.mttr_factor {
            None => FailureKind::Permanent,
            Some(f) => FailureKind::transient(
                RepairModel::Exponential { mean: f * nominal },
                4.0 * nominal,
            ),
        }
    }

    /// Resolves the cell against built artifacts into the exact
    /// [`MonteCarloConfig`] the [`Simulation`](ft_runtime::Simulation)
    /// front door would execute: same lifetime, failure kind, engine
    /// config and seed — so running it through [`simulate_many`] (or
    /// chunked via [`ChunkedBatch`](ft_runtime::ChunkedBatch)) is
    /// byte-identical to the historical degradation loop.
    pub fn monte_carlo_config(&self, inst: &Instance, sched: &FtSchedule) -> MonteCarloConfig {
        let nominal = sched.latency();
        MonteCarloConfig {
            runs: self.runs,
            lifetime: LifetimeDist::Exponential {
                mean: nominal * self.mttf_factor,
            },
            failure: self.failure_kind(nominal),
            engine: EngineConfig {
                policy: self.policy,
                detection: self.detection.model(
                    inst.num_procs(),
                    self.detection_latency,
                    self.detection_seed,
                ),
                seed: self.seed,
                contention: self.contention,
            },
            seed: self.seed,
        }
    }

    /// Runs the cell's Monte-Carlo batch to completion.
    pub fn run(&self, inst: &Instance, sched: &FtSchedule) -> BatchSummary {
        simulate_many(inst, sched, &self.monte_carlo_config(inst, sched))
    }

    /// A human-readable cell key for result records, e.g.
    /// `mttf4x/permanent/uniform/re-replicate`.
    pub fn label(&self) -> String {
        let failures = match self.mttr_factor {
            None => "permanent".to_string(),
            Some(f) => format!("mttr{f}x"),
        };
        format!(
            "mttf{}x/{failures}/{}/{}",
            self.mttf_factor,
            self.detection.name(),
            self.policy.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degradation::{run_degradation, DegradationConfig};
    use ft_runtime::ChunkedBatch;

    fn quick() -> DegradationConfig {
        DegradationConfig {
            tasks: 25,
            procs: 6,
            runs: 40,
            mttf_factors: vec![8.0, 2.0],
            ..Default::default()
        }
    }

    #[test]
    fn workload_build_is_deterministic() {
        let cfg = quick();
        let spec = cfg.workload();
        let (i1, s1) = spec.build();
        let (i2, s2) = spec.build();
        assert_eq!(i1.num_procs(), cfg.procs);
        assert_eq!(i1.mean_task_cost().to_bits(), i2.mean_task_cost().to_bits());
        assert_eq!(s1.latency().to_bits(), s2.latency().to_bits());
    }

    #[test]
    fn sweep_factors_the_degradation_loop() {
        // The factored path — workload().build() + grid().cells() +
        // CellSpec::run — must reproduce run_degradation byte-for-byte:
        // the grid/cell types add zero science.
        let cfg = quick();
        let rows = run_degradation(&cfg);
        let (inst, sched) = cfg.workload().build();
        let cells = cfg.grid().cells(inst.mean_task_cost(), sched.latency());
        assert_eq!(cells.len(), rows.len());
        for (cell, row) in cells.iter().zip(&rows) {
            assert_eq!(cell.mttf_factor, row.mttf_factor);
            assert_eq!(
                serde_json::to_string(&cell.run(&inst, &sched)).unwrap(),
                serde_json::to_string(&row.summary).unwrap(),
                "cell {} diverged from the degradation loop",
                cell.label()
            );
        }
    }

    #[test]
    fn chunked_cell_execution_is_byte_identical() {
        // The service execution path: a cell resolved to a
        // MonteCarloConfig and run through ChunkedBatch in small chunks
        // must equal the direct batch — determinism survives chunking.
        let cfg = quick();
        let (inst, sched) = cfg.workload().build();
        let cell = &cfg.grid().cells(inst.mean_task_cost(), sched.latency())[1];
        let mc = cell.monte_carlo_config(&inst, &sched);
        let mut chunked = ChunkedBatch::new(&inst, &sched, &mc, &mc.engine.policy);
        while chunked.run_chunk(7) > 0 {}
        assert_eq!(
            serde_json::to_string(&chunked.finish()).unwrap(),
            serde_json::to_string(&cell.run(&inst, &sched)).unwrap()
        );
    }

    #[test]
    fn grid_cross_product_covers_every_axis_combination() {
        let grid = SweepGrid {
            mttf_factors: vec![8.0, 2.0],
            mttr_factors: vec![None, Some(0.25)],
            detections: vec![DetectionKind::Uniform, DetectionKind::Gossip],
            only_policy: Some("absorb".into()),
            runs: 10,
            ..SweepGrid::default()
        };
        let cells = grid.cells(1.0, 10.0);
        assert_eq!(cells.len(), 2 * 2 * 2, "one absorb cell per combination");
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), {
            let mut u = labels.clone();
            u.sort();
            u.dedup();
            u.len()
        });
        // MTTF outer: the first half of the cells is the first factor.
        assert!(cells[..4].iter().all(|c| c.mttf_factor == 8.0));
        // Same fault stream for every cell at a rate.
        assert!(cells[..4]
            .iter()
            .all(|c| c.seed == grid.seed ^ 8.0f64.to_bits()));
    }

    #[test]
    fn cell_count_matches_the_resolved_cells() {
        let full = SweepGrid {
            mttf_factors: vec![8.0, 2.0, 1.0],
            mttr_factors: vec![None, Some(0.25)],
            detections: vec![DetectionKind::Uniform, DetectionKind::Gossip],
            checkpoint_intervals: vec![0.25, 1.0],
            ..SweepGrid::default()
        };
        let names = [
            None,
            Some("absorb"),
            Some("warm-spare"),
            Some("checkpoint"),
            Some("adaptive-checkpoint"),
            Some("rereplicate"),
        ];
        for only in names {
            let grid = SweepGrid {
                only_policy: only.map(str::to_string),
                ..full.clone()
            };
            assert_eq!(grid.cell_count(), grid.cells(1.0, 10.0).len(), "{only:?}");
        }
        let typo = SweepGrid {
            only_policy: Some("rereplicate".into()),
            ..full.clone()
        };
        assert_eq!(typo.cell_count(), 0);
        // 2⁴⁸ · (2¹⁶ + 5) cells: past usize::MAX.
        let huge = SweepGrid {
            mttf_factors: vec![1.0; 1 << 16],
            mttr_factors: vec![None; 1 << 16],
            detections: vec![DetectionKind::Uniform; 1 << 16],
            checkpoint_intervals: vec![1.0; 1 << 16],
            ..full
        };
        assert_eq!(huge.cell_count(), usize::MAX);
    }

    #[test]
    fn check_scaled_names_the_axis_a_scaled_value_breaks() {
        let ok = SweepGrid {
            mttr_factors: vec![None, Some(0.25)],
            detections: vec![
                DetectionKind::Uniform,
                DetectionKind::PerProcessor,
                DetectionKind::Gossip,
            ],
            ..SweepGrid::default()
        };
        ok.check_scaled(2.0, 100.0).unwrap();
        let bad = |edit: fn(&mut SweepGrid), axis: &str| {
            let mut grid = ok.clone();
            edit(&mut grid);
            let diag = grid.check_scaled(2.0, 100.0).unwrap_err();
            assert!(diag.contains(axis), "{diag}");
        };
        bad(|g| g.mttf_factors = vec![1e308], "grid.mttf_factors");
        bad(|g| g.mttr_factors = vec![Some(1e308)], "grid.mttr_factors");
        bad(|g| g.mttr_factors = vec![Some(-1.0)], "grid.mttr_factors");
        bad(
            |g| g.checkpoint_intervals = vec![1e308],
            "grid.checkpoint_intervals",
        );
        bad(
            |g| g.checkpoint_overhead = 1e308,
            "grid.checkpoint_overhead",
        );
        bad(|g| g.detection_latency = -1.0, "grid.detection_latency");
        bad(|g| g.detection_latency = f64::NAN, "grid.detection_latency");
        bad(|g| g.detection_latency = 1.7e308, "grid.detection_latency");
        bad(|g| g.detection_latency = 0.0, "grid.detection_latency");
        // Instant detection is legal where no model divides it.
        let mut instant = ok.clone();
        instant.detections = vec![DetectionKind::Uniform, DetectionKind::PerProcessor];
        instant.detection_latency = 0.0;
        instant.check_scaled(2.0, 100.0).unwrap();
        // A grid that passes runs without tripping a constructor.
        let (inst, sched) = quick().workload().build();
        for mut cell in ok.cells(inst.mean_task_cost(), sched.latency()) {
            cell.runs = 2;
            cell.run(&inst, &sched);
        }
    }

    #[test]
    fn cell_specs_round_trip_through_serde() {
        let grid = quick().grid();
        let cells = grid.cells(1.0, 10.0);
        let json = serde_json::to_string(&cells).unwrap();
        let back: Vec<CellSpec> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), cells.len());
        for (a, b) in cells.iter().zip(&back) {
            assert_eq!(a.label(), b.label());
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.runs, b.runs);
        }
        let gjson = serde_json::to_string(&grid).unwrap();
        let gback: SweepGrid = serde_json::from_str(&gjson).unwrap();
        assert_eq!(gback.cells(1.0, 10.0).len(), cells.len());
    }
}
