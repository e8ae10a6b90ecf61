//! Monte-Carlo driver: a streaming, mergeable aggregation of timed-failure
//! runs.
//!
//! [`simulate_many`] draws one timed [`FaultScenario`] per run from a
//! [`LifetimeDist`], executes each under the configured recovery policy
//! (rayon-parallel), and **streams** the outcomes into a
//! [`BatchAccumulator`] via `fold` + `reduce`: each worker folds its runs
//! into one constant-size accumulator, and the per-chunk accumulators are
//! merged in a deterministic order. Memory is O(threads), not O(runs) —
//! a 10⁶-run batch holds a handful of ~4 KB accumulators instead of 10⁶
//! [`RunOutcome`]s (hundreds of MB at paper scale).
//!
//! Two properties are pinned by `tests/timed_model.rs`:
//!
//! * run `i`'s scenario depends only on `(seed, i)` (SplitMix-mixed), so
//!   the batch is reproducible run-for-run;
//! * the accumulator's floating-point sums are kept in an **exact**
//!   fixed-point form ([`ExactSum`]), so merging is associative *to the
//!   bit*: the [`BatchSummary`] is byte-identical regardless of thread
//!   count, chunk boundaries or merge tree — and identical to feeding the
//!   collected outcomes through one accumulator sequentially (the old
//!   collect-then-summarize path).
//!
//! # Example
//!
//! ```
//! use ft_runtime::{
//!     simulate_many, EngineConfig, FailureKind, LifetimeDist, MonteCarloConfig, RecoveryPolicy,
//! };
//! use ft_algos::{caft, CommModel};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(5);
//! let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! let sched = caft(&inst, 1, CommModel::OnePort, 5);
//!
//! let cfg = MonteCarloConfig {
//!     runs: 100,
//!     lifetime: LifetimeDist::Exponential { mean: 4.0 * sched.latency() },
//!     failure: FailureKind::Permanent,
//!     engine: EngineConfig::with_policy(RecoveryPolicy::checkpoint(2.0, 0.05)),
//!     seed: 9,
//! };
//! let summary = simulate_many(&inst, &sched, &cfg);
//! assert_eq!(summary.runs, 100);
//! // Same configuration ⇒ byte-identical summary.
//! assert_eq!(
//!     summary.one_line(),
//!     simulate_many(&inst, &sched, &cfg).one_line(),
//! );
//! ```

use crate::engine::run_into;
use crate::lifetime::{draw_scenario_with, FailureKind, LifetimeDist};
use crate::metrics::{BatchSummary, MetricSet, RunOutcome};
use crate::policy::{EngineConfig, Policy, RecoveryPolicy};
use crate::scratch::{checkpoint_table, EngineScratch, ScratchPool, StaticPlan};
use ft_model::FtSchedule;
use ft_platform::Instance;
use ft_sim::FaultScenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Configuration of a Monte-Carlo batch: the positional form of
/// [`Simulation::monte_carlo`](crate::Simulation::monte_carlo), taken by
/// [`simulate_many`], [`simulate_grid`] and [`ChunkedBatch`]. Unlike the
/// builder's single seed, it carries the engine seed (`engine.seed`) and
/// the scenario-stream seed (`seed`) separately.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonteCarloConfig {
    /// Number of independent runs.
    pub runs: usize,
    /// Lifetime distribution the per-processor crash times are drawn from.
    pub lifetime: LifetimeDist,
    /// Whether drawn failures are permanent (the paper's fail-stop model
    /// and the historical batch behavior) or transient with a repair
    /// model (see [`FailureKind`]).
    pub failure: FailureKind,
    /// Engine configuration (recovery policy, detection model, seed).
    pub engine: EngineConfig,
    /// Base seed of the scenario stream; run `i` uses a generator seeded
    /// from `(seed, i)`, so the batch is reproducible and
    /// order-independent.
    pub seed: u64,
}

/// The scenario of run `i` of a batch seeded with `seed`: a SplitMix-style
/// mix of `(seed, i)` keeps per-run streams decorrelated.
pub(crate) fn scenario_of_run(
    seed: u64,
    lifetime: &LifetimeDist,
    failure: &FailureKind,
    m: usize,
    i: usize,
) -> FaultScenario {
    let mixed = seed.wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut rng = StdRng::seed_from_u64(mixed);
    draw_scenario_with(m, lifetime, failure, &mut rng)
}

impl MonteCarloConfig {
    /// The scenario of run `i` (exposed so callers can replay a run of
    /// interest in isolation).
    pub fn scenario_of_run(&self, m: usize, i: usize) -> FaultScenario {
        scenario_of_run(self.seed, &self.lifetime, &self.failure, m, i)
    }
}

/// Runs `cfg.runs` independent timed-failure simulations of the schedule
/// (in parallel via rayon) and aggregates them deterministically in O(1)
/// memory per worker: the same configuration always produces the same
/// [`BatchSummary`], regardless of thread count (see the module docs for
/// why the merge is bit-exact). A one-cell [`ChunkedBatch`] run to its
/// [`finish`](ChunkedBatch::finish).
pub fn simulate_many(inst: &Instance, sched: &FtSchedule, cfg: &MonteCarloConfig) -> BatchSummary {
    ChunkedBatch::new(inst, sched, cfg, &cfg.engine.policy).finish()
}

/// Runs a whole parameter grid — one [`MonteCarloConfig`] per cell, all
/// over the same `(inst, sched)` — by opening every cell, in order,
/// through one [`GridBatch`]: one [`ScratchPool`] of warm arenas serves
/// every cell, and cells whose policies share a checkpoint table share
/// one [`StaticPlan`], dropped after the last of them.
///
/// Each summary is **byte-identical** to `simulate_many(inst, sched,
/// &cells[i])` — sharing amortizes setup, it never couples cells (pinned
/// by this module's tests and the degradation-sweep goldens that run
/// through this path).
pub fn simulate_grid(
    inst: &Instance,
    sched: &FtSchedule,
    cells: &[MonteCarloConfig],
) -> Vec<BatchSummary> {
    let mut grid = GridBatch::new(inst, sched, cells);
    (0..cells.len()).map(|i| grid.cell(i).finish()).collect()
}

/// The grid driver: opens the cells of a sweep over one `(inst, sched)`
/// pair as [`ChunkedBatch`]es that share one [`ScratchPool`] and one
/// [`StaticPlan`] per distinct checkpoint table. [`simulate_grid`] runs
/// each cell to its end; a service paces each cell's chunks itself (the
/// `ft-serve` daemon streams a delta per chunk).
///
/// The grid knows its whole cell list, so it holds a table's plan only
/// from the first of that table's cells to the last: the last cell's
/// batch takes the grid's handle, and the plan is dropped with that
/// batch. Cells opened in order whose tables do not interleave
/// therefore hold one plan at a time.
///
/// The op template reads the policy only through the plan's per-task
/// checkpoint table ([`Policy::checkpoint_plan`]) and its build calls no
/// policy hook, so two policies whose tables agree bit for bit are
/// served by the same plan: `Absorb`, `ReReplicate`, `Reschedule`,
/// `WarmSpare` and any `AdaptiveCheckpoint` whose tasks all opt out of
/// checkpointing share one. Every cell's summary is byte-identical to
/// its standalone [`simulate_many`].
///
/// # Example
///
/// ```
/// use ft_runtime::{
///     simulate_many, EngineConfig, FailureKind, GridBatch, LifetimeDist, MonteCarloConfig,
///     RecoveryPolicy,
/// };
/// use ft_algos::{caft, CommModel};
/// use ft_graph::gen::{random_layered, RandomDagParams};
/// use ft_platform::{random_instance, PlatformParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
/// let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
/// let sched = caft(&inst, 1, CommModel::OnePort, 5);
/// let cell = |policy| MonteCarloConfig {
///     runs: 40,
///     lifetime: LifetimeDist::Exponential { mean: 2.0 * sched.latency() },
///     failure: FailureKind::Permanent,
///     engine: EngineConfig::with_policy(policy),
///     seed: 9,
/// };
/// let cells = [cell(RecoveryPolicy::Absorb), cell(RecoveryPolicy::ReReplicate)];
/// let mut grid = GridBatch::new(&inst, &sched, &cells);
/// for (i, cfg) in cells.iter().enumerate() {
///     let mut batch = grid.cell(i);
///     while batch.run_chunk(16) > 0 {
///         assert!(batch.snapshot().runs <= cfg.runs);
///     }
///     assert_eq!(
///         serde_json::to_string(&batch.finish()).unwrap(),
///         serde_json::to_string(&simulate_many(&inst, &sched, cfg)).unwrap(),
///     );
/// }
/// ```
pub struct GridBatch<'a> {
    inst: &'a Instance,
    sched: &'a FtSchedule,
    cells: &'a [MonteCarloConfig],
    pool: Arc<ScratchPool>,
    /// Per cell, the index of its checkpoint table among the grid's
    /// distinct tables.
    table: Vec<usize>,
    /// Per distinct table, the last cell that uses it.
    last: Vec<usize>,
    /// Per distinct table, its plan while a later cell still needs it.
    plans: Vec<Option<Arc<StaticPlan>>>,
}

impl<'a> GridBatch<'a> {
    /// The grid of `cells` over `(inst, sched)`. It groups the cells by
    /// checkpoint table, compared bit for bit; no plan is built and no
    /// arena allocated until the first cell opens.
    pub fn new(inst: &'a Instance, sched: &'a FtSchedule, cells: &'a [MonteCarloConfig]) -> Self {
        let bits = |t: Vec<Option<(f64, f64)>>| -> Vec<Option<(u64, u64)>> {
            t.into_iter()
                .map(|e| e.map(|(i, o)| (i.to_bits(), o.to_bits())))
                .collect()
        };
        let mut distinct = Vec::new();
        let mut last = Vec::new();
        let table = cells
            .iter()
            .enumerate()
            .map(|(i, cfg)| {
                let t = bits(checkpoint_table(inst, &cfg.engine.policy));
                let k = distinct.iter().position(|d| *d == t).unwrap_or_else(|| {
                    distinct.push(t);
                    last.push(0);
                    distinct.len() - 1
                });
                last[k] = i;
                k
            })
            .collect();
        GridBatch {
            inst,
            sched,
            cells,
            pool: Arc::new(ScratchPool::new()),
            table,
            plans: vec![None; last.len()],
            last,
        }
    }

    /// Opens cell `i` under its built-in `cfg.engine.policy`, on the
    /// grid's arena pool and on the plan of its checkpoint table — built
    /// by this call if no earlier cell had that table (or if the cell
    /// reopens a table whose last cell already ran). No runs are executed
    /// yet.
    ///
    /// # Panics
    /// Panics if `i` is not a cell index of the grid.
    pub fn cell(&mut self, i: usize) -> ChunkedBatch<'a> {
        let cfg = &self.cells[i];
        let policy = &cfg.engine.policy;
        let k = self.table[i];
        let plan = match self.plans[k].take() {
            Some(plan) => plan,
            None => Arc::new(StaticPlan::warm(
                self.inst,
                self.sched,
                policy,
                checkpoint_table(self.inst, policy),
            )),
        };
        if i < self.last[k] {
            self.plans[k] = Some(Arc::clone(&plan));
        }
        ChunkedBatch::open(
            self.inst,
            self.sched,
            cfg,
            policy,
            plan,
            Arc::clone(&self.pool),
        )
    }
}

impl std::fmt::Debug for GridBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridBatch")
            .field("cells", &self.cells.len())
            .field("tables", &self.last.len())
            .finish_non_exhaustive()
    }
}

/// A Monte-Carlo batch executed in caller-paced chunks — the one batch
/// loop behind [`simulate_many`], [`Simulation::monte_carlo`] and every
/// [`GridBatch`] cell. Each chunk runs through one rayon fold/reduce and
/// is folded into one held [`BatchAccumulator`]. Between chunks the
/// caller can take a [`snapshot`](ChunkedBatch::snapshot) — a
/// well-defined partial [`BatchSummary`] over the runs executed so far —
/// or abandon the batch entirely (cancellation).
///
/// Because run `i`'s scenario depends only on `(cfg.seed, i)` and the
/// accumulator merge is bit-exact (see the module docs), the final
/// summary is **byte-identical** to a direct [`simulate_many`] call
/// regardless of how the runs were chunked — the property `ft-serve`
/// leans on to stream result deltas without changing the science.
///
/// [`Simulation::monte_carlo`]: crate::Simulation::monte_carlo
///
/// # Example
///
/// ```
/// use ft_runtime::{
///     simulate_many, ChunkedBatch, EngineConfig, FailureKind, LifetimeDist, MonteCarloConfig,
///     RecoveryPolicy,
/// };
/// use ft_algos::{caft, CommModel};
/// use ft_graph::gen::{random_layered, RandomDagParams};
/// use ft_platform::{random_instance, PlatformParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
/// let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
/// let sched = caft(&inst, 1, CommModel::OnePort, 5);
/// let cfg = MonteCarloConfig {
///     runs: 60,
///     lifetime: LifetimeDist::Exponential { mean: 2.0 * sched.latency() },
///     failure: FailureKind::Permanent,
///     engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
///     seed: 9,
/// };
/// let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
/// while chunked.run_chunk(17) > 0 {
///     let partial = chunked.snapshot();
///     assert_eq!(partial.runs, chunked.completed_runs());
/// }
/// // Any chunking yields the same bytes as the one-shot batch.
/// let direct = simulate_many(&inst, &sched, &cfg);
/// assert_eq!(
///     serde_json::to_string(&chunked.finish()).unwrap(),
///     serde_json::to_string(&direct).unwrap(),
/// );
/// ```
pub struct ChunkedBatch<'a> {
    inst: &'a Instance,
    sched: &'a FtSchedule,
    cfg: &'a MonteCarloConfig,
    policy: &'a dyn Policy,
    plan: Arc<StaticPlan>,
    pool: Arc<ScratchPool>,
    acc: BatchAccumulator,
    next_run: usize,
}

impl<'a> ChunkedBatch<'a> {
    /// Opens the batch described by `cfg` for chunked execution under an
    /// explicit [`Policy`] (pass `&cfg.engine.policy` for the built-in
    /// path, exactly as [`simulate_many`] does). Every run dispatches
    /// `policy`; `cfg.engine.policy` only fills the summary's
    /// serializable `policy` field, while its label names `policy`. No
    /// runs are executed yet.
    pub fn new(
        inst: &'a Instance,
        sched: &'a FtSchedule,
        cfg: &'a MonteCarloConfig,
        policy: &'a dyn Policy,
    ) -> Self {
        Self::with_pool(inst, sched, cfg, policy, Arc::new(ScratchPool::new()))
    }

    /// [`ChunkedBatch::new`] over a caller-shared [`ScratchPool`]: arenas
    /// warmed by this batch's chunks are drawn from — and returned to —
    /// `pool`, so consecutive batches reuse each other's warm-up instead
    /// of re-allocating per batch. Sharing a pool never changes a summary
    /// byte: arenas carry no run state between takes, only capacity.
    /// (A [`GridBatch`] shares its pool and its plans across cells.)
    pub fn with_pool(
        inst: &'a Instance,
        sched: &'a FtSchedule,
        cfg: &'a MonteCarloConfig,
        policy: &'a dyn Policy,
        pool: Arc<ScratchPool>,
    ) -> Self {
        let plan = Arc::new(StaticPlan::new(inst, sched, policy));
        Self::open(inst, sched, cfg, policy, plan, pool)
    }

    /// The batch over an already-built `plan` of `policy`'s checkpoint
    /// table.
    fn open(
        inst: &'a Instance,
        sched: &'a FtSchedule,
        cfg: &'a MonteCarloConfig,
        policy: &'a dyn Policy,
        plan: Arc<StaticPlan>,
        pool: Arc<ScratchPool>,
    ) -> Self {
        ChunkedBatch {
            inst,
            sched,
            cfg,
            policy,
            plan,
            pool,
            acc: BatchAccumulator::new(sched.latency()),
            next_run: 0,
        }
    }

    /// Runs executed so far.
    pub fn completed_runs(&self) -> usize {
        self.next_run
    }

    /// Whether every run of the batch has been executed.
    pub fn is_done(&self) -> bool {
        self.next_run >= self.cfg.runs
    }

    /// Executes the next (up to) `n` runs of the batch — rayon-parallel —
    /// and folds them into the held accumulator. Returns the number of
    /// runs actually executed (less than `n` only at the tail; `0` once
    /// the batch is done).
    pub fn run_chunk(&mut self, n: usize) -> usize {
        let start = self.next_run;
        let end = self.cfg.runs.min(start.saturating_add(n));
        if start >= end {
            return 0;
        }
        let chunk = self.accumulate_range(start..end);
        let held = std::mem::replace(&mut self.acc, BatchAccumulator::new(self.sched.latency()));
        self.acc = held.merge(chunk);
        self.next_run = end;
        end - start
    }

    /// Runs `range` of the batch through the plan and the scratch pool
    /// in one rayon fold/reduce. Each worker takes one warm arena from
    /// the pool at its first run, reuses it across its whole sub-range
    /// (zero allocations per failure-free run in steady state), and the
    /// reduce returns every arena to the pool. The merge is bit-exact, so
    /// the result does not depend on how rayon split the range.
    fn accumulate_range(&self, range: Range<usize>) -> BatchAccumulator {
        let (inst, sched, cfg, policy) = (self.inst, self.sched, self.cfg, self.policy);
        let (plan, pool) = (&*self.plan, &*self.pool);
        let m = inst.num_procs();
        let nominal = sched.latency();
        let (acc, scratch) = range
            .into_par_iter()
            .fold(
                || (BatchAccumulator::new(nominal), None::<Box<EngineScratch>>),
                |(mut acc, mut slot), i| {
                    let scratch = slot.get_or_insert_with(|| pool.take());
                    let scenario = scenario_of_run(cfg.seed, &cfg.lifetime, &cfg.failure, m, i);
                    run_into(
                        inst,
                        sched,
                        &scenario,
                        &cfg.engine,
                        policy,
                        plan,
                        scratch,
                        None,
                        None,
                    );
                    acc.record(scenario.earliest_crash(), &scratch.outcome);
                    (acc, slot)
                },
            )
            .reduce(
                || (BatchAccumulator::new(nominal), None),
                |(a, sa), (b, sb)| {
                    if let Some(s) = sa {
                        pool.put(s);
                    }
                    if let Some(s) = sb {
                        pool.put(s);
                    }
                    (a.merge(b), None)
                },
            );
        if let Some(s) = scratch {
            pool.put(s);
        }
        acc
    }

    /// A partial [`BatchSummary`] over the runs executed so far — the
    /// exact summary [`simulate_many`] would return for a batch of
    /// [`completed_runs`](ChunkedBatch::completed_runs) runs. Mergeable
    /// downstream: successive snapshots supersede each other (each covers
    /// all runs so far, not a delta).
    pub fn snapshot(&self) -> BatchSummary {
        self.acc
            .clone()
            .finish_labeled(self.cfg.engine.policy, self.policy.label())
    }

    /// Executes any outstanding runs, then closes the batch. The result
    /// is byte-identical to [`simulate_many`] on the same
    /// configuration, regardless of prior chunking.
    pub fn finish(mut self) -> BatchSummary {
        while self.run_chunk(usize::MAX) > 0 {}
        self.acc
            .finish_labeled(self.cfg.engine.policy, self.policy.label())
    }
}

impl std::fmt::Debug for ChunkedBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedBatch")
            .field("next_run", &self.next_run)
            .field("total_runs", &self.cfg.runs)
            .finish_non_exhaustive()
    }
}

/// Streaming aggregate of run outcomes: constant-size, mergeable, and
/// bit-exact under any merge tree.
///
/// Feed outcomes with [`record`](BatchAccumulator::record) (in any
/// grouping), combine partial accumulators with
/// [`merge`](BatchAccumulator::merge), and close with
/// [`finish`](BatchAccumulator::finish). All floating-point totals are
/// held as [`ExactSum`]s, so the final [`BatchSummary`] does not depend
/// on how the runs were partitioned — the property that lets
/// [`simulate_many`] parallelize without giving up byte-identical output.
/// The summary's run counts, latency and slowdown figures and recovery
/// totals are read off the accumulator's [`MetricSet`]; the accumulator
/// itself keeps only what the set does not record.
#[derive(Clone, Debug)]
pub struct BatchAccumulator {
    /// The schedule's nominal latency (slowdown denominator).
    nominal: f64,
    disturbed: usize,
    failures: usize,
    tasks_recovered: usize,
    checkpoint_overhead: ExactSum,
    metrics: MetricSet,
}

impl BatchAccumulator {
    /// An empty accumulator for a schedule of the given nominal (0-crash)
    /// latency.
    pub fn new(nominal: f64) -> Self {
        BatchAccumulator {
            nominal,
            disturbed: 0,
            failures: 0,
            tasks_recovered: 0,
            checkpoint_overhead: ExactSum::new(),
            metrics: MetricSet::for_nominal(nominal),
        }
    }

    /// Folds one run into the aggregate. `earliest_crash` is the run's
    /// earliest scenario crash time (`None` = failure-free), used for the
    /// `disturbed` count.
    pub fn record(&mut self, earliest_crash: Option<f64>, out: &RunOutcome) {
        self.failures += out.num_failures;
        self.tasks_recovered += out.tasks_recovered();
        self.checkpoint_overhead.add(out.checkpoint_overhead);
        if earliest_crash.is_some_and(|t| t < self.nominal) {
            self.disturbed += 1;
        }
        self.metrics.record(self.nominal, out);
    }

    /// Combines two partial aggregates. Associative and commutative to
    /// the bit (integer counters, max, and exact sums), so any merge tree
    /// over the same runs produces the same final summary.
    pub fn merge(mut self, other: Self) -> Self {
        let (runs, other_runs) = (self.metrics.runs(), other.metrics.runs());
        debug_assert!(
            other_runs == 0 || runs == 0 || self.nominal == other.nominal,
            "merging accumulators of different schedules"
        );
        if runs == 0 {
            // Adopt the non-empty side's shape (the reduce identity is
            // built with the same nominal in simulate_many, but a generic
            // caller may merge into a default-shaped empty accumulator).
            self.nominal = other.nominal;
            self.metrics = other.metrics;
        } else if other_runs > 0 {
            self.metrics.merge(&other.metrics);
        }
        self.disturbed += other.disturbed;
        self.failures += other.failures;
        self.tasks_recovered += other.tasks_recovered;
        self.checkpoint_overhead.merge(&other.checkpoint_overhead);
        self
    }

    /// Closes the aggregate into a [`BatchSummary`] for runs executed
    /// under the built-in `policy`.
    pub fn finish(self, policy: RecoveryPolicy) -> BatchSummary {
        let label = policy.label();
        self.finish_labeled(policy, label)
    }

    /// [`finish`](BatchAccumulator::finish) with an explicit label for
    /// the policy that actually ran — the custom-[`Policy`] batch path,
    /// where `policy` is only the serializable placeholder from the
    /// engine config.
    pub fn finish_labeled(self, policy: RecoveryPolicy, policy_label: String) -> BatchSummary {
        let m = &self.metrics;
        let runs = m.runs() as usize;
        let completed = m.latency.count as usize;
        // Latency figures are over completed runs and read 0 when none
        // completed, where the histograms' min/max are still NaN.
        let denom = completed.max(1) as f64;
        let max_latency = if completed == 0 { 0.0 } else { m.latency.max };
        BatchSummary {
            policy,
            policy_label,
            runs,
            completed,
            disturbed: self.disturbed,
            rejoins: m.rejoins as usize,
            mean_latency: m.latency.sum.value() / denom,
            max_latency,
            mean_slowdown: m.slowdown.sum.value() / denom,
            mean_failures: self.failures as f64 / runs.max(1) as f64,
            tasks_recovered: self.tasks_recovered,
            recovery_replicas: m.spawned_replicas as usize,
            recovery_messages: m.recovery_messages as usize,
            checkpoint_overhead: self.checkpoint_overhead.value(),
            work_saved: m.work_saved.sum.value(),
            metrics: self.metrics,
        }
    }
}

/// Span of the fixed-point window in 32-bit limbs: bit `0` of limb `0` is
/// 2⁻¹⁰⁷⁴ (the smallest subnormal), the top limb covers past 2¹⁰²⁴, so
/// every finite non-negative `f64` lands fully inside the window.
const LIMBS: usize = (1074 + 1024 + 63) / 32 + 2;

/// How many [`ExactSum::add`]s may elapse between carry normalizations:
/// each add deposits < 2³³ per limb, so 2²⁹ adds stay clear of `i64`
/// overflow with a wide margin.
const NORMALIZE_EVERY: u32 = 1 << 29;

/// An exact accumulator of non-negative `f64`s: a 2098-bit fixed-point
/// integer stored as 32-bit limbs in `i64` slots (carries are absorbed
/// lazily). Integer addition is associative and commutative, so the
/// represented value — and therefore [`value`](ExactSum::value) — is
/// independent of insertion order *and* of how partial sums are
/// [`merge`](ExactSum::merge)d, which is what makes
/// [`BatchAccumulator::merge`] bit-exact.
///
/// # Example
///
/// ```
/// use ft_runtime::batch::ExactSum;
///
/// // 0.1 ten times: naive f64 summation gives 0.9999999999999999.
/// let mut s = ExactSum::new();
/// for _ in 0..10 {
///     s.add(0.1);
/// }
/// // The exact sum of ten copies of the double nearest 0.1 rounds to 1.0.
/// assert_eq!(s.value(), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct ExactSum {
    limbs: [i64; LIMBS],
    pending: u32,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactSum {
    /// The zero sum.
    pub fn new() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            pending: 0,
        }
    }

    /// Adds a finite non-negative `f64` exactly.
    ///
    /// # Panics
    /// Panics on negative, NaN or infinite input (the engine's aggregated
    /// metrics — latencies, slowdowns, overheads — are all finite and
    /// non-negative by construction).
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite() && x >= 0.0, "ExactSum::add({x})");
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let raw_exp = ((bits >> 52) & 0x7FF) as i64;
        let mantissa = if raw_exp == 0 {
            bits & ((1 << 52) - 1) // subnormal: no implicit leading 1
        } else {
            (bits & ((1 << 52) - 1)) | (1 << 52)
        };
        // Offset of the mantissa's bit 0 from 2^-1074.
        let pos = if raw_exp == 0 { 0 } else { raw_exp - 1 } as u64;
        let (limb, shift) = ((pos / 32) as usize, pos % 32);
        let wide = (mantissa as u128) << shift; // ≤ 53 + 31 = 84 bits
        self.limbs[limb] += (wide & 0xFFFF_FFFF) as i64;
        self.limbs[limb + 1] += ((wide >> 32) & 0xFFFF_FFFF) as i64;
        self.limbs[limb + 2] += ((wide >> 64) & 0xFFFF_FFFF) as i64;
        self.pending += 1;
        if self.pending >= NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// Adds another exact sum (exactly).
    pub fn merge(&mut self, other: &ExactSum) {
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += b;
        }
        // Both sides carry < 2^33 per limb pre-normalization headroom;
        // normalizing after every merge keeps the invariant simple.
        self.normalize();
    }

    /// Propagates carries so every limb is a canonical 32-bit digit.
    fn normalize(&mut self) {
        let mut carry = 0i64;
        for l in &mut self.limbs {
            let v = *l + carry;
            *l = v & 0xFFFF_FFFF;
            carry = v >> 32;
        }
        debug_assert_eq!(carry, 0, "ExactSum window overflow");
        self.pending = 0;
    }

    /// Rounds the exact value to the nearest `f64` representable from the
    /// top 96 significant bits (ample for a 53-bit mantissa; deterministic
    /// because the canonical limb form is unique).
    pub fn value(&self) -> f64 {
        let mut canon = self.clone();
        canon.normalize();
        let Some(top) = canon.limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        let lo = top.saturating_sub(2);
        let mut word: u128 = 0;
        for i in (lo..=top).rev() {
            word = (word << 32) | canon.limbs[i] as u128;
        }
        // Sticky bit: any nonzero limb below the 96-bit window nudges the
        // value off an exact halfway case before the final rounding.
        if canon.limbs[..lo].iter().any(|&l| l != 0) {
            word |= 1;
        }
        (word as f64) * exp2i(32 * lo as i32 - 1074)
    }
}

/// An `ExactSum` serializes as its rounded [`value`](ExactSum::value) —
/// the f64 consumers care about. This is intentionally lossy (the limb
/// form is an implementation detail): a deserialized sum re-seeds a fresh
/// accumulator with that one rounded value, which round-trips the
/// serialized form exactly (`to_value ∘ from_value ∘ to_value` is
/// `to_value`).
impl serde::Serialize for ExactSum {
    fn to_value(&self) -> serde::Value {
        serde::Value::Float(self.value())
    }
}

impl serde::Deserialize for ExactSum {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let x = <f64 as serde::Deserialize>::from_value(v)?;
        if !x.is_finite() || x < 0.0 {
            return Err(serde::Error::msg(format!(
                "ExactSum must be a finite non-negative number, got {x}"
            )));
        }
        let mut sum = ExactSum::new();
        sum.add(x);
        Ok(sum)
    }
}

/// `2^e` for the limb scale (exact: splits the exponent so each factor is
/// a normal power of two).
fn exp2i(e: i32) -> f64 {
    let half = e / 2;
    f64::powi(2.0, half) * f64::powi(2.0, e - half)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::engine::run_once;
    use ft_algos::{caft, CommModel};
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_platform::{random_instance, PlatformParams};

    fn setup() -> (Instance, FtSchedule) {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
        let inst = random_instance(g, &PlatformParams::default().with_procs(6), 1.0, &mut rng);
        let sched = caft(&inst, 1, CommModel::OnePort, 0);
        (inst, sched)
    }

    #[test]
    fn exact_sum_is_grouping_independent() {
        let values: Vec<f64> = (0..2000)
            .map(|i| ((i as f64) * 0.7618).sin().abs() * 1e3 + 1e-12)
            .collect();
        let mut seq = ExactSum::new();
        for &v in &values {
            seq.add(v);
        }
        // Adversarial grouping: tiny chunks merged in a skewed tree, in
        // reversed order.
        let mut chunks: Vec<ExactSum> = values
            .chunks(7)
            .map(|c| {
                let mut s = ExactSum::new();
                for &v in c {
                    s.add(v);
                }
                s
            })
            .collect();
        chunks.reverse();
        let mut merged = ExactSum::new();
        for c in &chunks {
            merged.merge(c);
        }
        assert_eq!(seq.value().to_bits(), merged.value().to_bits());
    }

    #[test]
    fn exact_sum_handles_extreme_scales() {
        let mut s = ExactSum::new();
        s.add(f64::MIN_POSITIVE / 4.0); // subnormal
        s.add(1e300);
        s.add(1e-300);
        s.add(0.0);
        assert_eq!(s.value(), 1e300);
        let mut t = ExactSum::new();
        t.add(1.0);
        for _ in 0..1000 {
            t.add(f64::EPSILON / 2.0); // each individually rounds away
        }
        assert!(t.value() > 1.0, "exact accumulation keeps the tail");
    }

    #[test]
    fn batch_is_deterministic() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 64,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency() * 2.0,
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 77,
        };
        let a = simulate_many(&inst, &sched, &cfg);
        let b = simulate_many(&inst, &sched, &cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(a.runs, 64);
    }

    #[test]
    fn streaming_matches_sequential_accumulation() {
        // The collect-then-summarize reference path, one run at a time
        // through a single accumulator, must reproduce the parallel
        // fold/reduce byte-for-byte (also pinned as a property in
        // tests/timed_model.rs).
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 100,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 13,
        };
        let streamed = simulate_many(&inst, &sched, &cfg);
        let m = inst.num_procs();
        let mut acc = BatchAccumulator::new(sched.latency());
        for i in 0..cfg.runs {
            let scenario = cfg.scenario_of_run(m, i);
            let out = run_once(
                &inst,
                &sched,
                &scenario,
                &cfg.engine,
                &cfg.engine.policy,
                None,
                None,
            );
            acc.record(scenario.earliest_crash(), &out);
        }
        let sequential = acc.finish(cfg.engine.policy);
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&sequential).unwrap()
        );
    }

    #[test]
    fn chunked_batch_matches_simulate_many_for_any_chunking() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 100,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 13,
        };
        let direct = serde_json::to_string(&simulate_many(&inst, &sched, &cfg)).unwrap();
        // Chunk sizes: single runs, irregular, one-shot, larger-than-batch.
        for &n in &[1usize, 7, 33, 100, 1000] {
            let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
            while chunked.run_chunk(n) > 0 {}
            assert!(chunked.is_done());
            assert_eq!(
                serde_json::to_string(&chunked.finish()).unwrap(),
                direct,
                "chunk size {n} changed the summary bytes"
            );
        }
    }

    #[test]
    fn chunked_batch_snapshot_is_the_prefix_batch() {
        // A snapshot after k runs must be byte-identical to a direct
        // simulate_many over a k-run batch of the same seed: prefixes of
        // the scenario stream are themselves well-formed batches.
        let (inst, sched) = setup();
        let mk = |runs| MonteCarloConfig {
            runs,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::Reschedule),
            seed: 99,
        };
        let cfg = mk(60);
        let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
        let mut done = 0;
        while !chunked.is_done() {
            done += chunked.run_chunk(23);
            assert_eq!(chunked.completed_runs(), done);
            let prefix_cfg = mk(done);
            assert_eq!(
                serde_json::to_string(&chunked.snapshot()).unwrap(),
                serde_json::to_string(&simulate_many(&inst, &sched, &prefix_cfg)).unwrap(),
                "snapshot after {done} runs diverged from the {done}-run batch"
            );
        }
    }

    #[test]
    fn chunked_batch_finish_runs_the_outstanding_tail() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 40,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency() * 2.0,
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 5,
        };
        let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
        chunked.run_chunk(11); // leave a tail outstanding
        let finished = chunked.finish();
        assert_eq!(finished.runs, 40);
        assert_eq!(
            serde_json::to_string(&finished).unwrap(),
            serde_json::to_string(&simulate_many(&inst, &sched, &cfg)).unwrap()
        );
    }

    #[test]
    fn batch_metrics_are_consistent_with_the_headline_fields() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 64,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 7,
        };
        let s = simulate_many(&inst, &sched, &cfg);
        let m = &s.metrics;
        assert_eq!(m.latency.count as usize, s.completed);
        assert_eq!(m.slowdown.count as usize, s.completed);
        assert_eq!(m.incomplete_runs as usize, s.runs - s.completed);
        assert_eq!(m.spawned_replicas as usize, s.recovery_replicas);
        assert_eq!(m.recovery_messages as usize, s.recovery_messages);
        assert_eq!(m.rejoins as usize, s.rejoins);
        // Histogram mean of latency = batch mean (same ExactSum machinery).
        if s.completed > 0 {
            assert!((m.latency.mean() - s.mean_latency).abs() < 1e-9);
            assert!((m.slowdown.mean() - s.mean_slowdown).abs() < 1e-12);
            assert_eq!(m.latency.max, s.max_latency);
        }
        assert!(m.detections > 0, "the batch should see some crashes");
    }

    /// The one batch where the summary's latency figures (0.0) and the
    /// empty latency histogram's NaN max part ways: every processor dies
    /// at t = 0, so no run completes.
    #[test]
    fn zero_completion_batch_reads_zero_latency() {
        let (inst, sched) = setup();
        let m = inst.num_procs();
        let cfg = MonteCarloConfig {
            runs: 10,
            lifetime: LifetimeDist::Trace(vec![0.0; m]),
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 3,
        };
        let direct = simulate_many(&inst, &sched, &cfg);
        assert_eq!(direct.runs, 10);
        assert_eq!(direct.completed, 0);
        assert_eq!(direct.mean_latency, 0.0);
        assert_eq!(direct.max_latency, 0.0);
        assert_eq!(direct.mean_slowdown, 0.0);
        assert!(direct.metrics.latency.max.is_nan());
        let json = serde_json::to_string(&direct).unwrap();

        let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
        while chunked.run_chunk(3) > 0 {}
        assert_eq!(serde_json::to_string(&chunked.finish()).unwrap(), json);

        let mut acc = BatchAccumulator::new(sched.latency());
        for i in 0..cfg.runs {
            let scenario = cfg.scenario_of_run(m, i);
            let policy = &cfg.engine.policy;
            let out = run_once(&inst, &sched, &scenario, &cfg.engine, policy, None, None);
            acc.record(scenario.earliest_crash(), &out);
        }
        let sequential = acc.finish(cfg.engine.policy);
        assert_eq!(serde_json::to_string(&sequential).unwrap(), json);
    }

    #[test]
    fn never_failing_batch_is_all_nominal() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 16,
            lifetime: LifetimeDist::Never,
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::Reschedule),
            seed: 1,
        };
        let s = simulate_many(&inst, &sched, &cfg);
        assert_eq!(s.completed, 16);
        assert_eq!(s.disturbed, 0);
        assert!((s.mean_latency - sched.latency()).abs() < 1e-9);
        assert!((s.mean_slowdown - 1.0).abs() < 1e-12);
        assert_eq!(s.recovery_replicas, 0);
    }

    #[test]
    fn checkpoint_resume_batches_are_deterministic() {
        // Resume decisions depend on recorded partial progress — pin that
        // the whole (progress tracking + resume) pipeline is a pure
        // function of the batch seed, and that it actually resumes.
        let (inst, sched) = setup();
        let interval = inst.mean_task_cost() * 0.25;
        let cfg = MonteCarloConfig {
            runs: 128,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy: RecoveryPolicy::checkpoint(interval, 0.02),
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed: 23,
        };
        let a = simulate_many(&inst, &sched, &cfg);
        let b = simulate_many(&inst, &sched, &cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "checkpoint-resume batches must be seed-deterministic"
        );
        assert!(a.work_saved > 0.0, "some run must resume from a checkpoint");
        assert!(a.checkpoint_overhead > 0.0);
    }

    #[test]
    fn checkpoint_interval_infinity_matches_re_replicate_batches() {
        let (inst, sched) = setup();
        let mk = |policy| MonteCarloConfig {
            runs: 96,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency() * 1.5,
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy,
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed: 29,
        };
        let ck = simulate_many(
            &inst,
            &sched,
            &mk(RecoveryPolicy::checkpoint(f64::INFINITY, 0.4)),
        );
        let rr = simulate_many(&inst, &sched, &mk(RecoveryPolicy::ReReplicate));
        assert_eq!(ck.completed, rr.completed);
        assert_eq!(ck.recovery_replicas, rr.recovery_replicas);
        assert_eq!(ck.recovery_messages, rr.recovery_messages);
        assert!((ck.mean_latency - rr.mean_latency).abs() < 1e-12);
        assert_eq!(ck.work_saved, 0.0);
        assert_eq!(ck.checkpoint_overhead, 0.0);
    }

    #[test]
    fn recovery_policies_dominate_absorb_on_completion() {
        let (inst, sched) = setup();
        let mk = |policy| MonteCarloConfig {
            runs: 200,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy,
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed: 11,
        };
        let absorb = simulate_many(&inst, &sched, &mk(RecoveryPolicy::Absorb));
        let rerep = simulate_many(&inst, &sched, &mk(RecoveryPolicy::ReReplicate));
        let resched = simulate_many(&inst, &sched, &mk(RecoveryPolicy::Reschedule));
        // Same seed ⇒ identical fault draws per run, so completion counts
        // are directly comparable.
        assert!(
            rerep.completed >= absorb.completed,
            "re-replicate {} < absorb {}",
            rerep.completed,
            absorb.completed
        );
        assert!(
            resched.completed >= absorb.completed,
            "reschedule {} < absorb {}",
            resched.completed,
            absorb.completed
        );
        assert!(absorb.disturbed > 0, "test should actually inject failures");
    }

    /// The grid entry point shares arenas and one plan per distinct
    /// checkpoint table across cells; every cell summary must still be
    /// byte-identical to an independent `simulate_many` of that cell —
    /// including across policy changes mid-grid, policies that share a
    /// plan built under another policy, and repeated configurations
    /// (warm arenas carrying capacity from other cells).
    #[test]
    fn simulate_grid_matches_per_cell_simulate_many() {
        let (inst, sched) = setup();
        let cell = |policy, mean_factor: f64, seed| MonteCarloConfig {
            runs: 150,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency() * mean_factor,
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy,
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed,
        };
        let overhead = inst.mean_task_cost() * 0.01;
        // At an MTTF of half the latency some task checkpoints; at 10⁹
        // latencies the Young/Daly interval outgrows every task, so all
        // of them opt out and the policy's table is Absorb's.
        let adaptive_in = RecoveryPolicy::adaptive_checkpoint(sched.latency() * 0.5, overhead);
        let adaptive_out = RecoveryPolicy::adaptive_checkpoint(sched.latency() * 1e9, overhead);
        let cells = vec![
            cell(RecoveryPolicy::ReReplicate, 2.0, 11),
            cell(RecoveryPolicy::Absorb, 1.0, 12),
            cell(RecoveryPolicy::ReReplicate, 0.5, 13),
            cell(RecoveryPolicy::checkpoint(2.0, 0.05), 1.5, 14),
            cell(RecoveryPolicy::Reschedule, 1.0, 15),
            cell(RecoveryPolicy::WarmSpare, 1.0, 16),
            cell(adaptive_in, 0.5, 17),
            cell(adaptive_out, 1.0, 18),
            cell(RecoveryPolicy::checkpoint(f64::INFINITY, 0.05), 1.0, 19),
            cell(RecoveryPolicy::WarmSpare, 0.5, 20),
            cell(RecoveryPolicy::ReReplicate, 2.0, 11), // repeat of cell 0
        ];
        let grid = simulate_grid(&inst, &sched, &cells);
        assert_eq!(grid.len(), cells.len());
        for (i, (cfg, summary)) in cells.iter().zip(&grid).enumerate() {
            let direct = simulate_many(&inst, &sched, cfg);
            assert_eq!(
                serde_json::to_string(summary).unwrap(),
                serde_json::to_string(&direct).unwrap(),
                "cell {i} diverged from its standalone batch"
            );
        }

        // One plan per distinct checkpoint table: the no-checkpoint table
        // (Absorb, ReReplicate, Reschedule, WarmSpare, the opted-out
        // adaptive policy), the two fixed intervals and the opted-in
        // adaptive policy.
        let table = |p: &RecoveryPolicy| {
            checkpoint_table(&inst, p)
                .into_iter()
                .map(|e| e.map(|(i, o)| (i.to_bits(), o.to_bits())))
                .collect::<Vec<_>>()
        };
        assert!(table(&adaptive_out).iter().all(Option::is_none));
        assert!(table(&adaptive_in).iter().any(Option::is_some));
        let tables: Vec<_> = cells.iter().map(|c| table(&c.engine.policy)).collect();
        let mut distinct = tables.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 4);

        // Cells share their table's plan, and no plan outlives the last
        // cell of its table: opening and finishing cell i drops every plan
        // whose last cell is at most i.
        let last = |j: usize| (j..cells.len()).rfind(|&k| tables[k] == tables[j]).unwrap();
        let mut batches = GridBatch::new(&inst, &sched, &cells);
        let mut opened: Vec<std::sync::Weak<StaticPlan>> = Vec::new();
        for i in 0..cells.len() {
            let batch = batches.cell(i);
            opened.push(Arc::downgrade(&batch.plan));
            batch.finish();
            for (j, plan) in opened.iter().enumerate() {
                assert_eq!(
                    plan.upgrade().is_some(),
                    last(j) > i,
                    "after cell {i}: the plan of cell {j}, whose table's last cell is {}",
                    last(j)
                );
                for (k, other) in opened.iter().enumerate() {
                    assert_eq!(plan.ptr_eq(other), tables[j] == tables[k], "cells {j}, {k}");
                }
            }
        }
    }
}
