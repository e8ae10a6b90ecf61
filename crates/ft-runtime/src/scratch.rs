//! The zero-allocation event core: reusable run arenas and pre-resolved
//! static plans (DESIGN.md §15).
//!
//! A run's cost splits into three reusable pieces:
//!
//! * [`StaticPlan`] — everything that depends only on `(instance,
//!   schedule, policy)`: validated per-task checkpoint plans, the
//!   topological order, the resolved network, and — for warm plans built
//!   by [`StaticPlan::new`] — a **pre-built op template** (the full
//!   static op graph with its dependency wiring) that a run clones *in
//!   place*. The template is valid for every scenario with no crash at
//!   `t ≤ 0`: such a build takes identical branches everywhere except the
//!   per-op crash deadlines, which are a per-processor overwrite (the
//!   host of a computation, the sender of a transfer). Scenarios that do
//!   kill a processor at `t ≤ 0` — the adversarial replay identities —
//!   and one-shot plans, which carry no template, take the full build,
//!   byte-for-byte.
//! * [`EngineScratch`] — every per-run buffer the engine touches, kept
//!   across runs: the op arena, the indexed event queue, belief and
//!   detection state, propagation scratch, and the run's [`RunOutcome`],
//!   whose per-task vectors are the run's first-finish/recovered
//!   buffers. A run owns the arena whole — moved in, each buffer reset in
//!   place, moved back. After one warm-up run on a failure-free
//!   scenario, a run through a warm scratch performs **zero** heap
//!   allocations (pinned by `tests/alloc_discipline.rs`).
//! * [`ScratchPool`] — a mutex-guarded stack of warm arenas, shared by
//!   the rayon workers of [`simulate_many`](crate::simulate_many) /
//!   [`ChunkedBatch`](crate::ChunkedBatch) chunks and across the cells
//!   of a [`simulate_grid`](crate::simulate_grid) sweep, so arena
//!   warm-up is paid once per thread per batch — not once per run or per
//!   grid cell.
//!
//! [`Executor`] packages a plan and an arena behind the simplest
//! possible steady-state surface: construct once, call
//! [`run`](Executor::run) per scenario. Every path through this module
//! returns outcomes **byte-identical** to the one-shot
//! [`Simulation::run`](crate::Simulation::run) — the fast path only
//! re-uses memory and skips redundant construction, it never changes an
//! event order (the event-queue keys are all distinct, so *any* correct
//! min-heap pops them in the same ascending order).

use crate::engine::{build_template, run_into, Act, Op};
use crate::metrics::RunOutcome;
use crate::policy::{EngineConfig, Policy, RecoveryAction, TaskInfo};
use ft_graph::TaskId;
use ft_model::FtSchedule;
use ft_net::{NetworkModel, NetworkState};
use ft_platform::Instance;
use ft_sim::FaultScenario;
use std::sync::Mutex;

/// Indexed min-heap over `(time, kind, id)` event keys — the engine's
/// event queue, backed by one reusable `Vec` instead of a fresh
/// `BinaryHeap` per run.
///
/// Keys order lexicographically with `f64::total_cmp` on the time (the
/// exact order the historical `BinaryHeap<Reverse<(OrdF64, u8, u32)>>`
/// used). Every key pushed by the engine is distinct — an op id enters
/// at most once (the `Pending → Scheduled` transition guards the push),
/// and availability-event instants are deduplicated per `(proc, epoch)`
/// with the id encoding the pair — so pop order is the unique ascending
/// key order regardless of heap implementation details.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventQueue {
    heap: Vec<(f64, u8, u32)>,
}

impl EventQueue {
    /// Empties the queue, keeping its capacity for the next run.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    #[inline]
    fn less(a: (f64, u8, u32), b: (f64, u8, u32)) -> bool {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)) == std::cmp::Ordering::Less
    }

    pub(crate) fn push(&mut self, key: (f64, u8, u32)) {
        self.heap.push(key);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(f64, u8, u32)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let top = self.heap.pop();
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && Self::less(self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            if Self::less(self.heap[c], self.heap[i]) {
                self.heap.swap(i, c);
                i = c;
            } else {
                break;
            }
        }
        top
    }
}

/// Everything about a run that depends only on `(instance, schedule,
/// policy)` — validated checkpoint plans, the topological order, the
/// resolved network and, on warm plans, the static op template —
/// computed once and shared by every run of a batch, chunk, or grid cell.
///
/// See the [module docs](self) for when the template applies and why the
/// fast path is byte-identical to the full build.
pub struct StaticPlan {
    /// Per-task `(interval, overhead)` checkpoint plans from
    /// [`Policy::checkpoint_plan`], validated once here instead of once
    /// per run.
    pub(crate) plans: Vec<Option<(f64, f64)>>,
    /// Topological position of each task (spawn-ordering key).
    pub(crate) topo_position: Vec<usize>,
    /// The op template of a warm plan; `None` on a one-shot plan, whose
    /// single run takes the full build.
    pub(crate) template: Option<OpTemplate>,
    /// Link ids and per-route hop tables of the platform's network,
    /// resolved once here; runs under a contended [`Contention`] mode
    /// charge transfers against it ([`ft_net::NetworkState`]), Ideal runs
    /// never read it.
    ///
    /// [`Contention`]: ft_net::Contention
    pub(crate) network: NetworkModel,
}

/// The static op graph of a build with no crash at `t ≤ 0`, wiring
/// included; warm runs clone it in place and overwrite only the crash
/// deadlines.
pub(crate) struct OpTemplate {
    /// The template build's op arena.
    pub(crate) ops: Vec<Op>,
    /// Static exec op per `(task, copy)` of the template build.
    pub(crate) static_exec: Vec<Vec<Option<u32>>>,
}

impl StaticPlan {
    /// Builds the warm plan — checkpoint plans, topological order, and
    /// the static op template — for runs of `sched` on `inst` under
    /// `policy`. One template build amortizes over every subsequent run.
    pub fn new(inst: &Instance, sched: &FtSchedule, policy: &dyn Policy) -> Self {
        let mut plan = Self::one_shot(inst, sched, policy);
        plan.template = Some(build_template(inst, sched, policy, &plan));
        plan
    }

    /// The one-shot plan: everything but the op template. Its single run
    /// pays the full op build once anyway, so a template would only add
    /// a second one.
    pub(crate) fn one_shot(inst: &Instance, sched: &FtSchedule, policy: &dyn Policy) -> Self {
        let v = inst.num_tasks();
        // One checkpoint_plan query per task, validated here so a
        // misbehaving plan fails loudly before any op is built.
        let plans: Vec<Option<(f64, f64)>> = (0..v)
            .map(|t| {
                let info = TaskInfo::new(inst, TaskId::from_index(t));
                policy.checkpoint_plan(&info).map(|p| {
                    assert!(
                        p.interval > 0.0 && !p.interval.is_nan(),
                        "bad checkpoint interval {}",
                        p.interval
                    );
                    assert!(
                        p.overhead.is_finite() && p.overhead >= 0.0,
                        "bad checkpoint overhead {}",
                        p.overhead
                    );
                    (p.interval, p.overhead)
                })
            })
            .collect();
        let mut topo_position = vec![0usize; v];
        for (i, t) in ft_graph::topological_order(&inst.graph)
            .into_iter()
            .enumerate()
        {
            topo_position[t.index()] = i;
        }
        let _ = sched; // shape checks happen in the engine per run
        StaticPlan {
            plans,
            topo_position,
            template: None,
            network: NetworkModel::new(&inst.platform),
        }
    }
}

impl std::fmt::Debug for StaticPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticPlan")
            .field("tasks", &self.plans.len())
            .field("template_ops", &self.template.as_ref().map(|t| t.ops.len()))
            .finish_non_exhaustive()
    }
}

/// The reusable per-run arena: every buffer one engine run touches, and
/// the run's [`RunOutcome`]. A run owns the arena whole — moved in at its
/// start, each buffer reset in place, moved back at its end — so buffers
/// keep their capacity across runs: construct once (or
/// [take](ScratchPool::take) from a pool), hand to run after run, and the
/// steady-state hot loop stops allocating entirely (see the [module
/// docs](self)).
#[derive(Default)]
pub struct EngineScratch {
    /// The op arena, indexed by op id: static ops first, repair work
    /// appended as it is spawned.
    pub(crate) ops: Vec<Op>,
    /// `(finish, kind, id)`; kind 0 = op completion (`id` = op), 1 =
    /// crash detection, 2 = rejoin knowledge (`id` = `epoch · m + proc`).
    /// Completions at a given instant precede detections, which precede
    /// rejoins.
    pub(crate) queue: EventQueue,
    /// Static exec op per (task, copy); `None` when pruned at build time.
    pub(crate) static_exec: Vec<Vec<Option<u32>>>,
    /// Recovery exec ops per task.
    pub(crate) recovery_exec: Vec<Vec<u32>>,
    /// The coordinator's current belief: `p` is dead (its latest known
    /// availability event is a crash). Flips back to `false` when a
    /// rejoin enters the coordinator view.
    pub(crate) known_dead: Vec<bool>,
    /// Physical instant of the latest availability event (crash or
    /// reboot) brought into the coordinator view per processor; the
    /// belief follows the event with the latest *physical* time, so
    /// out-of-order knowledge (a slow crash detection arriving after the
    /// fast rejoin news) cannot roll the state backwards.
    pub(crate) believed_instant: Vec<f64>,
    /// The failure epoch behind the current belief of `p` (meaningful
    /// while `known_dead[p]`; indexes `crash_detect[p]`).
    pub(crate) believed_epoch: Vec<usize>,
    /// Failure epochs `(crash, reboot)` per processor, from the scenario.
    pub(crate) epochs: Vec<Vec<(f64, f64)>>,
    /// `crash_detect[p][k][q]`: the instant at which processor `q` learns
    /// of the epoch-`k` crash of processor `p` (`INFINITY` = never);
    /// precomputed from the [`DetectionModel`](crate::DetectionModel) at
    /// the start of the run.
    pub(crate) crash_detect: Vec<Vec<Vec<f64>>>,
    /// `rejoin_detect[p][k][q]`: when `q` learns that `p` rebooted from
    /// its epoch-`k` crash (empty for permanent epochs). Rejoin knowledge
    /// propagates through the same detection model as crash knowledge.
    pub(crate) rejoin_detect: Vec<Vec<Vec<f64>>>,
    /// First-event-processed flags per `(proc, epoch)` crash.
    pub(crate) crash_seen: Vec<Vec<bool>>,
    /// First-event-processed flags per `(proc, epoch)` rejoin.
    pub(crate) rejoin_seen: Vec<Vec<bool>>,
    /// Per-task flag: a recovery pass found the task's data gone on
    /// every survivor (deduplicated across detections).
    pub(crate) unrecoverable: Vec<bool>,
    /// Per-task flag: a `ReReplicate`/`Checkpoint` spawn was skipped
    /// because survivors existed but none was repair-eligible yet
    /// (survivor-knowledge rule); retried at every later detection
    /// event. Never set under uniform detection, where eligibility and
    /// survival coincide.
    pub(crate) deferred: Vec<bool>,
    /// Pre-staged data copies per task: the transfer ops of applied
    /// [`PreStage`](RecoveryAction::PreStage) actions, each staging the
    /// data on its receiver. A staged copy feeds later repairs exactly
    /// like a surviving replica output.
    pub(crate) staged: Vec<Vec<u32>>,
    /// Reusable dependency-propagation buffer (otherwise one `Vec<Act>`
    /// per completion, the event loop's hottest allocation). Repair paths
    /// queue their new ops here while wiring them; `Engine::settle`
    /// drains it.
    pub(crate) act_scratch: Vec<Act>,
    /// Second-level propagation buffer for `Engine::fail_now`, the
    /// immediate drain when wiring meets a dependency that can never
    /// deliver — which happens while a repair path's ops wait in
    /// `act_scratch`. One level of nesting is the maximum: the drained
    /// actions (`Fail`/`GhostDone`/`TrySchedule`) never wire new
    /// dependencies.
    pub(crate) fail_scratch: Vec<Act>,
    /// Reusable policy-action buffer, cleared before each hook call.
    pub(crate) action_scratch: Vec<RecoveryAction>,
    /// Best checkpointed fraction of each task (stable storage: survives
    /// any crash; monotone under the max over crashed replicas).
    pub(crate) task_ck_frac: Vec<f64>,
    /// Per-processor first crash deadline after `t = 0`, used by the
    /// template fast path to overwrite op deadlines in one pass.
    pub(crate) proc_deadline: Vec<f64>,
    /// Live link/port occupancy, charged under a contended
    /// [`Contention`](ft_net::Contention) mode; interval lists keep their
    /// capacity across runs (Ideal runs carry it through untouched).
    pub(crate) net: NetworkState,
    /// The run's outcome: the engine counts into it as the run goes, and
    /// its `first_finish`/`recovered` vectors are the run's own per-task
    /// buffers. It holds the latest run's result until the next run
    /// resets it in place.
    pub(crate) outcome: RunOutcome,
}

impl EngineScratch {
    /// A cold arena; the first run through it allocates its buffers,
    /// every later run of the same shape reuses them.
    pub fn new() -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch")
            .field("ops_capacity", &self.ops.capacity())
            .finish_non_exhaustive()
    }
}

/// A shared stack of warm [`EngineScratch`] arenas. Rayon workers of a
/// batch chunk take one arena each and return it at the reduce, so the
/// next chunk (or the next cell of a grid) starts warm instead of cold.
#[derive(Debug, Default)]
pub struct ScratchPool {
    // Boxed on purpose: take/put hand a pointer across threads instead
    // of moving the multi-hundred-byte arena struct by value.
    #[allow(clippy::vec_box)]
    pool: Mutex<Vec<Box<EngineScratch>>>,
}

/// The process-wide arena pool behind one-shot runs
/// ([`Simulation::run`](crate::Simulation::run) and its observed and
/// profiled forms): the first call pays the cold-arena construction,
/// every later one-shot call of any shape starts from a warm arena. Outcomes are byte-identical either way —
/// the arena only recycles capacity, never state (every buffer is reset
/// in `Engine::from_parts`).
pub(crate) fn global_pool() -> &'static ScratchPool {
    static POOL: std::sync::OnceLock<ScratchPool> = std::sync::OnceLock::new();
    POOL.get_or_init(ScratchPool::new)
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a warm arena, or builds a cold one if the pool is empty.
    pub fn take(&self) -> Box<EngineScratch> {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns an arena to the pool for the next taker.
    pub fn put(&self, scratch: Box<EngineScratch>) {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
    }
}

/// A persistent single-thread executor: one [`StaticPlan`] plus one warm
/// [`EngineScratch`] behind a `run(scenario)` call. The steady-state
/// form of [`Simulation::run`](crate::Simulation::run) — byte-identical
/// outcomes, none of the per-run construction.
///
/// # Example
///
/// ```
/// use ft_runtime::{EngineConfig, Executor};
/// use ft_algos::{caft, CommModel};
/// use ft_graph::gen::{random_layered, RandomDagParams};
/// use ft_platform::{random_instance, PlatformParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
/// let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
/// let sched = caft(&inst, 1, CommModel::OnePort, 5);
/// let cfg = EngineConfig::default();
///
/// let mut exec = Executor::new(&inst, &sched, &cfg);
/// let none = ft_sim::FaultScenario::none();
/// for _ in 0..3 {
///     assert!(exec.run(&none).completed());
/// }
/// ```
pub struct Executor<'a> {
    inst: &'a Instance,
    sched: &'a FtSchedule,
    cfg: &'a EngineConfig,
    plan: StaticPlan,
    scratch: Box<EngineScratch>,
}

impl<'a> Executor<'a> {
    /// Builds the executor's plan and a cold arena for runs of `sched`
    /// on `inst` under `cfg` (the built-in `cfg.policy`).
    pub fn new(inst: &'a Instance, sched: &'a FtSchedule, cfg: &'a EngineConfig) -> Self {
        Executor {
            inst,
            sched,
            cfg,
            plan: StaticPlan::new(inst, sched, &cfg.policy),
            scratch: Box::default(),
        }
    }

    /// Runs one scenario through the warm arena; the returned outcome is
    /// byte-identical to a one-shot [`Simulation`](crate::Simulation) run
    /// under `cfg` and valid until the next `run` call.
    pub fn run(&mut self, scenario: &FaultScenario) -> &RunOutcome {
        run_into(
            self.inst,
            self.sched,
            scenario,
            self.cfg,
            &self.cfg.policy,
            &self.plan,
            &mut self.scratch,
            None,
            None,
        );
        &self.scratch.outcome
    }
}

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}
