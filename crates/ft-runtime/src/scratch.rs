//! The zero-allocation event core: reusable run arenas and pre-resolved
//! static plans (DESIGN.md §15).
//!
//! A run's cost splits into three reusable pieces:
//!
//! * [`StaticPlan`] — everything that depends only on the instance, the
//!   schedule and the policy's validated per-task checkpoint plans: those
//!   plans, the topological order, the resolved network (built by the
//!   plan's first contended run), and — for warm plans built by
//!   [`StaticPlan::new`] — a **pre-built op template** (the full static
//!   op graph with its dependency wiring) that a run clones *in place*.
//!   The template is valid for every scenario with no crash at
//!   `t ≤ 0`: such a build takes identical branches everywhere except the
//!   per-op crash deadlines, which are a per-processor overwrite (the
//!   host of a computation, the sender of a transfer). Scenarios that do
//!   kill a processor at `t ≤ 0` — the adversarial replay identities —
//!   and one-shot plans, which carry no template, take the full build,
//!   byte-for-byte, written over the arena's recycled ops in place.
//! * [`EngineScratch`] — every per-run buffer the engine touches, kept
//!   across runs: the op pool, the event queue, belief state, the run's
//!   availability-event table, propagation and repair scratch, and the
//!   run's [`RunOutcome`], whose per-task vectors are the run's
//!   first-finish/recovered buffers. A run owns the arena whole — moved
//!   in, each buffer reset in place, moved back. Once warm, a run
//!   performs **zero** heap allocations when it is failure-free, and
//!   when processors crash and reboot under `Absorb`, `ReReplicate`,
//!   `WarmSpare` and `Checkpoint`, whatever the detection model (pinned
//!   by `tests/alloc_discipline.rs`); `Reschedule`'s CAFT replan still
//!   allocates.
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

use crate::engine::{build_template, run_into, Act, DataCopy, Op};
use crate::metrics::RunOutcome;
use crate::policy::{EngineConfig, Policy, RecoveryAction, TaskInfo};
use ft_graph::{TaskGraph, TaskId};
use ft_model::{FtSchedule, MessageRecord, ReplicaRef};
use ft_net::{NetworkModel, NetworkState};
use ft_platform::{Instance, Platform, ProcId};
use ft_sim::FaultScenario;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::{Mutex, OnceLock};

/// The engine's event queue: a min-heap of [`EventKey`]s, kept in the
/// arena so its buffer outlives the run.
pub(crate) type EventQueue = BinaryHeap<Reverse<EventKey>>;

/// One event key `(time, kind, id)`, ordered lexicographically:
/// `f64::total_cmp` on the time, then kind, then id. Every key pushed by
/// the engine is distinct — an op id enters at most once (the
/// `Pending → Scheduled` transition guards the push), and each
/// availability event, whose id is its index in the run's event table,
/// enters once per distinct knowledge instant — so pop order is the
/// unique ascending key order regardless of heap implementation details.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventKey(pub(crate) f64, pub(crate) u8, pub(crate) u32);

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .total_cmp(&other.0)
            .then(self.1.cmp(&other.1))
            .then(self.2.cmp(&other.2))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EventKey {}

/// One availability event of a run: the crash that opens a failure
/// epoch, or the finite reboot that closes it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AvailEvent {
    /// True for the reboot, false for the crash.
    pub(crate) rejoin: bool,
    /// The failure epoch, 0 for the processor's first crash.
    pub(crate) epoch: usize,
    /// The processor the event is about.
    pub(crate) proc: usize,
    /// Physical instant of the crash or reboot.
    pub(crate) at: f64,
    /// A knowledge event of it was processed: it is in the coordinator
    /// view.
    pub(crate) seen: bool,
}

/// Everything about a run that depends only on the instance, the
/// schedule and the policy's checkpoint plans — those plans, validated,
/// the topological order, the resolved network and, on warm plans, the
/// static op template — computed once and shared by every run of a batch
/// and by the grid cells whose policies plan the same checkpoints.
///
/// See the [module docs](self) for when the template applies and why the
/// fast path is byte-identical to the full build.
pub struct StaticPlan {
    /// Per-task `(interval, overhead)` checkpoint plans from
    /// [`Policy::checkpoint_plan`], validated once here instead of once
    /// per run.
    pub(crate) plans: Vec<Option<(f64, f64)>>,
    /// The tasks in topological order (the static liveness pass walks it).
    pub(crate) topo_order: Vec<TaskId>,
    /// Topological position of each task (spawn-ordering key).
    pub(crate) topo_position: Vec<usize>,
    /// Position of each edge among its target task's in-edges: the key
    /// of a message's input group in [`ReplicaSlots`].
    pub(crate) edge_pos: Vec<u32>,
    /// The op template of a warm plan; `None` on a one-shot plan, whose
    /// single run takes the full build.
    pub(crate) template: Option<OpTemplate>,
    /// Link ids and per-route hop tables of the platform's network,
    /// resolved by the plan's first contended run ([`StaticPlan::network`])
    /// and shared by every later one; runs under a contended
    /// [`Contention`] mode charge transfers against it
    /// ([`ft_net::NetworkState`]), Ideal runs never build it.
    ///
    /// [`Contention`]: ft_net::Contention
    network: OnceLock<NetworkModel>,
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
        Self::warm(inst, sched, policy, checkpoint_table(inst, policy))
    }

    /// The warm plan over `plans`, the [`checkpoint_table`] of `policy`.
    /// The template build calls no policy hook and reads the policy only
    /// through `plans`, so the plan serves every policy with the same
    /// table bit for bit ([`GridBatch`](crate::GridBatch) keys its plans
    /// on it).
    pub(crate) fn warm(
        inst: &Instance,
        sched: &FtSchedule,
        policy: &dyn Policy,
        plans: Vec<Option<(f64, f64)>>,
    ) -> Self {
        let mut plan = Self::one_shot(inst, plans);
        plan.template = Some(build_template(inst, sched, policy, &plan));
        plan
    }

    /// The one-shot plan over the checkpoint table `plans`: everything
    /// but the op template. Its single run pays the full op build once
    /// anyway, so a template would only add a second one.
    pub(crate) fn one_shot(inst: &Instance, plans: Vec<Option<(f64, f64)>>) -> Self {
        let g = &inst.graph;
        let topo_order = ft_graph::topological_order(g);
        let mut topo_position = vec![0usize; inst.num_tasks()];
        for (i, t) in topo_order.iter().enumerate() {
            topo_position[t.index()] = i;
        }
        let mut edge_pos = vec![0u32; g.num_edges()];
        for t in g.tasks() {
            for (k, e) in g.in_edges(t).iter().enumerate() {
                edge_pos[e.index()] = k as u32;
            }
        }
        StaticPlan {
            plans,
            topo_order,
            topo_position,
            edge_pos,
            template: None,
            network: OnceLock::new(),
        }
    }

    /// The resolved network of `platform`, the platform of the plan's
    /// instance: built on the first call, shared by every later run on
    /// any thread.
    pub(crate) fn network(&self, platform: &Platform) -> &NetworkModel {
        self.network.get_or_init(|| NetworkModel::new(platform))
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

/// The per-task `(interval, overhead)` checkpoint table of `policy` on
/// `inst`: one [`Policy::checkpoint_plan`] query per task, validated here
/// so a misbehaving plan fails loudly before any op is built.
pub(crate) fn checkpoint_table(inst: &Instance, policy: &dyn Policy) -> Vec<Option<(f64, f64)>> {
    (0..inst.num_tasks())
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
        .collect()
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
    /// The op pool, indexed by op id. The run's ops are its live prefix
    /// `ops[..live]` — static ops first, repair work appended as it is
    /// spawned — and every slot past it holds an op of an earlier run,
    /// kept so that the next op written there (`put_op`) reuses its
    /// per-op lists' capacity. The pool is never truncated.
    pub(crate) ops: Vec<Op>,
    /// The number of live ops: the length of the run's prefix of `ops`.
    pub(crate) live: usize,
    /// `(finish, kind, id)`; kind 0 = op completion (`id` = op), 1 =
    /// knowledge of an availability event (`id` = its index in
    /// `events`). Completions at a given instant precede knowledge
    /// events, which follow the order of `events`.
    pub(crate) queue: EventQueue,
    /// Static exec op per (task, copy); `None` when pruned at build time.
    pub(crate) static_exec: Vec<Vec<Option<u32>>>,
    /// Recovery exec ops per task.
    pub(crate) recovery_exec: Vec<Vec<u32>>,
    /// The coordinator's current belief: `p` is dead (its latest known
    /// availability event is a crash). Flips back to `false` when a
    /// rejoin enters the coordinator view.
    pub(crate) known_dead: Vec<bool>,
    /// The availability event of `p` with the latest *physical* instant
    /// among those in the coordinator view (an index into `events`). The
    /// belief follows it, so out-of-order knowledge (a slow crash
    /// detection arriving after the fast rejoin news) cannot roll the
    /// state backwards; while `known_dead[p]` it is the crash whose
    /// knowledge decides repair eligibility.
    pub(crate) believed: Vec<Option<u32>>,
    /// The run's availability events, from the scenario: each failure
    /// epoch's crash and each finite reboot, ordered crashes first, then
    /// by epoch, then by processor. An event's index is its heap id, so
    /// knowledge events landing at one instant are processed in this
    /// order.
    pub(crate) events: Vec<AvailEvent>,
    /// `knows[e · m + q]`: the instant at which processor `q` learns of
    /// event `e` (`INFINITY` = never), one row per event, written in
    /// place by the [`DetectionModel`](crate::DetectionModel) at the
    /// start of the run.
    pub(crate) knows: Vec<f64>,
    /// One event's distinct knowledge instants while `seed_events`
    /// queues them.
    pub(crate) instants: Vec<f64>,
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
    /// Per-processor first crash deadline after `t = 0`: the static
    /// ops' deadlines, overwritten in one pass on the template fast path.
    pub(crate) proc_deadline: Vec<f64>,
    /// Replica slots and per-(replica, in-edge) message groups of the
    /// schedule being wired: the static schedule during the full build, a
    /// replan's plan during `Engine::reschedule`.
    pub(crate) slots: ReplicaSlots,
    /// Static liveness per replica slot (full build only).
    pub(crate) slot_alive: Vec<bool>,
    /// Static transfer op per schedule message; `None` when pruned.
    pub(crate) msg_op: Vec<Option<u32>>,
    /// Bucket bounds of the inherited FIFO orders: queue `q`'s entries
    /// are `fifo[fifo_start[q]..fifo_start[q + 1]]` (see
    /// `Engine::build_static_ops`).
    pub(crate) fifo_start: Vec<u32>,
    /// The inherited FIFO orders' `(start, op)` entries, bucketed by
    /// queue and ordered within each.
    pub(crate) fifo: Vec<(f64, u32)>,
    /// One first-copy input group's members while it is wired.
    pub(crate) members: Vec<u32>,
    /// Surviving data copies a repair path is reading, one sorted segment
    /// per task (`Engine::surviving_copies`): a spawn's inputs, one
    /// segment per in-edge, a pre-stage's predecessor, or a replan's
    /// frontier task.
    pub(crate) copies: Vec<DataCopy>,
    /// The end of each in-edge's segment of `copies` while a spawn is
    /// placed.
    pub(crate) copy_ends: Vec<usize>,
    /// The repair-eligible hosts of the current event
    /// (`Engine::eligible_hosts`), narrowed to a spawn's candidates.
    pub(crate) hosts: Vec<ProcId>,
    /// One policy batch's spawn and resume proposals as `(task, resume,
    /// push index)` while `Engine::apply_actions` orders and applies them.
    pub(crate) spawns: Vec<(usize, bool, u32)>,
    /// One policy batch's validated pre-stages as `(task, host)`.
    pub(crate) prestages: Vec<(usize, usize)>,
    /// The per-task tables of a `Reschedule` replan.
    pub(crate) replan: ReplanScratch,
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

/// Replica slots of a schedule and each replica's input groups, as flat
/// tables rebuilt in place per schedule: replica `(t, c)` is slot
/// `base[t] + c`, its input group along the `k`-th in-edge of `t` is
/// group `groups[s] + k`, and the messages of group `g`, in schedule
/// order, are `msgs[start[g]..start[g + 1]]` (message indices). A message
/// into a copy past its task's replicas has no slot and is dropped.
#[derive(Debug, Default)]
pub(crate) struct ReplicaSlots {
    base: Vec<u32>,
    groups: Vec<u32>,
    start: Vec<u32>,
    msgs: Vec<u32>,
}

impl ReplicaSlots {
    /// Indexes `sched`'s replicas and messages, reusing the tables;
    /// `edge_pos` is [`StaticPlan::edge_pos`] of `graph`.
    pub(crate) fn index(&mut self, sched: &FtSchedule, graph: &TaskGraph, edge_pos: &[u32]) {
        self.base.clear();
        self.groups.clear();
        let (mut slots, mut groups) = (0u32, 0u32);
        for (t, rs) in sched.replicas.iter().enumerate() {
            self.base.push(slots);
            slots += rs.len() as u32;
            let in_degree = graph.in_edges(TaskId::from_index(t)).len() as u32;
            for _ in rs {
                self.groups.push(groups);
                groups += in_degree;
            }
        }
        self.base.push(slots);
        self.groups.push(groups);
        // Counting sort by group: count group g at g + 2, so the prefix
        // sums leave each group's begin at g + 1, where the fill advances
        // it to its end — the next group's begin.
        let n = groups as usize;
        self.start.clear();
        self.start.resize(n + 2, 0);
        for msg in &sched.messages {
            debug_assert_eq!(
                graph.in_edges(msg.dst.task)[edge_pos[msg.edge.index()] as usize],
                msg.edge,
                "message along an edge that does not enter its receiver"
            );
            if let Some(g) = self.group_of(msg, edge_pos) {
                self.start[g + 2] += 1;
            }
        }
        for i in 2..n + 2 {
            self.start[i] += self.start[i - 1];
        }
        self.msgs.clear();
        self.msgs.resize(self.start[n + 1] as usize, 0);
        for (mi, msg) in sched.messages.iter().enumerate() {
            if let Some(g) = self.group_of(msg, edge_pos) {
                let at = &mut self.start[g + 1];
                self.msgs[*at as usize] = mi as u32;
                *at += 1;
            }
        }
    }

    /// The input group of `msg`, `None` when its receiver has no slot.
    fn group_of(&self, msg: &MessageRecord, edge_pos: &[u32]) -> Option<usize> {
        let s = self.slot_of(msg.dst)?;
        Some((self.groups[s] + edge_pos[msg.edge.index()]) as usize)
    }

    /// The slot of replica `r`, `None` past its task's replicas.
    pub(crate) fn slot_of(&self, r: ReplicaRef) -> Option<usize> {
        let t = r.task.index();
        let at = self.base[t] + r.copy as u32;
        (at < self.base[t + 1]).then_some(at as usize)
    }

    /// The slot of copy `c` of task `t`.
    #[inline]
    pub(crate) fn slot(&self, t: usize, c: usize) -> usize {
        self.base[t] as usize + c
    }

    /// The messages into slot `s` along the `k`-th in-edge of its task,
    /// in schedule order: the replica's first-copy input group on that
    /// edge.
    #[inline]
    pub(crate) fn group(&self, s: usize, k: usize) -> &[u32] {
        let g = self.groups[s] as usize + k;
        &self.msgs[self.start[g] as usize..self.start[g + 1] as usize]
    }
}

/// The per-task tables of one `Reschedule` replan, kept across replans
/// and runs (each inner list keeps its capacity).
#[derive(Debug, Default)]
pub(crate) struct ReplanScratch {
    /// Tasks still to run (neither completed nor safely in flight).
    pub(crate) remnant: Vec<bool>,
    /// Frontier copies `(proc, ready)` of each non-remnant task.
    pub(crate) sources: Vec<Vec<(ProcId, f64)>>,
    /// The op still producing each frontier copy (`None`: data exists).
    pub(crate) src_ops: Vec<Vec<Option<u32>>>,
    /// The plan's exec op per remnant replica.
    pub(crate) new_exec: Vec<Vec<u32>>,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key of the test set, listed in the contract's pop order:
    /// time by `total_cmp` (`-0.0` before `0.0`), then kind — completion
    /// (0) before knowledge (1) — then id.
    fn keys_in_pop_order() -> Vec<EventKey> {
        let mut keys = Vec::new();
        for time in [-1.5, -0.0, 0.0, 0.25, 1.0, 7.0] {
            for kind in 0..2 {
                for id in [0, 3, 11] {
                    keys.push(EventKey(time, kind, id));
                }
            }
        }
        keys
    }

    /// The rank of `key` in `order`, matching the time bit for bit.
    fn rank(order: &[EventKey], key: EventKey) -> usize {
        order
            .iter()
            .position(|k| k.0.to_bits() == key.0.to_bits() && (k.1, k.2) == (key.1, key.2))
            .expect("popped a key that was never pushed")
    }

    /// `keys` in a fixed scrambled order: every `stride`-th key, wrapping,
    /// which visits each key once when `stride` is coprime to the length.
    fn shuffled(keys: &[EventKey], stride: usize) -> Vec<EventKey> {
        let n = keys.len();
        assert!(
            (1..n).all(|i| !(i * stride).is_multiple_of(n)),
            "stride {stride} shares a factor with {n}"
        );
        (0..n).map(|i| keys[i * stride % n]).collect()
    }

    /// Pushes `keys` one by one, then pops the queue empty, returning
    /// each popped key's rank in `order`.
    fn push_then_drain(
        queue: &mut EventQueue,
        order: &[EventKey],
        keys: &[EventKey],
    ) -> Vec<usize> {
        for &key in keys {
            queue.push(Reverse(key));
        }
        std::iter::from_fn(|| queue.pop())
            .map(|Reverse(key)| rank(order, key))
            .collect()
    }

    #[test]
    fn event_queue_pops_time_then_kind_then_id() {
        let order = keys_in_pop_order();
        let ascending: Vec<usize> = (0..order.len()).collect();
        let mut queue = EventQueue::new();
        assert_eq!(
            push_then_drain(&mut queue, &order, &shuffled(&order, 7)),
            ascending
        );

        // Interleaved pushes and pops: every pop returns the least key
        // still queued.
        let mut queued = std::collections::BTreeSet::new();
        for (i, key) in shuffled(&order, 11).into_iter().enumerate() {
            queue.push(Reverse(key));
            queued.insert(rank(&order, key));
            if i % 3 == 2 {
                let Reverse(key) = queue.pop().expect("a queued key");
                assert_eq!(Some(rank(&order, key)), queued.pop_first());
            }
        }

        // A cleared queue forgets its keys and keeps the contract.
        queue.clear();
        assert!(queue.is_empty());
        assert_eq!(
            push_then_drain(&mut queue, &order, &shuffled(&order, 13)),
            ascending
        );
    }
}
