//! The online execution engine: timed crashes, detection, recovery.
//!
//! The engine runs a static [`FtSchedule`] against a *timed*
//! [`FaultScenario`]: each listed processor works normally until its crash
//! time and is fail-stop dead afterwards. The engine is an operation-graph
//! discrete-event simulation in the style of `ft-sim`'s replay (same
//! inherited FIFO orders, same first-surviving-copy input policy), with
//! three additions:
//!
//! 1. **Timed validity** — an operation completes only if it finishes by
//!    its processor's crash deadline (computations: the host; transfers:
//!    the sender — a fail-stop sender transmits into the void if the
//!    receiver died, and the receiving replica's own deadline accounts for
//!    the loss).
//! 2. **Failure propagation with ghost pass-through** — when an operation
//!    can no longer happen, operations waiting on its *data* starve
//!    (first-copy groups lose a member; fan-in edges fail), but operations
//!    merely queued *behind* it on a port, link or processor inherit its
//!    accumulated queue time and proceed: a vanished transfer does not
//!    occupy its port. With every crash at time 0 this reproduces the
//!    fail-silent pruning of `ft_sim::replay` exactly, a property pinned
//!    by the `timed_model` test-suite.
//! 3. **Detection and recovery** — each crash is detected per survivor
//!    at the instants the configured [`DetectionModel`] yields (a uniform
//!    latency, per-processor delays, or seeded gossip rounds). The
//!    configured [`RecoveryPolicy`] may inject repair work whenever the
//!    knowledge of a crash spreads: replacement replicas fed by surviving
//!    copies (`ReReplicate`), resumed replicas restored from the last
//!    completed checkpoint (`Checkpoint`), or a full CAFT repair plan on
//!    the not-yet-started sub-DAG (`Reschedule`, via
//!    [`ft_algos::caft_on_subdag`]). Repair traffic is modeled
//!    contention-free with respect to the in-flight static traffic (the
//!    same emergency-traffic simplification the replay engine makes for
//!    its fail-over reroute; see DESIGN.md §4). Knowledge honesty cuts
//!    both ways: work scheduled onto a processor that has crashed but
//!    whose failure is still undetected is trusted, fails, and is
//!    repaired at a later detection — and repair work is placed **only on
//!    survivors that have already detected every known crash** (the
//!    survivor-knowledge rule; under
//!    [`DetectionModel::Uniform`] every survivor qualifies at the single
//!    detection instant, which reproduces the historical scalar-latency
//!    engine exactly).
//! 4. **Resumable partial progress** (`Checkpoint` only) — every
//!    computation stretches by one `overhead` per completed `interval` of
//!    work (checkpoint writes; none after the final segment). When a
//!    computation dies with its host, the checkpoints it completed by the
//!    crash instant are credited to the task's resumable fraction; a
//!    replacement then reads the newest checkpoint from stable storage
//!    (one more `overhead`), fetches no inputs, and recomputes only the
//!    remaining fraction. With `interval = ∞` no checkpoint is ever
//!    written and the policy degenerates to `ReReplicate` exactly (pinned
//!    by `tests/timed_model.rs`); see DESIGN.md §5 for the full state
//!    machine.
//! 5. **Availability: transient failures and rejoins** — a scenario may
//!    attach a repair time to each failure epoch
//!    ([`FaultScenario::transient`]): the processor is down during
//!    `(crash, crash + repair)`, reboots at the end of the window, and
//!    may crash again. Every operation is bound to the epoch it was
//!    placed in (its deadline is the host's next crash after its
//!    release); rejoin knowledge spreads through the same
//!    [`DetectionModel`] as crash knowledge, the rejoined processor is
//!    believed up (and repair-eligible) once its rejoin enters the
//!    coordinator view, and every rejoin-knowledge event is a
//!    rejuvenation chance — deferred and previously unrepairable tasks
//!    are retried, `Reschedule` replans on the grown platform, and the
//!    rebooted processor's completed results are reachable again (local
//!    data persists across reboots). With `repair = ∞` everywhere this
//!    machinery collapses to the historical permanent-crash engine
//!    byte-for-byte (the availability identity, pinned by
//!    `tests/timed_model.rs`); see DESIGN.md §6.
//!
//! Determinism: a run is a pure function of
//! `(instance, schedule, scenario, config)`.
//!
//! # Example
//!
//! ```
//! use ft_runtime::{DetectionModel, RecoveryPolicy, Simulation};
//! use ft_algos::{caft, CommModel};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams, ProcId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(11);
//! let g = random_layered(&RandomDagParams::default().with_tasks(40), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! let sched = caft(&inst, 1, CommModel::OnePort, 11);
//!
//! // Crash one processor halfway through; resume its work from
//! // checkpoints written every 2 time units at 0.05 each.
//! let scenario = ft_sim::FaultScenario::timed(&[(ProcId(2), sched.latency() * 0.5)]);
//! let out = Simulation::of(&inst, &sched)
//!     .policy(RecoveryPolicy::checkpoint(2.0, 0.05))
//!     .detection(DetectionModel::uniform(1.0))
//!     .run(&scenario);
//! assert_eq!(out.detections, 1);
//! // Every completed computation paid its checkpoint writes…
//! assert!(out.checkpoint_overhead > 0.0);
//! // …and the outcome accounts for the recomputation resuming avoided.
//! assert!(out.work_saved >= 0.0);
//! ```

#[cfg(doc)]
use crate::detection::DetectionModel;
use crate::metrics::RunOutcome;
use crate::observe::{Observer, PhaseProfile};
#[cfg(doc)]
use crate::policy::{CheckpointPlan, RecoveryPolicy};
use crate::policy::{EngineConfig, Policy, PolicyEvent, RecoveryAction};
use crate::scratch::{
    checkpoint_table, AvailEvent, EngineScratch, EventKey, OpTemplate, StaticPlan,
};
use ft_algos::{caft_on_subdag, CaftOptions, SubDagSpec};
use ft_graph::{EdgeId, TaskId};
use ft_model::{FtSchedule, ReplicaRef};
#[cfg(doc)]
use ft_net::NetworkState;
use ft_platform::{Instance, ProcId};
use ft_sim::FaultScenario;
use std::cmp::Reverse;

/// Times `$body` into the engine's attached [`PhaseProfile`], if any; an
/// unprofiled run pays one `Option` check per phase.
macro_rules! phase {
    ($self:ident, $ph:ident, $body:expr) => {{
        let timer = $self.profile.is_some().then(std::time::Instant::now);
        let out = $body;
        if let (Some(profile), Some(start)) = ($self.profile.as_deref_mut(), timer) {
            profile.record(crate::observe::Phase::$ph, start.elapsed());
        }
        out
    }};
}

/// Runs one scenario on a throwaway template-free plan, through an arena
/// borrowed from the process-wide pool: the one-shot path behind
/// [`Simulation::run`](crate::Simulation::run) and its observed and
/// profiled forms. A one-shot run builds its op graph once anyway, so a
/// template would only add a second build (DESIGN.md §15).
pub(crate) fn run_once(
    inst: &Instance,
    sched: &FtSchedule,
    scenario: &FaultScenario,
    cfg: &EngineConfig,
    policy: &dyn Policy,
    observer: Option<&mut dyn Observer>,
    profile: Option<&mut PhaseProfile>,
) -> RunOutcome {
    let plan = StaticPlan::one_shot(inst, checkpoint_table(inst, policy));
    let pool = crate::scratch::global_pool();
    let mut scratch = pool.take();
    run_into(
        inst,
        sched,
        scenario,
        cfg,
        policy,
        &plan,
        &mut scratch,
        observer,
        profile,
    );
    let out = std::mem::take(&mut scratch.outcome);
    pool.put(scratch);
    out
}

/// Runs one scenario through the reusable `scratch` arena, leaving the
/// outcome in `scratch.outcome` — the single execution path every entry
/// point (one-shot [`Simulation`] runs, batches, grids, [`Executor`]) goes
/// through. With a warm arena and a templated plan this performs zero
/// heap allocations on failure-free scenarios; the result is
/// byte-identical either way.
///
/// [`Simulation`]: crate::Simulation
/// [`Executor`]: crate::Executor
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_into<'a>(
    inst: &'a Instance,
    sched: &'a FtSchedule,
    scenario: &'a FaultScenario,
    cfg: &'a EngineConfig,
    policy: &'a dyn Policy,
    plan: &'a StaticPlan,
    scratch: &mut EngineScratch,
    observer: Option<&mut dyn Observer>,
    profile: Option<&'a mut PhaseProfile>,
) {
    let arena = std::mem::take(scratch);
    let mut engine = Engine::from_parts(inst, sched, scenario, cfg, policy, plan, arena);
    engine.profile = profile;
    phase!(engine, OpBuild, engine.build_ops());
    engine.seed_events();
    match observer {
        Some(obs) => {
            engine.run(Some(&mut *obs));
            engine.emit_ops(&mut *obs);
            engine.finish_into(scratch);
            obs.on_run_end(&scratch.outcome);
        }
        None => {
            engine.run(None);
            engine.finish_into(scratch);
        }
    }
}

/// Builds the static op template of a dead0-free run — the op arena and
/// `static_exec` of a build under [`FaultScenario::none`] — by running
/// the full builder once over `plan`. [`StaticPlan::new`] stores the
/// result; [`Engine::build_from_template`] clones it per run.
pub(crate) fn build_template(
    inst: &Instance,
    sched: &FtSchedule,
    policy: &dyn Policy,
    plan: &StaticPlan,
) -> OpTemplate {
    let none = FaultScenario::none();
    let cfg = EngineConfig::default();
    let arena = EngineScratch::default();
    let mut engine = Engine::from_parts(inst, sched, &none, &cfg, policy, plan, arena);
    engine.build_static_ops();
    let EngineScratch {
        ops,
        live,
        static_exec,
        ..
    } = engine.arena;
    debug_assert_eq!(ops.len(), live, "a fresh arena pools no spare ops");
    OpTemplate { ops, static_exec }
}

/// Empties a per-element buffer vector to length `n`, keeping every
/// allocation (outer and inner) for reuse.
fn reset_nested<T>(v: &mut Vec<Vec<T>>, n: usize) {
    v.truncate(n);
    for inner in v.iter_mut() {
        inner.clear();
    }
    v.resize_with(n, Vec::new);
}

/// Refills a flat buffer vector with `n` copies of `fill` in place.
fn reset_flat<T: Copy>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

/// Writes `op` into slot `*next` of the op pool and advances `*next`,
/// the pool's live count: over the recycled op there, in place via
/// `Clone::clone_from`, so its four per-op lists keep their capacity, or
/// appended past the end. Returns the op's id. Every op of a run — the
/// full build's, the template's and every repair op — enters the pool
/// here.
fn put_op(ops: &mut Vec<Op>, next: &mut usize, op: &Op) -> u32 {
    let id = *next;
    match ops.get_mut(id) {
        Some(slot) => slot.clone_from(op),
        None => ops.push(op.clone()),
    }
    *next += 1;
    id as u32
}

/// Visits every entry of the inherited FIFO orders as `(queue, (start,
/// op))`, where queue `p` is processor `p`, `m + p` its send port,
/// `2m + p` its receive port and `3m + k·m + h` the link `k → h`: each
/// built replica on its host, and each built remote message on its
/// sender's send port, on its receiver's receive port unless the
/// receiver is dead at `t = 0`, and on its link.
fn fifo_entries(
    sched: &FtSchedule,
    static_exec: &[Vec<Option<u32>>],
    msg_op: &[Option<u32>],
    deadline: &[f64],
    mut visit: impl FnMut(usize, (f64, u32)),
) {
    let m = deadline.len();
    let dead0 = |p: ProcId| deadline[p.index()] <= 0.0;
    for (rs, ops) in sched.replicas.iter().zip(static_exec) {
        for (r, op) in rs.iter().zip(ops) {
            if let Some(op) = *op {
                visit(r.proc.index(), (r.start, op));
            }
        }
    }
    for (msg, op) in sched.messages.iter().zip(msg_op) {
        let Some(op) = *op else { continue };
        if msg.is_local() {
            continue;
        }
        let entry = (msg.start, op);
        visit(m + msg.from.index(), entry);
        if !dead0(msg.to) {
            visit(2 * m + msg.to.index(), entry);
        }
        visit((3 + msg.from.index()) * m + msg.to.index(), entry);
    }
}

/// One surviving copy of a task's output data: `(op, proc, ready)` — the
/// op still producing it (`None` once the data exists), the processor it
/// lives on, and when it is (estimated to be) available.
pub(crate) type DataCopy = (Option<u32>, ProcId, f64);

/// Read-only view of the engine's belief and progress state, handed to
/// the [`Policy`] hooks at each event. The view exposes the engine's own
/// loss analytics — [`crash_lost_tasks`](PolicyView::crash_lost_tasks)
/// and [`lost_tasks`](PolicyView::lost_tasks) are exactly the selections
/// the built-in `ReReplicate` family repairs — so custom policies can
/// compose them instead of re-deriving engine internals. All queries are
/// evaluated at the event instant the view was built for.
pub struct PolicyView<'a> {
    engine: &'a Engine<'a>,
    now: f64,
}

impl<'a> PolicyView<'a> {
    /// The event instant the view is evaluated at.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The platform size `m`.
    pub fn num_procs(&self) -> usize {
        self.engine.inst.num_procs()
    }

    /// The workload size (task count).
    pub fn num_tasks(&self) -> usize {
        self.engine.inst.num_tasks()
    }

    /// The instance under execution (task costs, comm times, graph).
    pub fn instance(&self) -> &Instance {
        self.engine.inst
    }

    /// True if the coordinator currently believes `p` is dead (its
    /// latest known availability event is a crash).
    pub fn is_believed_dead(&self, p: ProcId) -> bool {
        self.engine.arena.known_dead[p.index()]
    }

    /// The survivor-knowledge rule: true iff `p` is believed up **and**
    /// has detected every crash the coordinator currently knows about —
    /// the processors repair work (and pre-staged data) may land on.
    pub fn is_repair_eligible(&self, p: ProcId) -> bool {
        self.engine.repair_eligible(p.index(), self.now)
    }

    /// True if some replica of `t` completed, or is scheduled on a
    /// processor not believed dead (the runtime thinks the task needs no
    /// intervention).
    pub fn task_believed_safe(&self, t: TaskId) -> bool {
        self.engine.task_believed_safe(t.index())
    }

    /// True if some replica of `t` has completed.
    pub fn task_completed(&self, t: TaskId) -> bool {
        self.engine.arena.outcome.first_finish[t.index()].is_some()
    }

    /// True if an earlier repair attempt of `t` was deferred for lack of
    /// repair-eligible survivors (the engine rescans deferred tasks at
    /// every knowledge event).
    pub fn is_deferred(&self, t: TaskId) -> bool {
        self.engine.arena.deferred[t.index()]
    }

    /// The best checkpointed fraction of `t` on stable storage (0 when
    /// the task never completed a checkpoint — a
    /// [`RecoveryAction::ResumeFromCheckpoint`] then falls back to the
    /// from-scratch spawn).
    pub fn checkpoint_credit(&self, t: TaskId) -> f64 {
        self.engine.arena.task_ck_frac[t.index()]
    }

    /// The tasks a crash-knowledge event about `p` puts at risk: every
    /// task that lost a not-yet-completed replica on `p` (or was pruned
    /// at build time, or sits on the deferred-retry list) and is not
    /// believed safe — the selection the built-in `ReReplicate` family
    /// repairs, in task-index order.
    pub fn crash_lost_tasks(&self, p: ProcId) -> impl Iterator<Item = TaskId> + '_ {
        self.engine
            .lost_tasks_where(move |op| op.proc as usize == p.index() && op.state != OpState::Done)
    }

    /// Every task that suffered a loss anywhere — a failed, cancelled or
    /// believed-dead-hosted replica, a build-time pruning, or an earlier
    /// deferral — and is not believed safe: the rejuvenation selection
    /// the built-ins repair at rejoin-knowledge events, in task-index
    /// order.
    pub fn lost_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        let known_dead = &self.engine.arena.known_dead;
        self.engine.lost_tasks_where(move |op| {
            matches!(
                op.state,
                OpState::Failed | OpState::GhostDone | OpState::Cancelled
            ) || (op.state != OpState::Done && known_dead[op.proc as usize])
        })
    }
}

/// Kind of one recorded engine event (see [`EngineTrace::events`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TraceEventKind {
    /// An operation completed.
    Completion,
    /// Knowledge of a crash reached one more set of survivors.
    Detection,
    /// Knowledge of a reboot reached one more set of survivors.
    Rejoin,
}

/// One engine event, in the order the event loop processed it.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceEvent {
    /// Wall-clock instant of the event.
    pub time: f64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// One operation of a finished execution (computation or transfer).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct OpTrace {
    /// Executing (computation) or sending (transfer) processor.
    pub proc: ProcId,
    /// `Some(task)` for computations, `None` for transfers.
    pub task: Option<TaskId>,
    /// Earliest allowed start (0 for static work, the spawning event's
    /// instant for recovery work).
    pub release: f64,
    /// Scheduled start instant (meaningful only when `completed`).
    pub start: f64,
    /// Completion instant (meaningful only when `completed`).
    pub finish: f64,
    /// The instant the event loop *discovered* the completion — the time
    /// of the event being processed when the op resolved (meaningful only
    /// when `completed`). Ghost pass-through (DESIGN.md §4) can resolve an
    /// op behind a later event, so `discovered ≥ finish` with equality on
    /// the direct path; the gap is the op's discovery lag. Pinned ≥
    /// `finish` by the `engine_invariants` ordering property.
    pub discovered: f64,
    /// True if the operation actually happened (reached `Done`).
    pub completed: bool,
    /// True for repair work injected by a recovery action (replicas and
    /// their input transfers alike).
    pub recovery: bool,
    /// Nominal work units (re)computed / transferred by this op.
    pub work: f64,
    /// Total work of the task on this host (computations; equals `work`
    /// unless the op resumed from a checkpoint).
    pub full: f64,
    /// Fraction restored from a checkpoint before this op started.
    pub done_frac: f64,
    /// Checkpoint write/read padding baked into the op's wall-clock time.
    pub ck_pad: f64,
}

/// Observability record of one run, buffered by a
/// [`TraceObserver`](crate::TraceObserver): the materialized operations
/// and the processed events in order. Event times are monotone
/// non-decreasing — one of the engine invariants the property suite pins.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct EngineTrace {
    /// Every operation the engine materialized, in creation order.
    pub ops: Vec<OpTrace>,
    /// The event log, in processing order.
    pub events: Vec<TraceEvent>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpState {
    /// Waiting for dependencies.
    Pending,
    /// All dependencies met; completion event queued.
    Scheduled,
    /// Completed; produced its data.
    Done,
    /// Can never happen (crashed resource or starved inputs); may still
    /// owe a queue pass-through to its FIFO successors.
    Failed,
    /// Failed op whose queue pass-through has been emitted.
    GhostDone,
    /// Superseded repair work (a newer repair plan replaced it).
    Cancelled,
}

#[derive(Debug)]
pub(crate) struct Op {
    /// Wall-clock duration (ignored when `fixed_finish` is set). For
    /// computations under `Checkpoint` this is `work` plus the checkpoint
    /// padding `ck_pad`; otherwise it equals `work`.
    duration: f64,
    /// Remaining nominal work units (computations; equals the transfer
    /// time for messages).
    work: f64,
    /// Total work of the task on this host (`work / (1 − done_frac)`);
    /// only meaningful for computations.
    full: f64,
    /// Fraction of the task restored from a checkpoint before this op
    /// starts (0 for everything but resumed replacements).
    done_frac: f64,
    /// Checkpoint padding baked into `duration`: one `overhead` per
    /// checkpoint write, plus one read when `done_frac > 0`.
    ck_pad: f64,
    /// Repair-plan operations complete at their planned instant.
    fixed_finish: Option<f64>,
    /// Earliest allowed start (0 for static work, detection time for
    /// repair work).
    release: f64,
    /// Completion is valid only if `finish ≤ deadline` (crash time of the
    /// executing / sending processor).
    deadline: f64,
    /// Executing (exec) or sending (msg) processor.
    proc: u32,
    /// Receiving processor of a transfer (equals `proc` for computations
    /// and local messages — exactly the ops that never touch a link).
    dst: u32,
    /// `Some(task)` for computations, `None` for transfers.
    task: Option<TaskId>,
    /// True for repair work: every op a recovery action injected.
    recovery: bool,
    /// Estimated finish (repair planning estimate; exact once scheduled).
    est_finish: f64,

    hard_remaining: u32,
    fifo_remaining: u32,
    groups_remaining: u32,
    /// Per input group: its live (not-yet-failed) member count, and
    /// whether it already delivered its first copy.
    groups: Vec<(u32, bool)>,
    data_ready: f64,
    fifo_ready: f64,

    hard_deps: Vec<u32>,
    fifo_deps: Vec<u32>,
    /// `(dependent, group index)` pairs.
    group_deps: Vec<(u32, u32)>,

    state: OpState,
    /// Scheduled start (set when the op is scheduled; 0 before).
    start: f64,
    finish: f64,
    /// Event-loop instant the completion was discovered (set on `Done`;
    /// ≥ `finish`, with the gap being ghost pass-through discovery lag).
    discovered: f64,
}

impl Op {
    fn new(duration: f64, release: f64, deadline: f64, proc: ProcId) -> Self {
        Op {
            duration,
            work: duration,
            full: duration,
            done_frac: 0.0,
            ck_pad: 0.0,
            fixed_finish: None,
            release,
            deadline,
            proc: proc.index() as u32,
            dst: proc.index() as u32,
            task: None,
            recovery: false,
            est_finish: 0.0,
            hard_remaining: 0,
            fifo_remaining: 0,
            groups_remaining: 0,
            groups: Vec::new(),
            data_ready: 0.0,
            fifo_ready: 0.0,
            hard_deps: Vec::new(),
            fifo_deps: Vec::new(),
            group_deps: Vec::new(),
            state: OpState::Pending,
            start: 0.0,
            finish: 0.0,
            discovered: 0.0,
        }
    }
}

/// Hand-written so that `clone_from` reuses the target's buffers: the
/// derived impl's `clone_from` falls back to `*self = source.clone()`,
/// which would re-allocate all four per-op lists per op per run and
/// defeat the template fast path. `clone` builds through `clone_from`, so
/// the field list is written once.
impl Clone for Op {
    fn clone(&self) -> Self {
        let mut op = Op::new(0.0, 0.0, 0.0, ProcId(0));
        op.clone_from(self);
        op
    }

    fn clone_from(&mut self, source: &Self) {
        self.duration = source.duration;
        self.work = source.work;
        self.full = source.full;
        self.done_frac = source.done_frac;
        self.ck_pad = source.ck_pad;
        self.fixed_finish = source.fixed_finish;
        self.release = source.release;
        self.deadline = source.deadline;
        self.proc = source.proc;
        self.dst = source.dst;
        self.task = source.task;
        self.recovery = source.recovery;
        self.est_finish = source.est_finish;
        self.hard_remaining = source.hard_remaining;
        self.fifo_remaining = source.fifo_remaining;
        self.groups_remaining = source.groups_remaining;
        self.groups.clone_from(&source.groups);
        self.data_ready = source.data_ready;
        self.fifo_ready = source.fifo_ready;
        self.hard_deps.clone_from(&source.hard_deps);
        self.fifo_deps.clone_from(&source.fifo_deps);
        self.group_deps.clone_from(&source.group_deps);
        self.state = source.state;
        self.start = source.start;
        self.finish = source.finish;
        self.discovered = source.discovered;
    }
}

/// Local propagation actions, drained to a fixpoint between events.
pub(crate) enum Act {
    TrySchedule(u32),
    Fail(u32),
    RealDone(u32, f64),
    GhostDone(u32),
}

/// One run in flight: its borrowed inputs and plan, and the arena it owns
/// until [`Engine::finish_into`] moves it back (DESIGN.md §15).
struct Engine<'a> {
    inst: &'a Instance,
    sched: &'a FtSchedule,
    scenario: &'a FaultScenario,
    cfg: &'a EngineConfig,
    /// The recovery policy, behind the open trait (built-ins and custom
    /// implementations share this one dispatch path).
    policy: &'a dyn Policy,
    /// Checkpoint plans, topological positions and the network of the
    /// run's `(instance, schedule, policy)`, resolved once per plan.
    plan: &'a StaticPlan,
    /// Every per-run buffer and the [`RunOutcome`] the run counts into.
    /// Held by value, not borrowed, so each buffer sits at a fixed offset
    /// from `self` in the hot loop.
    arena: EngineScratch,
    /// `cfg.contention.is_contended()`, hoisted out of the hot loop.
    contended: bool,
    /// Event-loop frontier: the maximum event time popped so far; the
    /// completion-discovery instant of ops resolved behind later events
    /// (ghost pass-through, DESIGN.md §4).
    frontier: f64,
    /// Phase timers, attached by
    /// [`Simulation::run_profiled`](crate::Simulation::run_profiled).
    /// (`PhaseProfile` is a concrete type, so this keeps `Engine<'a>`
    /// covariant — a `&mut dyn` observer field would not, which is why
    /// the observer travels through [`Engine::run`] as an argument
    /// instead.)
    profile: Option<&'a mut PhaseProfile>,
}

/// Checkpoint writes a computation of `work` units performs: one per
/// completed `interval`, none after the final segment (a task no longer
/// than `interval` never checkpoints).
fn checkpoints_for(work: f64, interval: f64) -> u32 {
    if !interval.is_finite() || work <= interval {
        0
    } else {
        (work / interval).ceil() as u32 - 1
    }
}

impl<'a> Engine<'a> {
    /// Assembles an engine over `arena`, moved in whole, resetting each
    /// buffer in place (capacities survive — the zero-allocation core).
    /// The op arena and `static_exec` are deliberately *not* reset here:
    /// the template fast path reuses their element buffers via
    /// `clone_from`, and the full builder resets them itself.
    ///
    /// [`Engine::finish_into`] moves the arena back. A panicking run
    /// leaves the caller's slot holding the empty arena `run_into` put
    /// there, which the next run simply re-grows — no unsafety, no stale
    /// state.
    fn from_parts(
        inst: &'a Instance,
        sched: &'a FtSchedule,
        scenario: &'a FaultScenario,
        cfg: &'a EngineConfig,
        policy: &'a dyn Policy,
        plan: &'a StaticPlan,
        mut arena: EngineScratch,
    ) -> Self {
        cfg.detection.validate(inst.num_procs());
        let v = inst.num_tasks();
        let m = inst.num_procs();
        debug_assert_eq!(plan.plans.len(), v, "plan built for a different instance");
        debug_assert_eq!(plan.topo_position.len(), v);

        arena.queue.clear();
        reset_nested(&mut arena.recovery_exec, v);
        reset_flat(&mut arena.known_dead, m, false);
        reset_flat(&mut arena.believed, m, None);
        arena.events.clear();
        for proc in 0..m {
            for (epoch, (crash, up)) in scenario.epochs_of(ProcId::from_index(proc)).enumerate() {
                for (rejoin, at) in [(false, crash), (true, up)] {
                    if at.is_finite() {
                        arena.events.push(AvailEvent {
                            rejoin,
                            epoch,
                            proc,
                            at,
                            seen: false,
                        });
                    }
                }
            }
        }
        arena
            .events
            .sort_unstable_by_key(|e| (e.rejoin, e.epoch, e.proc));
        reset_flat(&mut arena.knows, arena.events.len() * m, f64::INFINITY);
        for (e, row) in arena.events.iter().zip(arena.knows.chunks_exact_mut(m)) {
            // Salts in temporal order: 2k for the epoch-k crash (0 for the
            // first crash — the historical gossip stream), 2k + 1 for its
            // reboot.
            let salt = 2 * e.epoch as u64 + e.rejoin as u64;
            let p = ProcId::from_index(e.proc);
            cfg.detection.write_instants(p, e.at, scenario, salt, row);
        }
        reset_flat(&mut arena.unrecoverable, v, false);
        reset_flat(&mut arena.deferred, v, false);
        reset_nested(&mut arena.staged, v);
        arena.act_scratch.clear();
        arena.fail_scratch.clear();
        arena.action_scratch.clear();
        reset_flat(&mut arena.task_ck_frac, v, 0.0);
        arena.proc_deadline.clear();
        let contended = cfg.contention.is_contended();
        if contended {
            // Ideal runs never read the occupancy tables, so the reset
            // (and its per-link clears) stays off the contention-free path.
            arena.net.reset(plan.network(&inst.platform));
        }
        // The outcome's vectors are this run's first-finish/recovered
        // buffers; every counter restarts from zero.
        let RunOutcome {
            mut first_finish,
            mut recovered,
            ..
        } = std::mem::take(&mut arena.outcome);
        reset_flat(&mut first_finish, v, None);
        reset_flat(&mut recovered, v, false);
        arena.outcome = RunOutcome {
            first_finish,
            recovered,
            num_failures: scenario.num_failures(),
            ..RunOutcome::default()
        };

        Engine {
            inst,
            sched,
            scenario,
            cfg,
            policy,
            plan,
            arena,
            contended,
            frontier: 0.0,
            profile: None,
        }
    }

    /// Stretches a computation op's wall-clock duration by its task's
    /// checkpoint writes (and one read when resuming); no-op for tasks
    /// without a checkpoint plan.
    fn apply_checkpointing(&self, op: &mut Op) {
        let Some((interval, overhead)) = op.task.and_then(|t| self.plan.plans[t.index()]) else {
            return;
        };
        let writes = checkpoints_for(op.work, interval) as f64 * overhead;
        let read = if op.done_frac > 0.0 { overhead } else { 0.0 };
        op.ck_pad = writes + read;
        op.duration = op.work + op.ck_pad;
    }

    /// Crash deadline of work placed on `p` at time `t`: the crash
    /// instant of `p`'s first failure epoch not already over by `t` (see
    /// [`FaultScenario::deadline_after`]). Static work uses `t = 0` (the
    /// first crash, as in the permanent engine); recovery work placed at
    /// a detection or rejoin instant is bound to the epoch it was placed
    /// in — an op never survives a down window of its host.
    #[inline]
    fn deadline_after(&self, p: ProcId, t: f64) -> f64 {
        self.scenario.deadline_after(p, t)
    }

    /// Builds the static op graph for this run, through the template
    /// fast path when it applies.
    ///
    /// The template is the op graph of a build with no crash at `t ≤ 0`
    /// (`dead0` all false). Any such build prunes nothing in pass 1,
    /// skips no receiver queue in pass 2c, and wires every dependency
    /// while all ops are still `Pending` — so it differs from the
    /// template **only** in `Op::deadline`, which is a pure per-processor
    /// value (`deadline_after(p, 0)` of the executing/sending processor).
    /// Cloning the template in place and overwriting the deadlines is
    /// therefore byte-identical to the full build; one-shot plans (no
    /// template) and scenarios with a crash at `t ≤ 0` (the adversarial
    /// replay identities) take the full builder.
    fn build_ops(&mut self) {
        let m = self.inst.num_procs();
        let any_dead0 = (0..m).any(|p| self.deadline_after(ProcId::from_index(p), 0.0) <= 0.0);
        match &self.plan.template {
            Some(template) if !any_dead0 => self.build_from_template(template),
            _ => self.build_static_ops(),
        }
    }

    /// The template fast path: clone the pre-built op graph over the
    /// pool's leading slots, reusing their per-op buffers, and overwrite
    /// the crash deadlines. The slots past the template keep their ops
    /// for this run's repair work.
    fn build_from_template(&mut self, template: &OpTemplate) {
        let m = self.inst.num_procs();
        let scenario = self.scenario;
        let arena = &mut self.arena;
        arena.proc_deadline.clear();
        arena
            .proc_deadline
            .extend((0..m).map(|p| scenario.deadline_after(ProcId::from_index(p), 0.0)));
        arena.live = 0;
        for op in &template.ops {
            let id = put_op(&mut arena.ops, &mut arena.live, op);
            arena.ops[id as usize].deadline = arena.proc_deadline[op.proc as usize];
        }
        arena.static_exec.clone_from(&template.static_exec);
    }

    /// Mirrors `ft_sim::replay` passes 1–2: prunes replicas dead or
    /// statically starved under the processors crashed at t ≤ 0, builds
    /// exec/msg ops, inherits the static FIFO orders, and wires the
    /// first-copy input groups, each pass one sweep over its input.
    ///
    /// The ops are written over the pool's recycled ones in place
    /// ([`put_op`]) and only the live count moves, so a one-shot run
    /// keeps the dependency lists' capacity of every earlier run through
    /// the pooled arena; every per-replica table is a flat arena buffer.
    fn build_static_ops(&mut self) {
        let g = &self.inst.graph;
        let sched = self.sched;
        let v = g.num_tasks();
        let m = self.inst.num_procs();
        let scenario = self.scenario;
        let a = &mut self.arena;
        a.static_exec.truncate(v);
        for (t, se) in a.static_exec.iter_mut().enumerate() {
            se.clear();
            se.resize(sched.replicas[t].len(), None);
        }
        for t in a.static_exec.len()..v {
            a.static_exec.push(vec![None; sched.replicas[t].len()]);
        }
        a.proc_deadline.clear();
        a.proc_deadline
            .extend((0..m).map(|p| scenario.deadline_after(ProcId::from_index(p), 0.0)));
        let dead0 = |deadline: &[f64], p: ProcId| deadline[p.index()] <= 0.0;

        // Pass 1: static liveness (crash-at-0 processors only). A live
        // replica starves when one of its input groups has no live
        // sender.
        a.slots.index(sched, g, &self.plan.edge_pos);
        a.slot_alive.clear();
        a.slot_alive.extend(
            sched
                .replicas
                .iter()
                .flatten()
                .map(|r| !dead0(&a.proc_deadline, r.proc)),
        );
        for &t in &self.plan.topo_order {
            let ti = t.index();
            for c in 0..sched.replicas[ti].len() {
                let s = a.slots.slot(ti, c);
                let starved = a.slot_alive[s]
                    && !(0..g.in_edges(t).len()).all(|k| {
                        a.slots.group(s, k).iter().any(|&mi| {
                            let src = a.slots.slot_of(sched.messages[mi as usize].src);
                            src.is_some_and(|src| a.slot_alive[src])
                        })
                    });
                if starved {
                    a.slot_alive[s] = false;
                }
            }
        }

        // Pass 2a: exec ops for surviving replicas.
        self.arena.live = 0;
        for (t, rs) in sched.replicas.iter().enumerate() {
            for (c, r) in rs.iter().enumerate() {
                if !self.arena.slot_alive[self.arena.slots.slot(t, c)] {
                    continue;
                }
                let mut op = Op::new(
                    self.inst.exec_time(r.of.task, r.proc),
                    0.0,
                    self.arena.proc_deadline[r.proc.index()],
                    r.proc,
                );
                op.task = Some(r.of.task);
                self.apply_checkpointing(&mut op);
                let id = put_op(&mut self.arena.ops, &mut self.arena.live, &op);
                self.arena.static_exec[t][c] = Some(id);
            }
        }

        // Pass 2b: msg ops for messages whose source replica survives.
        self.arena.msg_op.clear();
        for msg in &sched.messages {
            let src = self.arena.slots.slot_of(msg.src);
            if !self.arena.slot_alive[src.expect("message from a scheduled replica")] {
                self.arena.msg_op.push(None);
                continue;
            }
            let mut mop = Op::new(
                msg.finish - msg.start,
                0.0,
                self.arena.proc_deadline[msg.from.index()],
                msg.from,
            );
            mop.dst = msg.to.index() as u32;
            let id = put_op(&mut self.arena.ops, &mut self.arena.live, &mop);
            self.arena.msg_op.push(Some(id));
            let src = self.arena.static_exec[msg.src.task.index()][msg.src.copy as usize]
                .expect("surviving source replica has an exec op");
            self.add_hard_dep(src, id);
        }

        // Pass 2c: inherited FIFO chains (from static start times). A
        // counting sort buckets the entries by queue (see
        // [`fifo_entries`]); each bucket is ordered by `(start, op)` and
        // chained in that order, queue by queue. Every `(queue, op)` pair
        // is unique, so this is the one `(queue, start, op)` order of a
        // global sort, and a one-port schedule's port and link queues
        // already arrive in start order.
        let a = &mut self.arena;
        let (exec, msg_op, deadline) = (&a.static_exec, &a.msg_op, &a.proc_deadline);
        let (start, fifo) = (&mut a.fifo_start, &mut a.fifo);
        let queues = 3 * m + m * m;
        start.clear();
        start.resize(queues + 2, 0);
        fifo_entries(sched, exec, msg_op, deadline, |q, _| start[q + 2] += 1);
        for q in 2..queues + 2 {
            start[q] += start[q - 1];
        }
        fifo.clear();
        fifo.resize(start[queues + 1] as usize, (0.0, 0));
        fifo_entries(sched, exec, msg_op, deadline, |q, entry| {
            fifo[start[q + 1] as usize] = entry;
            start[q + 1] += 1;
        });
        for q in 0..queues {
            let chain = &mut fifo[start[q] as usize..start[q + 1] as usize];
            chain.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            for w in chain.windows(2) {
                let ((_, prev), (_, next)) = (w[0], w[1]);
                a.ops[prev as usize].fifo_deps.push(next);
                a.ops[next as usize].fifo_remaining += 1;
            }
        }

        // Pass 2d: first-copy input groups, one per (replica, in-edge).
        let mut members = std::mem::take(&mut self.arena.members);
        for (t, rs) in sched.replicas.iter().enumerate() {
            let in_degree = g.in_edges(TaskId::from_index(t)).len();
            for c in 0..rs.len() {
                let Some(ex) = self.arena.static_exec[t][c] else {
                    continue;
                };
                let s = self.arena.slots.slot(t, c);
                for k in 0..in_degree {
                    members.clear();
                    members.extend(
                        self.arena
                            .slots
                            .group(s, k)
                            .iter()
                            .filter_map(|&mi| self.arena.msg_op[mi as usize]),
                    );
                    debug_assert!(!members.is_empty(), "live replica with starved edge");
                    self.add_group(ex, &members);
                }
            }
        }
        self.arena.members = members;
    }

    /// Queues the initial completions and the availability events: one
    /// knowledge event per crash (and per finite reboot) per **distinct**
    /// observer knowledge instant (the affected processor's own entry
    /// excluded), so the recovery policy fires when the event first
    /// enters the coordinator view and again whenever knowledge of it
    /// reaches more survivors (a single event under
    /// [`DetectionModel::Uniform`]). An event with no *other* observer —
    /// the single-processor platform — falls back to the processor's own
    /// instant, so every timeout-model crash (and rejoin) still enters
    /// the coordinator view exactly as in the pre-redesign engine; only a
    /// gossip rumor with nobody to start it is never detected. Each
    /// event's instants are sorted and deduplicated in one reused arena
    /// buffer.
    fn seed_events(&mut self) {
        let m = self.inst.num_procs();
        let arena = &mut self.arena;
        for (e, event) in arena.events.iter().enumerate() {
            let row = &arena.knows[e * m..][..m];
            let instants = &mut arena.instants;
            instants.clear();
            let others = row.iter().enumerate().filter(|&(q, _)| q != event.proc);
            instants.extend(others.map(|(_, &w)| w).filter(|w| w.is_finite()));
            if instants.is_empty() && row[event.proc].is_finite() {
                instants.push(row[event.proc]);
            }
            instants.sort_unstable_by(f64::total_cmp);
            instants.dedup();
            for &w in instants.iter() {
                arena.queue.push(Reverse(EventKey(w, 1, e as u32)));
            }
        }
        let n = self.arena.live as u32;
        self.arena.act_scratch.extend((0..n).map(Act::TrySchedule));
        self.settle();
    }

    /// The main event loop. With an observer attached, every processed
    /// event is streamed to it ([`Observer::on_event`]) before its
    /// handler runs; `None` is the unobserved fast path (one predictable
    /// branch per event).
    fn run(&mut self, mut observer: Option<&mut dyn Observer>) {
        loop {
            let popped = phase!(self, QueuePop, self.arena.queue.pop());
            let Some(Reverse(EventKey(time, kind, id))) = popped else {
                break;
            };
            self.frontier = self.frontier.max(time);
            if let Some(obs) = observer.as_deref_mut() {
                let kind = match kind {
                    // A popped entry of a cancelled op is a stale heap
                    // slot, not an event: nothing completes.
                    0 if self.arena.ops[id as usize].state == OpState::Cancelled => None,
                    0 => Some(TraceEventKind::Completion),
                    _ if self.arena.events[id as usize].rejoin => Some(TraceEventKind::Rejoin),
                    _ => Some(TraceEventKind::Detection),
                };
                if let Some(kind) = kind {
                    obs.on_event(&TraceEvent { time, kind });
                }
            }
            match kind {
                0 => self.complete(id, time),
                _ => self.on_knowledge(id, time),
            }
        }
    }

    fn complete(&mut self, id: u32, time: f64) {
        let frontier = self.frontier;
        let op = &mut self.arena.ops[id as usize];
        if op.state == OpState::Cancelled {
            return;
        }
        debug_assert_eq!(op.state, OpState::Scheduled);
        op.state = OpState::Done;
        // Ghost pass-through can schedule an op with `finish` behind the
        // loop frontier; the frontier is then when the completion became
        // knowable (DESIGN.md §4).
        op.discovered = frontier.max(op.finish);
        let (ck_pad, saved) = (op.ck_pad, op.full * op.done_frac);
        if let Some(t) = op.task {
            let ti = t.index();
            if self.arena.outcome.first_finish[ti].is_none() {
                self.arena.outcome.first_finish[ti] = Some(time);
                self.arena.outcome.recovered[ti] = op.recovery;
            }
        }
        self.arena.outcome.checkpoint_overhead += ck_pad;
        self.arena.outcome.work_saved += saved;
        phase!(self, Completion, {
            self.arena.act_scratch.push(Act::RealDone(id, time));
            self.settle();
        });
    }

    /// Drains the actions queued in `act_scratch` to a fixpoint — the one
    /// checkout of that buffer. Repair paths queue their new ops there
    /// while wiring them and settle once at the end; a reused buffer
    /// spares the event loop one `Vec` per completion.
    fn settle(&mut self) {
        let mut acts = std::mem::take(&mut self.arena.act_scratch);
        self.drain(&mut acts);
        self.arena.act_scratch = acts;
    }

    /// Fails op `i` on the spot — wiring found a dependency that can
    /// never deliver — and drains the consequences through `fail_scratch`
    /// (the one checkout of it), leaving the actions queued in
    /// `act_scratch` untouched.
    fn fail_now(&mut self, i: u32) {
        let mut acts = std::mem::take(&mut self.arena.fail_scratch);
        acts.push(Act::Fail(i));
        self.drain(&mut acts);
        self.arena.fail_scratch = acts;
    }

    /// Drains dependency-propagation actions to a fixpoint.
    fn drain(&mut self, acts: &mut Vec<Act>) {
        while let Some(act) = acts.pop() {
            match act {
                Act::TrySchedule(i) => self.try_schedule(i, acts),
                Act::Fail(i) => self.fail(i, acts),
                Act::RealDone(i, t) => {
                    let hard = std::mem::take(&mut self.arena.ops[i as usize].hard_deps);
                    for &d in &hard {
                        let dep = &mut self.arena.ops[d as usize];
                        dep.hard_remaining -= 1;
                        dep.data_ready = dep.data_ready.max(t);
                        acts.push(Act::TrySchedule(d));
                    }
                    self.arena.ops[i as usize].hard_deps = hard;
                    let groups = std::mem::take(&mut self.arena.ops[i as usize].group_deps);
                    for &(d, gi) in &groups {
                        let dep = &mut self.arena.ops[d as usize];
                        if dep.state == OpState::Pending && !dep.groups[gi as usize].1 {
                            dep.groups[gi as usize].1 = true;
                            dep.groups_remaining -= 1;
                            dep.data_ready = dep.data_ready.max(t);
                            acts.push(Act::TrySchedule(d));
                        }
                    }
                    self.arena.ops[i as usize].group_deps = groups;
                    self.fifo_out(i, t, acts);
                }
                Act::GhostDone(i) => {
                    debug_assert_eq!(self.arena.ops[i as usize].state, OpState::Failed);
                    self.arena.ops[i as usize].state = OpState::GhostDone;
                    let t = self.arena.ops[i as usize].fifo_ready;
                    self.fifo_out(i, t, acts);
                }
            }
        }
    }

    /// Delivers `i`'s queue slot to its FIFO successors at time `t`.
    fn fifo_out(&mut self, i: u32, t: f64, acts: &mut Vec<Act>) {
        let fifo = std::mem::take(&mut self.arena.ops[i as usize].fifo_deps);
        for &d in &fifo {
            let dep = &mut self.arena.ops[d as usize];
            dep.fifo_remaining -= 1;
            dep.fifo_ready = dep.fifo_ready.max(t);
            if dep.state == OpState::Failed && dep.fifo_remaining == 0 {
                acts.push(Act::GhostDone(d));
            } else {
                acts.push(Act::TrySchedule(d));
            }
        }
        self.arena.ops[i as usize].fifo_deps = fifo;
    }

    fn try_schedule(&mut self, i: u32, acts: &mut Vec<Act>) {
        let op = &mut self.arena.ops[i as usize];
        if op.state != OpState::Pending
            || op.hard_remaining != 0
            || op.fifo_remaining != 0
            || op.groups_remaining != 0
        {
            return;
        }
        let start = op.data_ready.max(op.fifo_ready).max(op.release);
        let nominal = match op.fixed_finish {
            Some(f) => f.max(start),
            None => start + op.duration,
        };
        let finish = if self.contended {
            self.charge_network(i, start, nominal)
        } else {
            nominal
        };
        let op = &mut self.arena.ops[i as usize];
        if finish <= op.deadline {
            op.state = OpState::Scheduled;
            op.start = start;
            op.finish = finish;
            op.est_finish = finish;
            self.arena.queue.push(Reverse(EventKey(finish, 0, i)));
            if self.contended {
                self.commit_network(nominal, finish);
            }
        } else {
            if self.contended {
                // The op never transmits: drop its staged reservations.
                self.arena.net.discard();
            }
            // The computation still ran from `start` until the crash;
            // that progress is destroyed (checkpointed fractions are
            // credited back by `record_crash_progress`). Transfers carry
            // no progress of their own.
            let lost = if op.task.is_some() && op.fixed_finish.is_none() {
                (op.deadline - start).clamp(0.0, op.duration)
            } else {
                0.0
            };
            self.arena.outcome.work_lost += lost;
            self.record_crash_progress(i, start);
            acts.push(Act::Fail(i));
        }
    }

    /// Stages op `i`'s network charges under the configured contended
    /// sharing model ([`NetworkState::commit`]/[`NetworkState::discard`]
    /// follows the scheduling decision): a remote transfer occupies every
    /// link of its platform route hop by hop, a checkpointing computation
    /// occupies its host's storage port for its checkpoint I/O padding.
    /// Returns the charged finish time — with an idle network this is
    /// exactly `nominal`, bit for bit.
    fn charge_network(&mut self, i: u32, start: f64, nominal: f64) -> f64 {
        let op = &self.arena.ops[i as usize];
        if op.task.is_none() {
            if op.proc != op.dst && op.duration > 0.0 {
                let charged = self.arena.net.plan_transfer(
                    self.plan.network(&self.inst.platform),
                    self.cfg.contention,
                    op.proc as usize,
                    op.dst as usize,
                    start,
                    op.duration,
                );
                // A fixed-finish (planned) transfer embeds queueing of its
                // own; contention can only push it later, never earlier.
                return charged.max(nominal);
            }
        } else if op.ck_pad > 0.0 {
            let wait = self.arena.net.plan_port(op.proc as usize, start, op.ck_pad);
            return nominal + wait;
        }
        nominal
    }

    /// Commits the staged charges of a just-scheduled op into the live
    /// occupancy tables and folds the contention accounting.
    fn commit_network(&mut self, nominal: f64, finish: f64) {
        if self.arena.net.has_pending() {
            self.arena.outcome.net_transfers += 1;
            if finish > nominal {
                self.arena.outcome.net_contended += 1;
                self.arena.outcome.net_delay += finish - nominal;
            }
            self.arena.net.commit();
        }
    }

    /// A computation that cannot finish by its host's crash deadline still
    /// ran until the crash: under `Checkpoint`, the checkpoints it
    /// completed by that instant are credited to the task's resumable
    /// fraction (stable storage — they survive the host).
    fn record_crash_progress(&mut self, i: u32, start: f64) {
        let op = &self.arena.ops[i as usize];
        let Some(t) = op.task else {
            return; // transfers don't checkpoint
        };
        let Some((interval, overhead)) = self.plan.plans[t.index()] else {
            return;
        };
        if op.fixed_finish.is_some() {
            return;
        }
        let read = if op.done_frac > 0.0 { overhead } else { 0.0 };
        // Checkpoint k completes at start + read + k·(interval + overhead);
        // one completing exactly at the crash instant still counts
        // (crashes take effect strictly after their time).
        let window = op.deadline - start - read;
        let k_total = checkpoints_for(op.work, interval);
        let k_done = if window > 0.0 && (interval + overhead).is_finite() {
            ((window / (interval + overhead)).floor() as u32).min(k_total)
        } else {
            0
        };
        if k_done == 0 {
            return;
        }
        let frac = op.done_frac + k_done as f64 * interval / op.full;
        let slot = &mut self.arena.task_ck_frac[t.index()];
        *slot = slot.max(frac);
    }

    fn fail(&mut self, i: u32, acts: &mut Vec<Act>) {
        if self.arena.ops[i as usize].state != OpState::Pending {
            return;
        }
        self.arena.ops[i as usize].state = OpState::Failed;
        let hard = std::mem::take(&mut self.arena.ops[i as usize].hard_deps);
        for &d in &hard {
            acts.push(Act::Fail(d));
        }
        self.arena.ops[i as usize].hard_deps = hard;
        let groups = std::mem::take(&mut self.arena.ops[i as usize].group_deps);
        for &(d, gi) in &groups {
            let dep = &mut self.arena.ops[d as usize];
            let (live, done) = &mut dep.groups[gi as usize];
            if dep.state == OpState::Pending && !*done {
                *live -= 1;
                if *live == 0 {
                    acts.push(Act::Fail(d));
                }
            }
        }
        self.arena.ops[i as usize].group_deps = groups;
        if self.arena.ops[i as usize].fifo_remaining == 0 {
            acts.push(Act::GhostDone(i));
        }
    }

    // --- dependency wiring helpers --------------------------------------

    fn add_hard_dep(&mut self, from: u32, to: u32) {
        match self.arena.ops[from as usize].state {
            OpState::Done => {
                let t = self.arena.ops[from as usize].finish;
                let dep = &mut self.arena.ops[to as usize];
                dep.data_ready = dep.data_ready.max(t);
            }
            // The producer can never deliver: the dependent fails too.
            OpState::Failed | OpState::GhostDone | OpState::Cancelled => self.fail_now(to),
            _ => {
                self.arena.ops[from as usize].hard_deps.push(to);
                self.arena.ops[to as usize].hard_remaining += 1;
            }
        }
    }

    /// Adds one first-copy group on `ex` over live `members`.
    fn add_group(&mut self, ex: u32, members: &[u32]) {
        let gi = self.arena.ops[ex as usize].groups.len() as u32;
        let mut live = 0u32;
        let mut done_time: Option<f64> = None;
        for &mo in members {
            match self.arena.ops[mo as usize].state {
                OpState::Done => {
                    let t = self.arena.ops[mo as usize].finish;
                    done_time = Some(done_time.map_or(t, |d: f64| d.min(t)));
                }
                OpState::Failed | OpState::GhostDone | OpState::Cancelled => {}
                _ => {
                    self.arena.ops[mo as usize].group_deps.push((ex, gi));
                    live += 1;
                }
            }
        }
        let op = &mut self.arena.ops[ex as usize];
        op.groups.push((live, done_time.is_some()));
        if let Some(t) = done_time {
            // A member already delivered: group satisfied at its time.
            op.data_ready = op.data_ready.max(t);
        } else if live == 0 {
            // No member can ever deliver.
            self.fail_now(ex);
        } else {
            op.groups_remaining += 1;
        }
    }

    // --- failure detection & recovery -----------------------------------

    /// Processes one knowledge event of availability event `e` at
    /// `time`. The first per event (its earliest observer instant) brings
    /// the crash or reboot into the coordinator view: a rebooted
    /// processor is believed up again and may host repair work —
    /// survivors learn a processor is back *before* work is placed on it.
    /// Every event, first or later, then hands the policy another chance:
    /// a crash's later events widen the repair-eligible set, and each
    /// event of a reboot lets deferred and unrepairable tasks be retried
    /// on the grown platform.
    fn on_knowledge(&mut self, e: u32, time: f64) {
        let (event, idle) = phase!(self, DetectionFanout, {
            let event = self.arena.events[e as usize];
            let p = event.proc;
            if !event.seen {
                self.arena.events[e as usize].seen = true;
                let outcome = &mut self.arena.outcome;
                if event.rejoin {
                    outcome.rejoins += 1;
                } else {
                    outcome.detections += 1;
                    outcome.detection_lag += time - event.at;
                }
                // The belief follows the latest *physical* event, and a
                // crash wins a physical-time tie: a crash detected only
                // after its own repair was reported (slow detector, fast
                // reboot) must not re-kill the view, and a crash at the
                // exact reboot instant (`crash_{k+1} = up_k`, allowed by
                // the scenario) supersedes the reboot whichever knowledge
                // event is processed first.
                let believed = self.arena.believed[p]
                    .map_or(f64::NEG_INFINITY, |b| self.arena.events[b as usize].at);
                if event.at > believed || (!event.rejoin && event.at == believed) {
                    self.arena.believed[p] = Some(e);
                    self.arena.known_dead[p] = !event.rejoin;
                }
            }
            // A reboot while every task is believed safe leaves nothing
            // to repair: no policy action, no replan churn.
            let idle =
                event.rejoin && (0..self.inst.num_tasks()).all(|t| self.task_believed_safe(t));
            (event, idle)
        });
        if idle {
            return;
        }
        let hook_event = PolicyEvent {
            proc: ProcId::from_index(event.proc),
            epoch: event.epoch,
            time,
            first: !event.seen,
        };
        self.policy_hook(time, |policy, view, actions| match event.rejoin {
            true => policy.on_rejoin(view, &hook_event, actions),
            false => policy.on_crash(view, &hook_event, actions),
        });
    }

    /// Runs one policy hook over a read-only [`PolicyView`] and applies
    /// the returned actions, through the reusable action buffer — no
    /// per-event allocation once the buffer warmed up.
    fn policy_hook(
        &mut self,
        now: f64,
        call: impl FnOnce(&dyn Policy, &PolicyView<'_>, &mut Vec<RecoveryAction>),
    ) {
        let mut actions = std::mem::take(&mut self.arena.action_scratch);
        actions.clear();
        let policy = self.policy;
        phase!(self, PolicyDispatch, {
            call(policy, &PolicyView { engine: self, now }, &mut actions);
        });
        self.apply_actions(&actions, now);
        self.arena.action_scratch = actions;
    }

    /// Validates and applies one batch of policy actions at `now`, in
    /// the documented order: defers first, then the spawn/resume
    /// proposals in topological order (so replacements can feed later
    /// replacements — the first proposal per task wins), then replans,
    /// then pre-stages (so pre-staging skips whatever the spawns just
    /// fixed). Invalid proposals — out-of-range ids, pre-staging onto a
    /// processor that is down, believed down, or has not detected every
    /// known crash — are rejected and counted, never executed.
    fn apply_actions(&mut self, actions: &[RecoveryAction], now: f64) {
        if actions.is_empty() {
            return;
        }
        let v = self.inst.num_tasks();
        let m = self.inst.num_procs();
        let mut spawns = std::mem::take(&mut self.arena.spawns);
        let mut replans = 0usize;
        let mut prestages = std::mem::take(&mut self.arena.prestages);
        spawns.clear();
        prestages.clear();
        phase!(self, ActionValidation, {
            for &action in actions {
                match action {
                    RecoveryAction::Defer(t) if t.index() < v => {
                        if !self.task_believed_safe(t.index()) {
                            self.arena.deferred[t.index()] = true;
                        }
                    }
                    RecoveryAction::SpawnReplica(t) if t.index() < v => {
                        spawns.push((t.index(), false, spawns.len() as u32));
                    }
                    RecoveryAction::ResumeFromCheckpoint(t) if t.index() < v => {
                        spawns.push((t.index(), true, spawns.len() as u32));
                    }
                    RecoveryAction::Replan => replans += 1,
                    RecoveryAction::PreStage { task, on }
                        if task.index() < v
                            && on.index() < m
                            && self.repair_eligible(on.index(), now) =>
                    {
                        prestages.push((task.index(), on.index()));
                    }
                    // Out-of-range ids, and pre-stage targets that violate
                    // the survivor-knowledge rule.
                    _ => self.arena.outcome.rejected_actions += 1,
                }
            }
        });
        phase!(self, SpawnReplan, {
            // Topological order, first proposal per task winning: the key
            // (topological position, push index) is unique, so the
            // unstable sort keeps push order within a task's duplicates.
            let topo = &self.plan.topo_position;
            spawns.sort_unstable_by_key(|&(t, _, i)| (topo[t], i));
            spawns.dedup_by_key(|&mut (t, _, _)| t);
            for &(t, allow_resume, _) in &spawns {
                // A spawn re-marks the task deferred if no survivor is
                // repair-eligible yet.
                self.arena.deferred[t] = false;
                // Covered by an earlier replacement this round, or by a
                // still-live pending replacement from an earlier event?
                let covered = self.task_believed_safe(t)
                    || self.arena.recovery_exec[t].iter().any(|&id| {
                        let op = &self.arena.ops[id as usize];
                        op.state == OpState::Pending && !self.arena.known_dead[op.proc as usize]
                    });
                if !covered {
                    self.spawn_replacement(TaskId::from_index(t), now, allow_resume);
                }
            }
            for _ in 0..replans {
                self.reschedule(now);
            }
            for &(t, q) in &prestages {
                self.prestage_inputs(t, q, now);
            }
        });
        self.arena.spawns = spawns;
        self.arena.prestages = prestages;
    }

    /// The survivor-knowledge rule: `q` may host repair work at time
    /// `now` iff it is alive (as far as the coordinator knows) and has
    /// detected **every** crash the coordinator currently knows about
    /// (each believed-dead processor's current epoch). Under
    /// [`DetectionModel::Uniform`] every survivor qualifies at the single
    /// per-crash detection instant, reproducing the historical engine. A
    /// rejoined processor re-enters this set as soon as its rejoin is in
    /// the coordinator view (`known_dead` false again).
    fn repair_eligible(&self, q: usize, now: f64) -> bool {
        let arena = &self.arena;
        let m = self.inst.num_procs();
        !arena.known_dead[q]
            && (0..m)
                .filter(|&p| arena.known_dead[p])
                .all(|p| arena.believed[p].is_some_and(|e| arena.knows[e as usize * m + q] <= now))
    }

    /// Fills `out` with the repair-eligible processors at `now`, in index
    /// order: the only hosts repair work may land on.
    fn eligible_hosts(&self, now: f64, out: &mut Vec<ProcId>) {
        out.clear();
        out.extend(
            (0..self.inst.num_procs())
                .filter(|&p| self.repair_eligible(p, now))
                .map(ProcId::from_index),
        );
    }

    /// True if some replica of `t` is completed, or is scheduled on a
    /// processor not known to be dead (i.e. the runtime believes the task
    /// is safe without intervention).
    fn task_believed_safe(&self, t: usize) -> bool {
        if self.arena.outcome.first_finish[t].is_some() {
            return true;
        }
        let safe = |&id: &u32| {
            let op = &self.arena.ops[id as usize];
            op.state == OpState::Scheduled && !self.arena.known_dead[op.proc as usize]
        };
        self.arena.static_exec[t].iter().flatten().any(&safe)
            || self.arena.recovery_exec[t].iter().any(safe)
    }

    /// Surviving data copies of task `t`, unordered: its replica outputs
    /// and its pre-staged copies alike (a staged copy feeds later repairs
    /// exactly like a replica output), each living on its op's
    /// destination — a replica's host, a staged transfer's receiver.
    /// Completed data exists (`op = None`); a scheduled op's data will
    /// exist at its finish, a pending repair op's at its estimate. Local
    /// data persists across reboots, so only the belief filter applies.
    fn copies_of(&self, t: usize) -> impl Iterator<Item = DataCopy> + '_ {
        let arena = &self.arena;
        let replicas = arena.static_exec[t].iter().flatten();
        replicas
            .chain(&arena.recovery_exec[t])
            .chain(&arena.staged[t])
            .filter_map(move |&id| {
                let op = &arena.ops[id as usize];
                if arena.known_dead[op.dst as usize] {
                    return None;
                }
                let at = ProcId::from_index(op.dst as usize);
                match op.state {
                    OpState::Done => Some((None, at, op.finish)),
                    OpState::Scheduled => Some((Some(id), at, op.finish)),
                    OpState::Pending if op.recovery => Some((Some(id), at, op.est_finish)),
                    _ => None,
                }
            })
    }

    /// Appends the surviving data copies of task `t` ([`copies_of`]) to
    /// `out` as one segment, by availability then processor.
    ///
    /// [`copies_of`]: Engine::copies_of
    fn surviving_copies(&self, t: usize, out: &mut Vec<DataCopy>) {
        let from = out.len();
        out.extend(self.copies_of(t));
        out[from..].sort_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.1.cmp(&b.1)));
    }

    /// The loss selection behind both [`PolicyView`] repair lists, in
    /// task-index order: every task not believed safe that is deferred
    /// (a spawn skipped at an earlier event for lack of repair-eligible
    /// survivors — a knowledge-growth event may not name it in its own
    /// lost set), lost a replica at build time (its static host crashed
    /// pre-start, or it starved statically), or has a replica matching
    /// `lost`.
    fn lost_tasks_where<'s>(
        &'s self,
        lost: impl Fn(&Op) -> bool + 's,
    ) -> impl Iterator<Item = TaskId> + 's {
        let arena = &self.arena;
        // The scan runs at every knowledge event: it is lazy, so it
        // allocates nothing, and its predicate is one boolean expression
        // (a filter/map/collect chain of the whole selection once made
        // warm repair-heavy runs measurably slower).
        (0..self.inst.num_tasks())
            .filter(move |&t| {
                let replica_lost = |&id: &u32| lost(&arena.ops[id as usize]);
                (arena.deferred[t]
                    || arena.static_exec[t].iter().any(|o| o.is_none())
                    || arena.static_exec[t].iter().flatten().any(replica_lost)
                    || arena.recovery_exec[t].iter().any(replica_lost))
                    && !self.task_believed_safe(t)
            })
            .map(TaskId::from_index)
    }

    /// The copy of edge `e`'s data that reaches `q` first (ties to the
    /// smaller source processor), with its arrival instant there: the
    /// source rule of spawns and pre-stages.
    fn nearest_copy(&self, copies: &[DataCopy], e: EdgeId, q: ProcId) -> (DataCopy, f64) {
        let arrival = |c: &DataCopy| c.2 + self.inst.comm_time(e, c.1, q);
        let pick = *copies
            .iter()
            .min_by(|a, b| {
                arrival(a)
                    .total_cmp(&arrival(b))
                    .then_with(|| a.1.cmp(&b.1))
            })
            .expect("non-empty copy list");
        (pick, arrival(&pick))
    }

    /// Makes op `to` wait for data copy `src`: a hard dependency on the op
    /// still producing it, or the instant it became available.
    fn feed(&mut self, src: DataCopy, to: u32) {
        match src.0 {
            Some(s) => self.add_hard_dep(s, to),
            None => {
                let dep = &mut self.arena.ops[to as usize];
                dep.data_ready = dep.data_ready.max(src.2);
            }
        }
    }

    /// Appends one repair transfer of `w` units from data copy `src` to
    /// `to` — the one constructor of repair transfers (spawn inputs,
    /// pre-stages, replan messages). It is released at `now`, bound to
    /// `deadline`, completes at `fixed_finish` when a replan planned it,
    /// waits for its source, counts as a recovery message unless local,
    /// and is queued for the next [`Engine::settle`].
    fn push_transfer(
        &mut self,
        src: DataCopy,
        to: ProcId,
        w: f64,
        fixed_finish: Option<f64>,
        deadline: f64,
        now: f64,
    ) -> u32 {
        let mut op = Op::new(w, now, deadline, src.1);
        op.dst = to.index() as u32;
        op.fixed_finish = fixed_finish;
        op.recovery = true;
        op.est_finish = src.2.max(now) + w;
        let mid = put_op(&mut self.arena.ops, &mut self.arena.live, &op);
        if src.1 != to {
            self.arena.outcome.recovery_messages += 1;
        }
        self.feed(src, mid);
        self.arena.act_scratch.push(Act::TrySchedule(mid));
        mid
    }

    /// Appends `op` as a repair computation of its task — the one way into
    /// `recovery_exec` — flagged as recovery work and counted as a
    /// recovery replica; returns its id.
    fn push_recovery_exec(&mut self, mut op: Op) -> u32 {
        let t = op.task.expect("a computation").index();
        op.recovery = true;
        let id = put_op(&mut self.arena.ops, &mut self.arena.live, &op);
        self.arena.recovery_exec[t].push(id);
        self.arena.outcome.recovery_replicas += 1;
        id
    }

    /// Applies a validated [`RecoveryAction::PreStage`]: one
    /// contention-free transfer per input edge of `t` from the nearest
    /// surviving copy of the predecessor's data to `on`, skipping inputs
    /// already present there (a surviving replica output or an earlier
    /// staged copy). Each transfer is bound to **both** endpoints'
    /// current epochs — its deadline is the earlier of the sender's and
    /// the receiver's next crash — so data never counts as staged on a
    /// processor that was down when it arrived. Predecessors with no
    /// surviving copy are skipped (nothing to stage).
    fn prestage_inputs(&mut self, t: usize, on: usize, now: f64) {
        if self.task_believed_safe(t) {
            return; // a spawn this round (or earlier) already covered it
        }
        let on = ProcId::from_index(on);
        // Reborrow through the instance's own lifetime: the in-edge slice
        // lives in the graph, not behind `&self`, so no clone is needed to
        // keep `&mut self` callable below.
        let inst = self.inst;
        let mut staged_any = false;
        let mut copies = std::mem::take(&mut self.arena.copies);
        for &e in inst.graph.in_edges(TaskId::from_index(t)) {
            let pred = inst.graph.edge(e).src.index();
            copies.clear();
            self.surviving_copies(pred, &mut copies);
            if copies.is_empty() || copies.iter().any(|&(_, p, _)| p == on) {
                continue; // nothing to stage, or already warm on `on`
            }
            let (src, _) = self.nearest_copy(&copies, e, on);
            let deadline = self
                .deadline_after(src.1, now)
                .min(self.deadline_after(on, now));
            let w = inst.comm_time(e, src.1, on);
            let mid = self.push_transfer(src, on, w, None, deadline, now);
            self.arena.staged[pred].push(mid);
            staged_any = true;
        }
        self.arena.copies = copies;
        if staged_any {
            self.arena.outcome.prestaged += 1;
        }
        self.settle();
    }

    /// Greedy single replacement replica for `t` at detection time `now`:
    /// on the repair-eligible host with the earliest estimated finish
    /// (ties to the smallest processor id), fed by the nearest surviving
    /// copy of each input. With `allow_resume` (a
    /// [`RecoveryAction::ResumeFromCheckpoint`]) and checkpoint credit
    /// `frac > 0`, the spawn is a resume: the checkpoint lives on stable
    /// storage, so the replica takes **no** input edges, pays one
    /// `overhead` to read the state, and recomputes only the remaining
    /// `1 − frac` of the task.
    fn spawn_replacement(&mut self, t: TaskId, now: f64, allow_resume: bool) {
        // Credit is only ever recorded for tasks with a checkpoint plan.
        let frac = if allow_resume {
            self.arena.task_ck_frac[t.index()]
        } else {
            0.0
        };
        // Reborrow through the instance's own lifetime (see
        // `prestage_inputs`): no per-spawn clone of the in-edge slice.
        let inst = self.inst;
        let in_edges: &[EdgeId] = if frac > 0.0 {
            &[]
        } else {
            inst.graph.in_edges(t)
        };
        // Surviving sources per input edge: the k-th in-edge's copies are
        // the k-th segment of `copies`, ending at `ends[k]`.
        let mut copies = std::mem::take(&mut self.arena.copies);
        let mut ends = std::mem::take(&mut self.arena.copy_ends);
        let mut hosts = std::mem::take(&mut self.arena.hosts);
        copies.clear();
        ends.clear();
        'spawn: {
            for &e in in_edges {
                let pred = inst.graph.edge(e).src;
                let from = copies.len();
                self.surviving_copies(pred.index(), &mut copies);
                if copies.len() == from {
                    // No resolvable source now. If the predecessor still has
                    // a pending static replica on a survivor, its data may
                    // yet be produced — the eager one-shot heuristic simply
                    // cannot plan this far behind the frontier and leaves
                    // the task to its static replicas (`Reschedule` handles
                    // this case). Only count the task unrecoverable when
                    // the data is truly gone.
                    let pred_may_run = self.arena.static_exec[pred.index()].iter().any(|&id| {
                        id.is_some_and(|id| {
                            let op = &self.arena.ops[id as usize];
                            op.state == OpState::Pending && !self.arena.known_dead[op.proc as usize]
                        })
                    });
                    if !pred_may_run {
                        self.arena.unrecoverable[t.index()] = true;
                    }
                    break 'spawn;
                }
                ends.push(copies.len());
            }
            if !self.replacement_candidates(t, now, &mut hosts) {
                break 'spawn;
            }
            let sources = |k: usize| &copies[k.checked_sub(1).map_or(0, |j| ends[j])..ends[k]];
            // Pick the host minimizing the estimated finish.
            let mut best: Option<(f64, ProcId)> = None;
            for &q in &hosts {
                let mut start = now;
                for (k, &e) in in_edges.iter().enumerate() {
                    start = start.max(self.nearest_copy(sources(k), e, q).1);
                }
                let w = inst.exec_time(t, q) * (1.0 - frac);
                // The wall clock adds the task's checkpoint writes, and for
                // a resume one checkpoint read before recomputing.
                let est = match self.plan.plans[t.index()] {
                    Some((interval, overhead)) if frac > 0.0 => {
                        start + overhead + w + checkpoints_for(w, interval) as f64 * overhead
                    }
                    Some((interval, overhead)) => {
                        start + (w + checkpoints_for(w, interval) as f64 * overhead)
                    }
                    None => start + w,
                };
                if best.is_none_or(|(b, bp)| {
                    est.total_cmp(&b).then_with(|| q.cmp(&bp)) == std::cmp::Ordering::Less
                }) {
                    best = Some((est, q));
                }
            }
            let (est, q) = best.expect("candidate list non-empty");

            // Materialize: the replacement computation, then one
            // contention-free transfer per remote input, from the same
            // nearest copies the estimate used.
            let full = inst.exec_time(t, q);
            let mut op = Op::new(full * (1.0 - frac), now, self.deadline_after(q, now), q);
            op.task = Some(t);
            op.full = full;
            op.done_frac = frac;
            op.est_finish = est;
            self.apply_checkpointing(&mut op);
            let ex = self.push_recovery_exec(op);
            for (k, &e) in in_edges.iter().enumerate() {
                let (src, _) = self.nearest_copy(sources(k), e, q);
                if src.1 == q {
                    self.feed(src, ex);
                    continue;
                }
                let w = inst.comm_time(e, src.1, q);
                let mid = self.push_transfer(src, q, w, None, self.deadline_after(src.1, now), now);
                self.add_hard_dep(mid, ex);
            }
            self.arena.act_scratch.push(Act::TrySchedule(ex));
            self.settle();
        }
        self.arena.copies = copies;
        self.arena.copy_ends = ends;
        self.arena.hosts = hosts;
    }

    /// Fills `hosts` with the candidate hosts for a replacement or
    /// resumed replica of `t`: repair-eligible survivors (the
    /// survivor-knowledge rule — see [`Engine::repair_eligible`]),
    /// excluding hosts of live copies of `t` (space exclusion) when
    /// possible. `false` with the task flagged unrecoverable when no
    /// survivor is left at all; `false` with the task marked *deferred*
    /// when survivors exist but none has detected every known crash yet —
    /// the next detection event retries deferred tasks (the deferred
    /// rescan in [`Engine::apply_actions`], fed by the `deferred` term of
    /// [`Engine::lost_tasks_where`]).
    fn replacement_candidates(&mut self, t: TaskId, now: f64, hosts: &mut Vec<ProcId>) -> bool {
        self.eligible_hosts(now, hosts);
        if hosts.is_empty() {
            if self.arena.known_dead.iter().all(|&dead| dead) {
                self.arena.unrecoverable[t.index()] = true;
            } else {
                self.arena.deferred[t.index()] = true;
            }
            return false;
        }
        let spread = |p: &ProcId| self.copies_of(t.index()).all(|c| c.1 != *p);
        if hosts.iter().any(spread) {
            hosts.retain(spread);
        }
        true
    }

    /// `Reschedule`: cancel any previous repair plan and re-run CAFT on
    /// the not-yet-started sub-DAG over the repair-eligible survivors
    /// (the survivor-knowledge rule: the plan can only use processors
    /// that know the platform shrank — under non-uniform detection the
    /// plan improves as knowledge spreads, one event at a time).
    fn reschedule(&mut self, now: f64) {
        let mut alive = std::mem::take(&mut self.arena.hosts);
        self.eligible_hosts(now, &mut alive);
        if alive.is_empty() {
            // Knowledge lag (live survivors, none informed yet) is not a
            // replan — a later event will produce one; a platform with no
            // survivors at all still counts the vacuous attempt, matching
            // the historical accounting.
            if self.arena.known_dead.iter().all(|&dead| dead) {
                self.arena.outcome.reschedules += 1;
            }
            self.arena.hosts = alive;
            return;
        }
        self.arena.outcome.reschedules += 1;
        // Cancel superseded repair work.
        let live = self.arena.live;
        for op in &mut self.arena.ops[..live] {
            if op.recovery && matches!(op.state, OpState::Pending | OpState::Scheduled) {
                op.state = OpState::Cancelled;
            }
        }
        let mut recovery_exec = std::mem::take(&mut self.arena.recovery_exec);
        for lists in &mut recovery_exec {
            lists.retain(|&id| self.arena.ops[id as usize].state == OpState::Done);
        }
        self.arena.recovery_exec = recovery_exec;

        let v = self.inst.num_tasks();
        let eps = self.sched.epsilon().min(alive.len() - 1);
        // The replan's tables, out of the arena while the plan is wired.
        let mut rp = std::mem::take(&mut self.arena.replan);
        let mut slots = std::mem::take(&mut self.arena.slots);
        let mut members = std::mem::take(&mut self.arena.members);
        let mut copies = std::mem::take(&mut self.arena.copies);

        // Remnant = not completed and not safely in flight.
        rp.remnant.clear();
        rp.remnant
            .extend((0..v).map(|t| !self.task_believed_safe(t)));
        // Frontier sources in `surviving_copies` order, capped at ε+1, so
        // the plan's copy indices align with `src_ops`.
        reset_nested(&mut rp.sources, v);
        reset_nested(&mut rp.src_ops, v);
        for t in 0..v {
            if rp.remnant[t] {
                continue;
            }
            copies.clear();
            self.surviving_copies(t, &mut copies);
            for &(op, proc, est) in copies.iter().take(eps + 1) {
                rp.sources[t].push((proc, est));
                rp.src_ops[t].push(op);
            }
        }

        let spec = SubDagSpec {
            remnant: &rp.remnant,
            sources: &rp.sources,
            alive: &alive,
            release: now,
        };
        let opts = CaftOptions {
            eps,
            model: self.sched.model,
            seed: self
                .cfg
                .seed
                .wrapping_add(self.arena.outcome.reschedules as u64),
            ..CaftOptions::default()
        };
        let out = caft_on_subdag(self.inst, &spec, &opts);
        for t in &out.unscheduled {
            self.arena.unrecoverable[t.index()] = true;
        }

        // Materialize the plan as fixed-time ops.
        let plan = &out.schedule;
        reset_nested(&mut rp.new_exec, v);
        for t in 0..v {
            if !rp.remnant[t] {
                continue;
            }
            for r in plan.replicas_of(TaskId::from_index(t)) {
                let mut op = Op::new(
                    r.finish - r.start,
                    now,
                    self.deadline_after(r.proc, now),
                    r.proc,
                );
                op.task = Some(r.of.task);
                op.fixed_finish = Some(r.finish);
                op.est_finish = r.finish;
                rp.new_exec[t].push(self.push_recovery_exec(op));
            }
        }
        // Wire the plan's messages: first-copy groups per (replica, edge).
        let resolve_src = |src: ReplicaRef| -> Option<Option<u32>> {
            let t = src.task.index();
            let c = src.copy as usize;
            if rp.remnant[t] {
                rp.new_exec[t].get(c).map(|&id| Some(id))
            } else {
                rp.src_ops[t].get(c).copied()
            }
        };
        // Each (replica, in-edge) reads its own group of plan messages, in
        // plan order.
        slots.index(plan, &self.inst.graph, &self.plan.edge_pos);
        for t in 0..v {
            if !rp.remnant[t] {
                continue;
            }
            let in_degree = self.inst.graph.in_edges(TaskId::from_index(t)).len();
            for (c, &ex) in rp.new_exec[t].iter().enumerate() {
                let s = slots.slot(t, c);
                for k in 0..in_degree {
                    members.clear();
                    for msg in slots
                        .group(s, k)
                        .iter()
                        .map(|&mi| &plan.messages[mi as usize])
                    {
                        let Some(src_op) = resolve_src(msg.src) else {
                            continue;
                        };
                        // Frontier data already produced is ready at the
                        // replan: the plan time embeds its availability.
                        let src = (src_op, msg.from, now);
                        let deadline = self.deadline_after(msg.from, now);
                        let w = msg.finish - msg.start;
                        members.push(self.push_transfer(
                            src,
                            msg.to,
                            w,
                            Some(msg.finish),
                            deadline,
                            now,
                        ));
                    }
                    if !members.is_empty() {
                        self.add_group(ex, &members);
                    }
                }
                self.arena.act_scratch.push(Act::TrySchedule(ex));
            }
        }
        self.arena.replan = rp;
        self.arena.slots = slots;
        self.arena.members = members;
        self.arena.copies = copies;
        self.arena.hosts = alive;
        self.settle();
    }

    /// Counts the run's unrecoverable tasks into its outcome and moves the
    /// arena back into the caller's slot whole: every buffer with its
    /// capacity, and the outcome whose vectors were this run's
    /// first-finish/recovered buffers and become the next run's.
    fn finish_into(mut self, scratch: &mut EngineScratch) {
        let arena = &mut self.arena;
        arena.outcome.unrecoverable = arena
            .unrecoverable
            .iter()
            .zip(&arena.outcome.first_finish)
            .filter(|&(&flagged, finish)| flagged && finish.is_none())
            .count();
        *scratch = self.arena;
    }

    /// Streams every materialized operation to `obs` in creation order —
    /// the [`Observer::on_op`] pass after the event loop drains.
    fn emit_ops(&self, obs: &mut dyn Observer) {
        for op in &self.arena.ops[..self.arena.live] {
            obs.on_op(&OpTrace {
                proc: ProcId::from_index(op.proc as usize),
                task: op.task,
                release: op.release,
                start: op.start,
                finish: op.finish,
                discovered: op.discovered,
                completed: op.state == OpState::Done,
                recovery: op.recovery,
                work: op.work,
                full: op.full,
                done_frac: op.done_frac,
                ck_pad: op.ck_pad,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::observe::TraceObserver;
    use crate::policy::RecoveryPolicy;
    use crate::scratch::ReplicaSlots;
    use ft_algos::{caft, caft_with, ftsa, CommModel};
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_net::Contention;
    use ft_platform::PlatformParams;
    use ft_sim::{replay, ReplayOutcome};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64, tasks: usize, gran: f64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_layered(&RandomDagParams::default().with_tasks(tasks), &mut rng);
        ft_platform::random_instance(g, &PlatformParams::default(), gran, &mut rng)
    }

    /// One pooled one-shot run under the built-in `cfg.policy`.
    fn one_shot(
        inst: &Instance,
        sched: &FtSchedule,
        scenario: &FaultScenario,
        cfg: &EngineConfig,
    ) -> RunOutcome {
        run_once(inst, sched, scenario, cfg, &cfg.policy, None, None)
    }

    /// [`one_shot`] with the run buffered into an [`EngineTrace`].
    fn traced(
        inst: &Instance,
        sched: &FtSchedule,
        scenario: &FaultScenario,
        cfg: &EngineConfig,
    ) -> (RunOutcome, EngineTrace) {
        let mut tracer = TraceObserver::new();
        let out = run_once(
            inst,
            sched,
            scenario,
            cfg,
            &cfg.policy,
            Some(&mut tracer),
            None,
        );
        (out, tracer.into_trace())
    }

    /// The messages into each replica slot of a schedule, in schedule
    /// order: the per-replica inboxes the op build used to filter once
    /// per in-edge, kept as the reference of the per-(replica, in-edge)
    /// groups.
    struct Inboxes {
        base: Vec<usize>,
        inbox: Vec<Vec<u32>>,
    }

    impl Inboxes {
        fn new(sched: &FtSchedule) -> Self {
            let mut base = vec![0];
            for rs in &sched.replicas {
                base.push(base[base.len() - 1] + rs.len());
            }
            let mut inboxes = Inboxes {
                inbox: vec![Vec::new(); base[base.len() - 1]],
                base,
            };
            for (mi, msg) in sched.messages.iter().enumerate() {
                if let Some(s) = inboxes.slot_of(msg.dst) {
                    inboxes.inbox[s].push(mi as u32);
                }
            }
            inboxes
        }

        fn slot_of(&self, r: ReplicaRef) -> Option<usize> {
            let t = r.task.index();
            let at = self.base[t] + r.copy as usize;
            (at < self.base[t + 1]).then_some(at)
        }

        /// The messages into slot `s` along edge `e`: its inbox, filtered.
        fn group<'s>(
            &'s self,
            sched: &'s FtSchedule,
            s: usize,
            e: EdgeId,
        ) -> impl Iterator<Item = u32> + 's {
            let inbox = self.inbox[s].iter().copied();
            inbox.filter(move |&mi| sched.messages[mi as usize].edge == e)
        }
    }

    impl Engine<'_> {
        /// The op build before queue buckets and per-edge groups, kept as
        /// the reference [`Engine::build_static_ops`] must reproduce op
        /// for op: liveness and first-copy groups filter each replica's
        /// inbox per in-edge, and the FIFO orders are one globally sorted
        /// `(queue, start, op)` table.
        fn build_static_ops_reference(&mut self) {
            let g = &self.inst.graph;
            let sched = self.sched;
            let m = self.inst.num_procs();
            let deadline: Vec<f64> = (0..m)
                .map(|p| self.scenario.deadline_after(ProcId::from_index(p), 0.0))
                .collect();
            let dead0 = |p: ProcId| deadline[p.index()] <= 0.0;
            let inboxes = Inboxes::new(sched);
            let flat = sched.replicas.iter().flatten();
            let mut alive: Vec<bool> = flat.map(|r| !dead0(r.proc)).collect();
            for &t in &self.plan.topo_order {
                for c in 0..sched.replicas[t.index()].len() {
                    let s = inboxes.base[t.index()] + c;
                    for &e in g.in_edges(t) {
                        let fed = inboxes.group(sched, s, e).any(|mi| {
                            let src = inboxes.slot_of(sched.messages[mi as usize].src);
                            src.is_some_and(|src| alive[src])
                        });
                        if !fed {
                            alive[s] = false;
                            break;
                        }
                    }
                }
            }
            let a = &mut self.arena;
            a.static_exec = sched
                .replicas
                .iter()
                .map(|rs| vec![None; rs.len()])
                .collect();
            a.live = 0;
            for (t, rs) in sched.replicas.iter().enumerate() {
                for (c, r) in rs.iter().enumerate() {
                    if !alive[inboxes.base[t] + c] {
                        continue;
                    }
                    let exec = self.inst.exec_time(r.of.task, r.proc);
                    let mut op = Op::new(exec, 0.0, deadline[r.proc.index()], r.proc);
                    op.task = Some(r.of.task);
                    self.apply_checkpointing(&mut op);
                    let id = put_op(&mut self.arena.ops, &mut self.arena.live, &op);
                    self.arena.static_exec[t][c] = Some(id);
                }
            }
            let mut msg_op = Vec::new();
            for msg in &sched.messages {
                if !alive[inboxes.slot_of(msg.src).expect("a scheduled sender")] {
                    msg_op.push(None);
                    continue;
                }
                let w = msg.finish - msg.start;
                let mut mop = Op::new(w, 0.0, deadline[msg.from.index()], msg.from);
                mop.dst = msg.to.index() as u32;
                let id = put_op(&mut self.arena.ops, &mut self.arena.live, &mop);
                msg_op.push(Some(id));
                let src = self.arena.static_exec[msg.src.task.index()][msg.src.copy as usize];
                self.add_hard_dep(src.expect("a live sender"), id);
            }
            let queue = |base: usize, p: ProcId| (base * m + p.index()) as u32;
            let mut fifo = Vec::new();
            for (t, rs) in sched.replicas.iter().enumerate() {
                for (c, r) in rs.iter().enumerate() {
                    if let Some(op) = self.arena.static_exec[t][c] {
                        fifo.push((queue(0, r.proc), r.start, op));
                    }
                }
            }
            for (msg, op) in sched.messages.iter().zip(&msg_op) {
                let Some(op) = *op else { continue };
                if msg.is_local() {
                    continue;
                }
                fifo.push((queue(1, msg.from), msg.start, op));
                if !dead0(msg.to) {
                    fifo.push((queue(2, msg.to), msg.start, op));
                }
                fifo.push((queue(3 + msg.from.index(), msg.to), msg.start, op));
            }
            fifo.sort_unstable_by(|x, y| {
                x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)).then(x.2.cmp(&y.2))
            });
            for w in fifo.windows(2) {
                let ((q, _, prev), (q_next, _, next)) = (w[0], w[1]);
                if q == q_next {
                    self.arena.ops[prev as usize].fifo_deps.push(next);
                    self.arena.ops[next as usize].fifo_remaining += 1;
                }
            }
            for (t, rs) in sched.replicas.iter().enumerate() {
                for c in 0..rs.len() {
                    let Some(ex) = self.arena.static_exec[t][c] else {
                        continue;
                    };
                    for &e in g.in_edges(TaskId::from_index(t)) {
                        let group = inboxes.group(sched, inboxes.base[t] + c, e);
                        let members: Vec<u32> =
                            group.filter_map(|mi| msg_op[mi as usize]).collect();
                        self.add_group(ex, &members);
                    }
                }
            }
        }
    }

    /// A `caft_on_subdag` repair of `sched`: processor 0 is lost at half
    /// the latency, the tasks with no replica finished by then (closed
    /// under successors) are the remnant, and the other tasks' replicas
    /// off processor 0 are its frontier.
    fn subdag_repair(inst: &Instance, sched: &FtSchedule, opts: &CaftOptions) -> FtSchedule {
        let g = &inst.graph;
        let cut = 0.5 * sched.latency();
        let lost = ProcId(0);
        let mut remnant = vec![false; g.num_tasks()];
        for t in ft_graph::topological_order(g) {
            remnant[t.index()] = g.predecessors(t).any(|p| remnant[p.index()])
                || sched.replicas_of(t).iter().all(|r| r.finish > cut);
        }
        let sources: Vec<Vec<(ProcId, f64)>> = g
            .tasks()
            .map(|t| match remnant[t.index()] {
                true => Vec::new(),
                false => {
                    let live = sched.replicas_of(t).iter().filter(|r| r.proc != lost);
                    live.map(|r| (r.proc, r.finish)).collect()
                }
            })
            .collect();
        let alive: Vec<ProcId> = inst.platform.procs().filter(|&p| p != lost).collect();
        let spec = SubDagSpec {
            remnant: &remnant,
            sources: &sources,
            alive: &alive,
            release: cut,
        };
        caft_on_subdag(inst, &spec, opts).schedule
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The linear op build — queue buckets, per-(replica, in-edge)
        /// groups, ops written over a recycled pool — wires every op as
        /// the reference build does, FIFO successor order included, on
        /// CAFT schedules and sub-DAG repairs under crash-at-0 sets that
        /// kill a replica's host, a message's sender or its receiver; and
        /// a replan reads the reference's groups.
        #[test]
        fn linear_build_matches_the_reference_build(
            seed in any::<u64>(),
            tasks in 2usize..50,
            procs in 1usize..=12,
            eps in 0usize..=3,
            // One-port, insertion policy, sub-DAG repair.
            variant in (any::<bool>(), any::<bool>(), any::<bool>()),
            // Kill a replica's host, a message's sender, its receiver.
            kills in (any::<bool>(), any::<bool>(), any::<bool>()),
        ) {
            let (one_port, insertion, repair) = variant;
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_layered(&RandomDagParams::default().with_tasks(tasks), &mut rng);
            let params = PlatformParams::default().with_procs(procs);
            let inst = ft_platform::random_instance(g, &params, 1.0, &mut rng);
            let opts = CaftOptions {
                eps: eps.min(procs - 1),
                model: if one_port { CommModel::OnePort } else { CommModel::MacroDataflow },
                seed,
                insertion,
                ..CaftOptions::default()
            };
            let mut sched = caft_with(&inst, opts);
            if repair && procs > 1 {
                sched = subdag_repair(&inst, &sched, &opts);
            }
            let hosts: Vec<ProcId> = sched.replicas.iter().flatten().map(|r| r.proc).collect();
            let remote: Vec<_> = sched.messages.iter().filter(|m| !m.is_local()).collect();
            let mut dead = Vec::new();
            if kills.0 && !hosts.is_empty() {
                dead.push(hosts[rng.gen_range(0..hosts.len())]);
            }
            if !remote.is_empty() {
                if kills.1 {
                    dead.push(remote[rng.gen_range(0..remote.len())].from);
                }
                if kills.2 {
                    dead.push(remote[rng.gen_range(0..remote.len())].to);
                }
            }
            dead.sort();
            dead.dedup();
            let scenario = FaultScenario::procs(&dead);
            let policy = RecoveryPolicy::checkpoint(inst.mean_task_cost(), 0.05);
            let plan = StaticPlan::one_shot(&inst, checkpoint_table(&inst, &policy));
            let cfg = EngineConfig::default();

            // The linear build writes over a pool a larger build left.
            let big = setup(seed ^ 1, 60, 1.0);
            let big_sched = caft(&big, 2, CommModel::OnePort, seed);
            let big_plan = StaticPlan::one_shot(&big, checkpoint_table(&big, &policy));
            let none = FaultScenario::none();
            let pooled = EngineScratch::new();
            let mut first = Engine::from_parts(&big, &big_sched, &none, &cfg, &policy, &big_plan, pooled);
            first.build_static_ops();
            let pooled = first.arena;

            let mut linear = Engine::from_parts(&inst, &sched, &scenario, &cfg, &policy, &plan, pooled);
            linear.build_static_ops();
            let fresh = EngineScratch::new();
            let mut reference = Engine::from_parts(&inst, &sched, &scenario, &cfg, &policy, &plan, fresh);
            reference.build_static_ops_reference();
            let (a, b) = (&linear.arena, &reference.arena);
            prop_assert_eq!(a.live, b.live);
            prop_assert_eq!(format!("{:?}", &a.ops[..a.live]), format!("{:?}", &b.ops[..b.live]));
            prop_assert_eq!(&a.static_exec, &b.static_exec);

            let inboxes = Inboxes::new(&sched);
            let mut slots = ReplicaSlots::default();
            slots.index(&sched, &inst.graph, &plan.edge_pos);
            for t in inst.graph.tasks() {
                for c in 0..sched.replicas[t.index()].len() {
                    let s = slots.slot(t.index(), c);
                    for (k, &e) in inst.graph.in_edges(t).iter().enumerate() {
                        let want: Vec<u32> = inboxes.group(&sched, s, e).collect();
                        prop_assert_eq!(slots.group(s, k), &want[..]);
                    }
                }
            }
        }
    }

    fn assert_matches_replay(out: &RunOutcome, rep: &ReplayOutcome) {
        assert_eq!(out.completed(), rep.completed());
        match (out.latency(), rep.latency()) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "online {a} vs replay {b}"),
            (None, None) => {}
            (a, b) => panic!("online {a:?} vs replay {b:?}"),
        }
        // Per-task first completions must agree, not just the maximum.
        for (t, f) in out.first_finish.iter().enumerate() {
            let rf = rep.replica_finish[t]
                .iter()
                .flatten()
                .fold(f64::INFINITY, |a, &b| a.min(b));
            match f {
                Some(f) => assert!((f - rf).abs() < 1e-9, "task {t}: {f} vs {rf}"),
                None => assert!(!rf.is_finite(), "task {t}: online missing, replay {rf}"),
            }
        }
    }

    #[test]
    fn no_failure_reproduces_static_replay_exactly() {
        for seed in 0..3u64 {
            let inst = setup(seed, 40, 1.0);
            for eps in [0usize, 1, 2] {
                let sched = caft(&inst, eps, CommModel::OnePort, seed);
                let out = one_shot(
                    &inst,
                    &sched,
                    &FaultScenario::none(),
                    &EngineConfig::default(),
                );
                let rep = replay(&inst, &sched, &FaultScenario::none());
                assert_matches_replay(&out, &rep);
            }
        }
    }

    #[test]
    fn crash_beyond_makespan_is_a_no_op() {
        let inst = setup(4, 35, 0.7);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 4);
        let after = sched.full_makespan();
        let scenario = FaultScenario::timed(&[(ProcId(0), after), (ProcId(3), after + 5.0)]);
        for policy in RecoveryPolicy::ALL {
            let out = one_shot(&inst, &sched, &scenario, &EngineConfig::with_policy(policy));
            let rep = replay(&inst, &sched, &FaultScenario::none());
            assert_matches_replay(&out, &rep);
            assert_eq!(out.detections, 2);
            assert_eq!(out.recovery_replicas, 0, "{policy}: nothing to recover");
        }
    }

    #[test]
    fn crash_at_zero_with_absorb_reproduces_adversarial_replay() {
        let inst = setup(17, 40, 1.0);
        for (eps, seed) in [(1usize, 0u64), (2, 1)] {
            for algo in [caft, ftsa] {
                let sched = algo(&inst, eps, CommModel::OnePort, seed);
                for p in inst.platform.procs() {
                    let scenario = FaultScenario::procs(&[p]);
                    let out = one_shot(
                        &inst,
                        &sched,
                        &scenario,
                        &EngineConfig::with_policy(RecoveryPolicy::Absorb),
                    );
                    let rep = replay(&inst, &sched, &scenario);
                    assert_matches_replay(&out, &rep);
                }
            }
        }
    }

    #[test]
    fn mid_run_crash_is_absorbed_by_ftsa_replication() {
        // FTSA ε = 1 full fan-in: losing one processor mid-run can delay
        // but never kill the computation, even with no recovery at all.
        let inst = setup(7, 40, 1.0);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 7);
        let nominal = sched.latency();
        for p in inst.platform.procs() {
            let scenario = FaultScenario::timed(&[(p, nominal * 0.4)]);
            let out = one_shot(
                &inst,
                &sched,
                &scenario,
                &EngineConfig::with_policy(RecoveryPolicy::Absorb),
            );
            assert!(out.completed(), "mid-run crash of {p} killed FTSA ε=1");
        }
    }

    #[test]
    fn later_crashes_never_hurt_absorb() {
        // Under Absorb, delaying a crash can only preserve or improve the
        // outcome set: everything that completed before keeps completing.
        let inst = setup(9, 35, 0.8);
        let sched = caft(&inst, 1, CommModel::OnePort, 9);
        let nominal = sched.latency();
        let p = ProcId(2);
        let mut last_completed = false;
        for frac in [0.0, 0.3, 0.6, 0.9, 1.2] {
            let scenario = FaultScenario::timed(&[(p, nominal * frac)]);
            let out = one_shot(
                &inst,
                &sched,
                &scenario,
                &EngineConfig::with_policy(RecoveryPolicy::Absorb),
            );
            assert!(
                out.completed() || !last_completed,
                "completion regressed when delaying the crash to {frac}"
            );
            last_completed = out.completed();
        }
    }

    #[test]
    fn reschedule_repairs_a_caft_starvation() {
        // The pinned CAFT ε = 1 counterexample (see ft-sim replay tests):
        // some single crash starves the strict replay. The online engine
        // with Reschedule must repair every such crash at any time, and
        // with Absorb must reproduce the starvation for the t = 0 crash.
        let inst = setup(17, 30, 1.0);
        let sched = caft(&inst, 1, CommModel::OnePort, 0);
        let mut broke_some = false;
        for p in inst.platform.procs() {
            let strict = replay(&inst, &sched, &FaultScenario::procs(&[p]));
            if strict.completed() {
                continue;
            }
            broke_some = true;
            for crash_at in [0.0, sched.latency() * 0.5] {
                let scenario = FaultScenario::timed(&[(p, crash_at)]);
                let cfg = EngineConfig {
                    policy: RecoveryPolicy::Reschedule,
                    detection: DetectionModel::uniform(0.5),
                    seed: 0,
                    ..EngineConfig::default()
                };
                let out = one_shot(&inst, &sched, &scenario, &cfg);
                assert!(
                    out.completed(),
                    "reschedule failed to repair crash of {p} at {crash_at}"
                );
                assert!(out.reschedules >= 1);
            }
        }
        assert!(broke_some, "expected the pinned starvation counterexample");
    }

    #[test]
    fn re_replicate_restores_completion_under_double_crash() {
        // ε = 1 tolerates one failure; two mid-run crashes generally break
        // Absorb. ReReplicate must recover whenever data survives.
        let inst = setup(21, 40, 1.0);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 3);
        let nominal = sched.latency();
        let scenario =
            FaultScenario::timed(&[(ProcId(0), nominal * 0.1), (ProcId(1), nominal * 0.2)]);
        let absorb = one_shot(
            &inst,
            &sched,
            &scenario,
            &EngineConfig {
                policy: RecoveryPolicy::Absorb,
                detection: DetectionModel::uniform(0.2),
                seed: 0,
                ..EngineConfig::default()
            },
        );
        let rerep = one_shot(
            &inst,
            &sched,
            &scenario,
            &EngineConfig {
                policy: RecoveryPolicy::ReReplicate,
                detection: DetectionModel::uniform(0.2),
                seed: 0,
                ..EngineConfig::default()
            },
        );
        assert!(
            rerep.completed(),
            "re-replication failed to repair double crash"
        );
        if !absorb.completed() {
            assert!(rerep.tasks_recovered() > 0);
        }
        assert!(
            rerep.recovery_replicas > 0,
            "two early crashes must leave lost pending replicas to replace"
        );
    }

    #[test]
    fn deferred_repairs_are_retried_when_knowledge_spreads() {
        // Staggered per-processor detection with the fast monitor itself
        // crashed: the second crash becomes known through the dead
        // observer's (phantom) heartbeat instant, at which point no live
        // survivor is repair-eligible yet. The spawns skipped there must
        // be retried at the later knowledge-growth events — without the
        // deferral list, tasks that lost replicas on the first victim
        // were stranded forever (their doomed replacements sat on the
        // dead fast observer, and later events only rescanned the
        // *other* crash's losses).
        let inst = setup(21, 40, 1.0);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 3);
        let nominal = sched.latency();
        let m = inst.num_procs();
        let mut delays = vec![nominal * 0.3; m];
        delays[0] = nominal * 0.01; // the fast monitor…
        let scenario =
            FaultScenario::timed(&[(ProcId(0), nominal * 0.05), (ProcId(1), nominal * 0.1)]);
        let cfg = EngineConfig {
            policy: RecoveryPolicy::ReReplicate,
            detection: DetectionModel::PerProcessor(delays),
            seed: 0,
            ..EngineConfig::default()
        };
        let out = one_shot(&inst, &sched, &scenario, &cfg);
        assert!(
            out.completed(),
            "deferred spawns must be retried once survivors become eligible"
        );
        assert!(out.recovery_replicas > 0);
        // Deterministic, like every engine entry point.
        let again = one_shot(&inst, &sched, &scenario, &cfg);
        assert_eq!(
            serde_json::to_string(&out).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn knowledge_lag_does_not_count_phantom_replans() {
        // Under staggered detection a Reschedule event can fire while no
        // survivor is repair-eligible; such events must not inflate the
        // replan counter (they produce no plan and cancel nothing).
        let inst = setup(21, 40, 1.0);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 3);
        let nominal = sched.latency();
        let m = inst.num_procs();
        let mut delays = vec![nominal * 0.3; m];
        delays[0] = nominal * 0.01;
        let scenario =
            FaultScenario::timed(&[(ProcId(0), nominal * 0.05), (ProcId(1), nominal * 0.1)]);
        let cfg = EngineConfig {
            policy: RecoveryPolicy::Reschedule,
            detection: DetectionModel::PerProcessor(delays),
            seed: 0,
            ..EngineConfig::default()
        };
        let out = one_shot(&inst, &sched, &scenario, &cfg);
        // Three detection events fire: crash 1 via the dead fast monitor
        // (replans onto the not-yet-known-dead ProcId(0) — knowledge
        // honesty), crash 0 via the slow monitors (no survivor has
        // detected *both* crashes yet: no replan), and crash 1 again once
        // the slow monitors learn of it (the real repair). Counting the
        // middle no-op would report 3.
        assert_eq!(out.detections, 2);
        assert_eq!(
            out.reschedules, 2,
            "knowledge-lag events with no eligible survivor must not count as replans"
        );
        assert!(out.completed());
    }

    #[test]
    fn detection_latency_delays_recovery() {
        let inst = setup(25, 40, 1.0);
        let sched = caft(&inst, 1, CommModel::OnePort, 5);
        let nominal = sched.latency();
        let scenario =
            FaultScenario::timed(&[(ProcId(0), nominal * 0.2), (ProcId(4), nominal * 0.35)]);
        let run = |delta: f64| {
            one_shot(
                &inst,
                &sched,
                &scenario,
                &EngineConfig {
                    policy: RecoveryPolicy::ReReplicate,
                    detection: DetectionModel::uniform(delta),
                    seed: 0,
                    ..EngineConfig::default()
                },
            )
        };
        let fast = run(0.1);
        let slow = run(nominal * 0.5);
        if let (Some(f), Some(s)) = (fast.latency(), slow.latency()) {
            assert!(
                f <= s + 1e-9,
                "faster detection must not finish later: {f} vs {s}"
            );
        }
    }

    #[test]
    fn deterministic_given_inputs() {
        let inst = setup(31, 45, 0.6);
        let sched = caft(&inst, 2, CommModel::OnePort, 2);
        let scenario = FaultScenario::timed(&[
            (ProcId(1), sched.latency() * 0.25),
            (ProcId(5), sched.latency() * 0.5),
        ]);
        for policy in RecoveryPolicy::ALL {
            let cfg = EngineConfig {
                policy,
                detection: DetectionModel::uniform(0.3),
                seed: 4,
                ..EngineConfig::default()
            };
            let a = one_shot(&inst, &sched, &scenario, &cfg);
            let b = one_shot(&inst, &sched, &scenario, &cfg);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{policy} not deterministic"
            );
        }
    }

    #[test]
    fn checkpoints_for_counts_segments() {
        assert_eq!(checkpoints_for(10.0, f64::INFINITY), 0);
        assert_eq!(checkpoints_for(2.0, 3.0), 0, "shorter than one interval");
        assert_eq!(checkpoints_for(3.0, 3.0), 0, "exactly one segment");
        assert_eq!(
            checkpoints_for(9.0, 3.0),
            2,
            "no write after the last segment"
        );
        assert_eq!(checkpoints_for(10.0, 3.0), 3);
    }

    #[test]
    fn checkpoint_interval_infinity_is_re_replicate() {
        // The third pinned identity: with interval = ∞ no checkpoint is
        // ever written, so the policy must be byte-identical to
        // ReReplicate — same replicas, same transfers, same times.
        let inst = setup(21, 40, 1.0);
        let sched = caft(&inst, 1, CommModel::OnePort, 3);
        let nominal = sched.latency();
        for crashes in [
            vec![(ProcId(0), nominal * 0.1)],
            vec![(ProcId(0), nominal * 0.1), (ProcId(1), nominal * 0.2)],
            vec![(ProcId(3), 0.0), (ProcId(5), nominal * 0.6)],
        ] {
            let scenario = FaultScenario::timed(&crashes);
            let mk = |policy| EngineConfig {
                policy,
                detection: DetectionModel::uniform(0.2),
                seed: 0,
                ..EngineConfig::default()
            };
            let ck = one_shot(
                &inst,
                &sched,
                &scenario,
                &mk(RecoveryPolicy::checkpoint(f64::INFINITY, 0.7)),
            );
            let rr = one_shot(&inst, &sched, &scenario, &mk(RecoveryPolicy::ReReplicate));
            assert_eq!(
                serde_json::to_string(&ck).unwrap(),
                serde_json::to_string(&rr).unwrap(),
                "interval = ∞ must degenerate to ReReplicate"
            );
            assert_eq!(ck.checkpoint_overhead, 0.0, "nothing written, nothing paid");
            assert_eq!(ck.work_saved, 0.0);
        }
    }

    #[test]
    fn checkpoint_resume_saves_recomputation() {
        // A mid-run crash under a fine checkpoint interval: some lost
        // replica had completed checkpoints, so the replacement resumes
        // (work_saved > 0) instead of recomputing from zero.
        let inst = setup(21, 40, 1.0);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 3);
        let nominal = sched.latency();
        let interval = inst.mean_task_cost() * 0.25;
        let scenario =
            FaultScenario::timed(&[(ProcId(0), nominal * 0.3), (ProcId(1), nominal * 0.4)]);
        let out = one_shot(
            &inst,
            &sched,
            &scenario,
            &EngineConfig {
                policy: RecoveryPolicy::checkpoint(interval, 0.01),
                detection: DetectionModel::uniform(0.2),
                seed: 0,
                ..EngineConfig::default()
            },
        );
        assert!(out.completed(), "double crash must be repaired by resumes");
        assert!(out.work_saved > 0.0, "some replacement must resume");
        assert!(out.checkpoint_overhead > 0.0);
    }

    #[test]
    fn zero_overhead_checkpoint_beyond_makespan_matches_replay() {
        // The crash-beyond-makespan identity extends to Checkpoint when
        // overhead = 0: the stretch vanishes, so the failure-free timeline
        // is untouched.
        let inst = setup(4, 35, 0.7);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 4);
        let after = sched.full_makespan();
        let scenario = FaultScenario::timed(&[(ProcId(0), after), (ProcId(3), after + 5.0)]);
        let out = one_shot(
            &inst,
            &sched,
            &scenario,
            &EngineConfig::with_policy(RecoveryPolicy::checkpoint(2.0, 0.0)),
        );
        let rep = replay(&inst, &sched, &FaultScenario::none());
        assert_matches_replay(&out, &rep);
        assert_eq!(out.recovery_replicas, 0);
    }

    #[test]
    fn checkpoint_overhead_stretches_failure_free_runs() {
        // With overhead > 0 the failure-free run pays for its insurance:
        // latency is strictly above nominal, and exactly nominal plus the
        // critical path's checkpoint writes for a chain-free comparison.
        let inst = setup(4, 35, 0.7);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 4);
        let run = |ov: f64| {
            one_shot(
                &inst,
                &sched,
                &FaultScenario::none(),
                &EngineConfig::with_policy(RecoveryPolicy::checkpoint(
                    inst.mean_task_cost() * 0.5,
                    ov,
                )),
            )
        };
        let free = run(0.0);
        let paid = run(0.2);
        assert!((free.latency().unwrap() - sched.latency()).abs() < 1e-9);
        assert!(paid.latency().unwrap() > sched.latency());
        assert!(paid.checkpoint_overhead > 0.0);
        assert_eq!(paid.work_saved, 0.0, "no crash, nothing to resume");
    }

    #[test]
    fn single_processor_crash_is_still_detected() {
        // A 1-processor platform has no other observer; the timeout
        // models fall back to the crashed processor's own instant, so the
        // crash still enters the coordinator view (detections = 1, lost
        // tasks flagged unrecoverable) exactly as in the pre-redesign
        // engine. Only gossip — a rumor with nobody to start it — never
        // detects.
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_layered(&RandomDagParams::default().with_tasks(12), &mut rng);
        let inst = ft_platform::random_instance(
            g,
            &ft_platform::PlatformParams::default().with_procs(1),
            1.0,
            &mut rng,
        );
        let sched = caft(&inst, 0, CommModel::OnePort, 2);
        let scenario = FaultScenario::timed(&[(ProcId(0), sched.latency() * 0.5)]);
        for detection in [
            DetectionModel::uniform(0.5),
            DetectionModel::PerProcessor(vec![0.5]),
        ] {
            let cfg = EngineConfig {
                policy: RecoveryPolicy::ReReplicate,
                detection,
                seed: 0,
                ..EngineConfig::default()
            };
            let out = one_shot(&inst, &sched, &scenario, &cfg);
            assert_eq!(out.detections, 1, "the lone crash must be detected");
            assert!(!out.completed());
            assert!(out.unrecoverable > 0, "lost tasks must be flagged");
        }
        let gossip = EngineConfig {
            policy: RecoveryPolicy::ReReplicate,
            detection: DetectionModel::Gossip {
                period: 0.5,
                fanout: 1,
                seed: 0,
            },
            seed: 0,
            ..EngineConfig::default()
        };
        let out = one_shot(&inst, &sched, &scenario, &gossip);
        assert_eq!(out.detections, 0, "no observer, no rumor, no detection");
    }

    #[test]
    fn repair_infinity_is_byte_identical_to_permanent() {
        // The availability identity at unit scale (the full property lives
        // in tests/timed_model.rs): a transient scenario whose every
        // repair is ∞ runs the permanent engine byte-for-byte.
        let inst = setup(21, 40, 1.0);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 3);
        let nominal = sched.latency();
        let crashes = [(ProcId(0), nominal * 0.1), (ProcId(1), nominal * 0.25)];
        let transient: Vec<_> = crashes
            .iter()
            .map(|&(p, t)| (p, t, f64::INFINITY))
            .collect();
        for policy in RecoveryPolicy::ALL {
            let cfg = EngineConfig {
                policy,
                detection: DetectionModel::uniform(0.3),
                seed: 0,
                ..EngineConfig::default()
            };
            let perm = one_shot(&inst, &sched, &FaultScenario::timed(&crashes), &cfg);
            let tra = one_shot(&inst, &sched, &FaultScenario::transient(&transient), &cfg);
            assert_eq!(
                serde_json::to_string(&perm).unwrap(),
                serde_json::to_string(&tra).unwrap(),
                "{policy}: repair = ∞ must be permanent fail-stop"
            );
            assert_eq!(tra.rejoins, 0);
        }
    }

    #[test]
    fn rejoined_processor_hosts_replacements() {
        // Single-processor rejuvenation: the lone processor crashes
        // mid-run and reboots. Under permanent fail-stop the run is lost;
        // with a repair window, the rejoin enters the coordinator view
        // (own-timeout fallback) and re-replication replays the lost work
        // on the rebooted processor — data computed before the crash
        // persisted across the reboot.
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_layered(&RandomDagParams::default().with_tasks(12), &mut rng);
        let inst = ft_platform::random_instance(
            g,
            &ft_platform::PlatformParams::default().with_procs(1),
            1.0,
            &mut rng,
        );
        let sched = caft(&inst, 0, CommModel::OnePort, 2);
        let crash = sched.latency() * 0.5;
        let cfg = EngineConfig {
            policy: RecoveryPolicy::ReReplicate,
            detection: DetectionModel::uniform(0.5),
            seed: 0,
            ..EngineConfig::default()
        };
        let perm = one_shot(
            &inst,
            &sched,
            &FaultScenario::timed(&[(ProcId(0), crash)]),
            &cfg,
        );
        assert!(!perm.completed(), "no reboot, no second chance");
        let tra = one_shot(
            &inst,
            &sched,
            &FaultScenario::transient(&[(ProcId(0), crash, 2.0)]),
            &cfg,
        );
        assert!(
            tra.completed(),
            "the rebooted processor must finish the job"
        );
        assert_eq!(tra.rejoins, 1);
        assert!(tra.recovery_replicas > 0);
        assert!(tra.tasks_recovered() > 0);
        // Deterministic, like every engine entry point.
        let again = one_shot(
            &inst,
            &sched,
            &FaultScenario::transient(&[(ProcId(0), crash, 2.0)]),
            &cfg,
        );
        assert_eq!(
            serde_json::to_string(&tra).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn multiple_epochs_are_each_detected() {
        // A processor that crashes, reboots and crashes again produces
        // two detections and one rejoin in the coordinator view, and the
        // platform still completes under recovery.
        let inst = setup(21, 40, 1.0);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 3);
        let nominal = sched.latency();
        let scenario = FaultScenario::transient(&[
            (ProcId(0), nominal * 0.2, nominal * 0.2),
            (ProcId(0), nominal * 0.6, f64::INFINITY),
        ]);
        for policy in [RecoveryPolicy::ReReplicate, RecoveryPolicy::Reschedule] {
            let cfg = EngineConfig {
                policy,
                detection: DetectionModel::uniform(0.3),
                seed: 0,
                ..EngineConfig::default()
            };
            let out = one_shot(&inst, &sched, &scenario, &cfg);
            assert_eq!(out.detections, 2, "{policy}: both epochs detected");
            assert_eq!(out.rejoins, 1, "{policy}: one reboot known");
            assert_eq!(out.num_failures, 1, "one distinct processor failed");
            assert!(out.completed(), "{policy}: ε = 1 platform must survive");
        }
    }

    #[test]
    fn crash_at_the_reboot_instant_wins_the_tie() {
        // `crash_{k+1} = up_k` is a legal scenario: the processor comes
        // back and dies in the same instant. Under uniform detection both
        // knowledge events land at the same wall-clock instant (crash
        // detections are processed first), so the rejoin must *not*
        // revive the belief on the physical-time tie — a revived zombie
        // would attract doomed repair work. On a single-processor
        // platform the zombie is the only candidate host, which makes
        // the bug directly observable: with the tie mishandled, the
        // rejuvenation pass spawns replacements on the dead processor.
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_layered(&RandomDagParams::default().with_tasks(12), &mut rng);
        let inst = ft_platform::random_instance(
            g,
            &ft_platform::PlatformParams::default().with_procs(1),
            1.0,
            &mut rng,
        );
        let sched = caft(&inst, 0, CommModel::OnePort, 2);
        let nominal = sched.latency();
        let (crash, repair) = (nominal * 0.2, nominal * 0.1);
        let scenario = FaultScenario::transient(&[
            (ProcId(0), crash, repair),
            (ProcId(0), crash + repair, f64::INFINITY),
        ]);
        let cfg = EngineConfig {
            policy: RecoveryPolicy::ReReplicate,
            detection: DetectionModel::uniform(0.3),
            seed: 0,
            ..EngineConfig::default()
        };
        let (out, trace) = traced(&inst, &sched, &scenario, &cfg);
        assert_eq!(out.detections, 2);
        assert_eq!(out.rejoins, 1);
        for (i, op) in trace.ops.iter().enumerate() {
            assert!(
                op.release == 0.0,
                "op {i} placed on the zombie processor at release {}",
                op.release
            );
        }
        assert!(!out.completed(), "the platform is gone for good");
    }

    #[test]
    fn same_instant_knowledge_is_crashes_then_epoch_then_processor() {
        // Three availability events become known at one instant under
        // uniform detection: processor 0's epoch-1 crash, processor 1's
        // epoch-0 crash and processor 2's reboot. The hooks must see the
        // crashes before the rejoin, and the crashes by epoch before
        // processor — processor 1's epoch 0 ahead of processor 0's
        // epoch 1.
        use std::sync::Mutex;
        #[derive(Default)]
        struct Recorder(Mutex<Vec<(&'static str, PolicyEvent)>>);
        impl Recorder {
            fn log(&self, kind: &'static str, e: &PolicyEvent) {
                self.0.lock().unwrap().push((kind, *e));
            }
        }
        impl Policy for Recorder {
            fn on_crash(&self, _: &PolicyView<'_>, e: &PolicyEvent, _: &mut Vec<RecoveryAction>) {
                self.log("crash", e);
            }
            fn on_rejoin(&self, _: &PolicyView<'_>, e: &PolicyEvent, _: &mut Vec<RecoveryAction>) {
                self.log("rejoin", e);
            }
        }

        let mut rng = StdRng::seed_from_u64(4);
        let g = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
        let params = PlatformParams::default().with_procs(3);
        let inst = ft_platform::random_instance(g, &params, 1.0, &mut rng);
        let sched = caft(&inst, 0, CommModel::OnePort, 4);
        // A power-of-two time unit keeps every instant below exact.
        let u = (sched.latency() / 16.0).log2().floor().exp2();
        let scenario = FaultScenario::transient(&[
            (ProcId(0), u, u),
            (ProcId(0), 8.0 * u, f64::INFINITY),
            (ProcId(1), 8.0 * u, f64::INFINITY),
            (ProcId(2), 4.0 * u, 4.0 * u),
        ]);
        let cfg = EngineConfig {
            detection: DetectionModel::uniform(0.5 * u),
            ..EngineConfig::default()
        };
        let recorder = Recorder::default();
        run_once(&inst, &sched, &scenario, &cfg, &recorder, None, None);
        let log = recorder.0.into_inner().unwrap();
        let at_once: Vec<_> = log
            .iter()
            .filter(|(_, e)| e.time == 8.5 * u)
            .map(|(kind, e)| (*kind, e.proc.index(), e.epoch, e.first))
            .collect();
        assert_eq!(
            at_once,
            [
                ("crash", 1, 0, true),
                ("crash", 0, 1, true),
                ("rejoin", 2, 0, true),
            ],
            "full log: {log:?}"
        );
    }

    #[test]
    fn traced_run_matches_untraced() {
        let inst = setup(21, 40, 1.0);
        let sched = ftsa(&inst, 1, CommModel::OnePort, 3);
        let nominal = sched.latency();
        let scenario = FaultScenario::transient(&[
            (ProcId(0), nominal * 0.2, nominal * 0.3),
            (ProcId(1), nominal * 0.35, f64::INFINITY),
        ]);
        let cfg = EngineConfig {
            policy: RecoveryPolicy::checkpoint(inst.mean_task_cost() * 0.5, 0.02),
            detection: DetectionModel::uniform(0.3),
            seed: 0,
            ..EngineConfig::default()
        };
        let plain = one_shot(&inst, &sched, &scenario, &cfg);
        let (traced, trace) = traced(&inst, &sched, &scenario, &cfg);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "tracing must not steer the engine"
        );
        assert!(!trace.ops.is_empty());
        assert!(!trace.events.is_empty());
        // Availability events are processed in time order (completion
        // events may lag behind — the documented ghost-pass-through
        // frontier lag; see the engine_invariants suite).
        let avail: Vec<f64> = trace
            .events
            .iter()
            .filter(|e| e.kind != TraceEventKind::Completion)
            .map(|e| e.time)
            .collect();
        for w in avail.windows(2) {
            assert!(w[0] <= w[1], "availability events out of order");
        }
        let completions = trace
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Completion)
            .count();
        assert_eq!(
            completions,
            trace.ops.iter().filter(|o| o.completed).count()
        );
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == TraceEventKind::Rejoin));
    }

    #[test]
    fn killing_every_processor_fails_the_run() {
        let inst = setup(33, 20, 1.0);
        let sched = caft(&inst, 1, CommModel::OnePort, 0);
        let crashes: Vec<(ProcId, f64)> = inst.platform.procs().map(|p| (p, 0.0)).collect();
        let scenario = FaultScenario::timed(&crashes);
        for policy in RecoveryPolicy::ALL {
            let out = one_shot(&inst, &sched, &scenario, &EngineConfig::with_policy(policy));
            assert!(!out.completed(), "{policy}: no processors, no progress");
            assert_eq!(out.latency(), None);
        }
    }

    /// A persistent [`Executor`](crate::Executor) run — warm arena, op
    /// template, reused event queue — must reproduce the one-shot run
    /// byte-for-byte on every scenario class: failure-free (template fast
    /// path), mid-run crashes (template + availability events), crashes
    /// at `t = 0` (full-build fallback inside a warm executor), and
    /// everything interleaved through one arena so state leakage between
    /// runs would be caught.
    #[test]
    fn executor_matches_one_shot_run_byte_for_byte() {
        // Instances of different sizes interleave through the one-shot
        // pool, so each one-shot build overwrites ops recycled from a
        // larger or a smaller op graph; every outcome must still match a
        // fresh Executor of its own instance.
        let cases: Vec<(Instance, FtSchedule)> = [(11, 30), (12, 12), (13, 60)]
            .into_iter()
            .map(|(seed, tasks)| {
                let inst = setup(seed, tasks, 1.0);
                let sched = caft(&inst, 1, CommModel::OnePort, 3);
                (inst, sched)
            })
            .collect();
        let scenarios: Vec<[FaultScenario; 5]> = cases
            .iter()
            .map(|(_, sched)| {
                let nominal = sched.latency();
                [
                    FaultScenario::none(),
                    FaultScenario::timed(&[(ProcId(0), nominal * 0.4)]),
                    FaultScenario::timed(&[(ProcId(1), nominal * 0.2), (ProcId(2), nominal * 0.7)]),
                    FaultScenario::timed(&[(ProcId(2), 0.0)]),
                    FaultScenario::timed(&[(ProcId(0), 0.0), (ProcId(3), nominal * 0.5)]),
                ]
            })
            .collect();
        // (scenario, instance) pairs, instances interleaved per scenario.
        let order: Vec<(usize, usize)> = (0..5)
            .flat_map(|i| (0..cases.len()).map(move |k| (i, k)))
            .collect();
        for policy in RecoveryPolicy::ALL {
            for contention in [Contention::Ideal, Contention::FairShare] {
                let cfg = EngineConfig {
                    policy,
                    detection: DetectionModel::uniform(1.0),
                    seed: 7,
                    contention,
                };
                let mut execs: Vec<_> = cases
                    .iter()
                    .map(|(inst, sched)| crate::Executor::new(inst, sched, &cfg))
                    .collect();
                // The observed runs go through warm plans and arenas of
                // their own, like an Executor's.
                let plans: Vec<_> = cases
                    .iter()
                    .map(|(inst, sched)| StaticPlan::new(inst, sched, &cfg.policy))
                    .collect();
                let mut arenas: Vec<_> = cases.iter().map(|_| EngineScratch::new()).collect();
                // Two passes over the same arenas: the second pass runs
                // every scenario through buffers warmed by a *different*
                // scenario.
                for pass in 0..2 {
                    for &(i, k) in &order {
                        let (inst, sched) = &cases[k];
                        let scenario = &scenarios[k][i];
                        let case = format!("{policy} {contention:?}: instance {k}, scenario {i}");
                        let warm = serde_json::to_string(execs[k].run(scenario)).unwrap();
                        let cold =
                            serde_json::to_string(&one_shot(inst, sched, scenario, &cfg)).unwrap();
                        assert_eq!(warm, cold, "{case}, pass {pass}");
                        // Observed, both paths stream the same ops and
                        // events: no stale pooled op past the live count
                        // reaches `emit_ops` or the replan's cancel scan.
                        let mut tracer = TraceObserver::new();
                        run_into(
                            inst,
                            sched,
                            scenario,
                            &cfg,
                            &cfg.policy,
                            &plans[k],
                            &mut arenas[k],
                            Some(&mut tracer),
                            None,
                        );
                        let (cold_out, cold_trace) = traced(inst, sched, scenario, &cfg);
                        let observed = serde_json::to_string(&arenas[k].outcome).unwrap();
                        assert_eq!(observed, cold, "{case}, pass {pass}");
                        assert_eq!(serde_json::to_string(&cold_out).unwrap(), cold);
                        let trace = |t: &EngineTrace| serde_json::to_string(t).unwrap();
                        assert_eq!(
                            trace(&tracer.into_trace()),
                            trace(&cold_trace),
                            "{case}, pass {pass}: traces differ"
                        );
                    }
                }
            }
        }
    }
}
