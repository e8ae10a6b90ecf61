//! Recovery policies: the serializable built-ins, the open [`Policy`]
//! trait, and the typed [`RecoveryAction`]s the engine applies.
//!
//! The engine does not hard-match a closed enum: every policy — built-in
//! or user-defined — implements the object-safe [`Policy`] trait. At each availability event (a crash or
//! rejoin entering or spreading through the coordinator view) the engine
//! hands the policy a read-only [`PolicyView`] of its
//! knowledge state and collects typed [`RecoveryAction`]s, which it
//! *validates* (the survivor-knowledge rule, epoch binding) and applies.
//! The historical [`RecoveryPolicy`] enum survives as the serializable
//! built-ins — it implements [`Policy`] itself, so
//! `EngineConfig { policy, .. }` and
//! [`Simulation::policy_impl`](crate::Simulation::policy_impl) route
//! through one dispatch path (see DESIGN.md §11).
//!
//! # Example
//!
//! ```
//! use ft_runtime::RecoveryPolicy;
//!
//! // The parameterless built-ins, in presentation order (the registry
//! // the identity suites and the degradation sweep iterate).
//! assert_eq!(RecoveryPolicy::ALL.len(), 4);
//!
//! // Checkpoint every 2.5 time units of work, paying 0.1 per write.
//! let ck = RecoveryPolicy::checkpoint(2.5, 0.1);
//! assert_eq!(ck.name(), "checkpoint");
//! assert_eq!(ck.label(), "ckpt τ=2.50 c=0.10");
//!
//! // interval = ∞ never writes a checkpoint: the policy degenerates to
//! // `ReReplicate` exactly (pinned by `tests/timed_model.rs`).
//! let degenerate = RecoveryPolicy::checkpoint(f64::INFINITY, 0.1);
//! assert_eq!(degenerate.name(), "checkpoint");
//!
//! // Young/Daly adaptive checkpointing: the interval is derived from the
//! // lifetime hazard rate, per task, instead of being one global knob.
//! let adaptive = RecoveryPolicy::adaptive_checkpoint(50.0, 0.1);
//! assert_eq!(adaptive.name(), "adaptive-checkpoint");
//! ```
//!
//! # Writing a custom policy
//!
//! A policy only ever *proposes*; the engine validates and applies. The
//! view exposes the engine's own loss analytics (`crash_lost_tasks`,
//! `lost_tasks`), so a custom policy composes them freely:
//!
//! ```
//! use std::sync::Arc;
//! use ft_runtime::{
//!     Policy, PolicyEvent, PolicyView, RecoveryAction, RecoveryPolicy, Simulation,
//! };
//! use ft_algos::{caft, CommModel};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams, ProcId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! /// Repairs at most `budget` tasks per detection and defers the rest.
//! struct Frugal {
//!     budget: usize,
//! }
//!
//! impl Policy for Frugal {
//!     fn name(&self) -> &str {
//!         "frugal"
//!     }
//!
//!     fn on_crash(
//!         &self,
//!         view: &PolicyView<'_>,
//!         event: &PolicyEvent,
//!         actions: &mut Vec<RecoveryAction>,
//!     ) {
//!         for (i, t) in view.crash_lost_tasks(event.proc).enumerate() {
//!             actions.push(if i < self.budget {
//!                 RecoveryAction::SpawnReplica(t)
//!             } else {
//!                 RecoveryAction::Defer(t)
//!             });
//!         }
//!     }
//!
//!     fn on_rejoin(
//!         &self,
//!         view: &PolicyView<'_>,
//!         _event: &PolicyEvent,
//!         actions: &mut Vec<RecoveryAction>,
//!     ) {
//!         for t in view.lost_tasks() {
//!             actions.push(RecoveryAction::SpawnReplica(t));
//!         }
//!     }
//! }
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! let sched = caft(&inst, 1, CommModel::OnePort, 7);
//! let scenario = ft_sim::FaultScenario::timed(&[(ProcId(0), sched.latency() * 0.4)]);
//!
//! let out = Simulation::of(&inst, &sched)
//!     .policy_impl(Arc::new(Frugal { budget: 4 }))
//!     .run(&scenario);
//! let absorb = Simulation::of(&inst, &sched)
//!     .policy(RecoveryPolicy::Absorb)
//!     .run(&scenario);
//! assert!(out.tasks_recovered() >= absorb.tasks_recovered());
//! ```

use crate::detection::DetectionModel;
#[cfg(doc)]
use crate::engine::PolicyView;
use ft_graph::TaskId;
use ft_net::Contention;
use ft_platform::{Instance, ProcId};
use serde::{Deserialize, Serialize};

/// What the runtime does when a processor failure is detected.
///
/// These are the **serializable built-ins**; they implement [`Policy`]
/// (the open trait every policy, built-in or custom, dispatches through)
/// and their serde representation is stable — pre-redesign configs
/// deserialize unchanged, and the pre-redesign variants behave
/// byte-for-byte as before (pinned by `tests/timed_model.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Do nothing: rely on the static replicas the scheduler placed (the
    /// paper's baseline — an ε-resilient schedule absorbs up to ε
    /// failures by construction).
    Absorb,
    /// Eagerly re-place the lost, not-yet-completed replicas: for each
    /// task that lost a copy and is neither finished nor safely running,
    /// spawn one replacement replica on the surviving processor with the
    /// earliest estimated finish, fed by the earliest surviving copy of
    /// each input (contention-free emergency transfers, like the replay
    /// engine's fail-over reroute). Replacements recompute lost tasks
    /// **from scratch**.
    ReReplicate,
    /// Re-run CAFT on the not-yet-started sub-DAG against the surviving
    /// platform (`ft_algos::caft_on_subdag`), superseding any previous
    /// repair plan. In-flight work continues under the static schedule's
    /// orders; the repair plan executes at its own planned times.
    Reschedule,
    /// Checkpoint/restart: every computation persists its partial result
    /// to stable storage after each `interval` time units of work, paying
    /// `overhead` per write (and no write after the final segment, so a
    /// task shorter than `interval` pays nothing). On a detected crash,
    /// a replacement replica *resumes* from the last completed checkpoint
    /// — paying `overhead` once to read it, fetching **no** inputs (the
    /// checkpointed state subsumes them) — instead of recomputing from
    /// zero. When no checkpoint of the lost task ever completed, the
    /// replacement falls back to the exact [`ReReplicate`] spawn, which
    /// makes `interval = ∞` behaviorally identical to [`ReReplicate`]
    /// (the third pinned identity; see DESIGN.md §5).
    ///
    /// This is the only pre-redesign policy that perturbs failure-free
    /// execution: a computation of duration `w` stretches to
    /// `w + (⌈w / interval⌉ − 1) · overhead`. With `overhead = 0` the
    /// stretch vanishes and the crash-beyond-makespan identity holds for
    /// this policy too.
    ///
    /// [`ReReplicate`]: RecoveryPolicy::ReReplicate
    Checkpoint {
        /// Work units between consecutive checkpoint writes (positive;
        /// `f64::INFINITY` disables checkpointing).
        interval: f64,
        /// Time cost of one checkpoint write, and of the single read a
        /// resumed replica performs (non-negative, finite).
        overhead: f64,
    },
    /// Young/Daly adaptive checkpoint/restart — the first policy only the
    /// open [`Policy`] API makes possible: instead of one global
    /// interval, the per-task [`Policy::checkpoint_plan`] hook derives
    /// each task's interval from the lifetime hazard rate as
    /// `τ = √(2 · overhead · mttf)` (Young's first-order optimum for a
    /// constant hazard rate `1 / mttf`), and tasks whose platform-mean
    /// work is at most `τ` opt out of checkpointing entirely (the write
    /// would never pay for itself). Detection-time behavior is exactly
    /// [`Checkpoint`](RecoveryPolicy::Checkpoint)'s: resume from the
    /// newest completed checkpoint, fall back to the
    /// [`ReReplicate`](RecoveryPolicy::ReReplicate) spawn when none
    /// exists.
    AdaptiveCheckpoint {
        /// Mean time to failure the interval is tuned against (the
        /// inverse hazard rate of the lifetime model; positive, finite).
        mttf: f64,
        /// Time cost of one checkpoint write / resume read (positive,
        /// finite — a free checkpoint would drive the optimal interval
        /// to 0).
        overhead: f64,
    },
    /// Warm-spare re-replication — the second policy only the open
    /// [`Policy`] API makes possible. On crash knowledge it behaves
    /// exactly like [`ReReplicate`](RecoveryPolicy::ReReplicate); on
    /// rejoin knowledge it additionally **pre-stages** the surviving
    /// inputs of still-broken tasks onto the rejoined processor
    /// ([`RecoveryAction::PreStage`]), so a later repair placed there
    /// starts from warm local data instead of waiting on input
    /// transfers. Under permanent failures no rejoin ever happens and
    /// the policy is behaviorally identical to `ReReplicate`.
    WarmSpare,
}

impl RecoveryPolicy {
    /// The registry of parameterless built-in policies, in presentation
    /// order — the single list the identity suites, the degradation
    /// sweep, the benches and the acceptance examples iterate, so a new
    /// parameterless built-in is covered everywhere by adding it here.
    /// [`Checkpoint`](RecoveryPolicy::Checkpoint) and
    /// [`AdaptiveCheckpoint`](RecoveryPolicy::AdaptiveCheckpoint) carry
    /// parameters and are constructed explicitly via
    /// [`RecoveryPolicy::checkpoint`] /
    /// [`RecoveryPolicy::adaptive_checkpoint`].
    pub const ALL: [RecoveryPolicy; 4] = [
        RecoveryPolicy::Absorb,
        RecoveryPolicy::ReReplicate,
        RecoveryPolicy::Reschedule,
        RecoveryPolicy::WarmSpare,
    ];

    /// Checkpoint/restart with the given interval and per-checkpoint
    /// overhead (both in time units).
    ///
    /// # Panics
    /// Panics if `interval` is not positive or `overhead` is negative or
    /// non-finite (`interval = ∞` is allowed and disables checkpointing).
    pub fn checkpoint(interval: f64, overhead: f64) -> Self {
        assert!(
            interval > 0.0 && !interval.is_nan(),
            "bad checkpoint interval {interval}"
        );
        assert!(
            overhead.is_finite() && overhead >= 0.0,
            "bad checkpoint overhead {overhead}"
        );
        RecoveryPolicy::Checkpoint { interval, overhead }
    }

    /// Young/Daly adaptive checkpointing tuned against the given mean
    /// time to failure (see
    /// [`AdaptiveCheckpoint`](RecoveryPolicy::AdaptiveCheckpoint)).
    ///
    /// # Panics
    /// Panics unless both `mttf` and `overhead` are positive and finite
    /// (a free or never-failing regime has no finite optimal interval).
    pub fn adaptive_checkpoint(mttf: f64, overhead: f64) -> Self {
        assert!(mttf.is_finite() && mttf > 0.0, "bad adaptive MTTF {mttf}");
        assert!(
            overhead.is_finite() && overhead > 0.0,
            "bad adaptive checkpoint overhead {overhead}"
        );
        RecoveryPolicy::AdaptiveCheckpoint { mttf, overhead }
    }

    /// Young's first-order optimal checkpoint interval
    /// `√(2 · overhead · mttf)` for a constant hazard rate `1 / mttf` —
    /// the formula behind
    /// [`AdaptiveCheckpoint`](RecoveryPolicy::AdaptiveCheckpoint),
    /// exposed so experiments can report the derived interval.
    pub fn young_daly_interval(mttf: f64, overhead: f64) -> f64 {
        (2.0 * overhead * mttf).sqrt()
    }

    /// Short lowercase name for tables and reports (parameter-free; see
    /// [`label`](RecoveryPolicy::label) for the parameterized form).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::Absorb => "absorb",
            RecoveryPolicy::ReReplicate => "re-replicate",
            RecoveryPolicy::Reschedule => "reschedule",
            RecoveryPolicy::Checkpoint { .. } => "checkpoint",
            RecoveryPolicy::AdaptiveCheckpoint { .. } => "adaptive-checkpoint",
            RecoveryPolicy::WarmSpare => "warm-spare",
        }
    }

    /// Table label including the checkpoint parameters, e.g.
    /// `ckpt τ=2.5 c=0.1` (τ = interval, c = per-checkpoint overhead) or
    /// `adapt τ*=3.2 c=0.1` (τ* = the derived Young/Daly interval).
    pub fn label(&self) -> String {
        match self {
            RecoveryPolicy::Checkpoint { interval, overhead } => {
                format!("ckpt τ={interval:.2} c={overhead:.2}")
            }
            RecoveryPolicy::AdaptiveCheckpoint { mttf, overhead } => {
                let tau = Self::young_daly_interval(*mttf, *overhead);
                format!("adapt τ*={tau:.2} c={overhead:.2}")
            }
            other => other.name().to_string(),
        }
    }
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A per-task checkpointing contract, returned by
/// [`Policy::checkpoint_plan`]: the task's computations write a
/// checkpoint after each `interval` units of work, paying `overhead` per
/// write (and one more to read on resume). The engine validates every
/// plan at construction: `interval` must be positive (`∞` allowed —
/// never writes) and `overhead` finite and non-negative.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPlan {
    /// Work units between consecutive checkpoint writes.
    pub interval: f64,
    /// Time cost of one checkpoint write or resume read.
    pub overhead: f64,
}

/// Instance-level facts about one task, handed to
/// [`Policy::checkpoint_plan`] before the run starts (the full
/// [`PolicyView`] does not exist yet at planning
/// time).
#[derive(Clone, Copy, Debug)]
pub struct TaskInfo<'a> {
    inst: &'a Instance,
    task: TaskId,
}

impl<'a> TaskInfo<'a> {
    pub(crate) fn new(inst: &'a Instance, task: TaskId) -> Self {
        TaskInfo { inst, task }
    }

    /// The task being planned.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The task's execution time averaged over the platform's processors
    /// (host assignment is not known at planning time).
    pub fn mean_exec_time(&self) -> f64 {
        let m = self.inst.num_procs();
        (0..m)
            .map(|p| self.inst.exec_time(self.task, ProcId::from_index(p)))
            .sum::<f64>()
            / m as f64
    }

    /// The instance-wide mean task cost (the scale knob the sweeps use).
    pub fn mean_task_cost(&self) -> f64 {
        self.inst.mean_task_cost()
    }
}

/// One availability event handed to [`Policy::on_crash`] /
/// [`Policy::on_rejoin`]: knowledge of the epoch-`epoch` crash (or
/// reboot) of `proc` reaching one more set of survivors at `time`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyEvent {
    /// The processor the event is about.
    pub proc: ProcId,
    /// The failure epoch the event belongs to (0 for a processor's first
    /// crash).
    pub epoch: usize,
    /// Wall-clock instant the knowledge lands (crash/reboot time plus
    /// detection latency).
    pub time: f64,
    /// True for the first knowledge event of this crash/reboot (the one
    /// that brings it into the coordinator view); false for later events
    /// that only widen the informed survivor set.
    pub first: bool,
}

/// A typed repair proposal a [`Policy`] returns to the engine. The
/// engine **validates** every action before applying it — the
/// survivor-knowledge rule (repair work and pre-staged data land only on
/// survivors that have detected every known crash) and epoch binding
/// (every materialized operation is bounded by its host's current-epoch
/// crash deadline) cannot be bypassed by a policy; invalid actions are
/// rejected and counted in
/// [`RunOutcome::rejected_actions`](crate::RunOutcome::rejected_actions),
/// never silently executed. See DESIGN.md §11 for the full contract and
/// the application order (defers, then spawns/resumes in topological
/// order, then replans, then pre-stages).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryAction {
    /// Spawn one replacement replica of the task **from scratch** on the
    /// best repair-eligible survivor, fed by the earliest surviving copy
    /// of each input (the `ReReplicate` spawn). Skipped silently if the
    /// task is already believed safe or a live pending replacement
    /// exists; marked deferred when survivors exist but none is
    /// repair-eligible yet.
    SpawnReplica(TaskId),
    /// Like [`SpawnReplica`](RecoveryAction::SpawnReplica), but resume
    /// from the task's newest completed checkpoint when one exists (one
    /// `overhead` to read, **no** input transfers, remaining fraction
    /// only); falls back to the exact from-scratch spawn otherwise.
    ResumeFromCheckpoint(TaskId),
    /// Cancel any previous repair plan and re-run CAFT on the
    /// not-yet-started sub-DAG over the repair-eligible survivors (the
    /// `Reschedule` replan; a knowledge-lagged event with live but
    /// uninformed survivors produces no plan and does not count one).
    Replan,
    /// Pre-stage the surviving inputs of `task` onto processor `on`:
    /// schedule one contention-free transfer per input edge from the
    /// earliest surviving copy (skipping inputs already present on
    /// `on`), so a later repair placed there finds its data local.
    /// Rejected when `on` is not repair-eligible (down, believed down,
    /// or knowledge-lagged); skipped silently when the task is already
    /// believed safe.
    PreStage {
        /// The broken task whose inputs are staged.
        task: TaskId,
        /// The processor that receives the data (typically a freshly
        /// rejoined one).
        on: ProcId,
    },
    /// Mark the task deferred: the engine rescans deferred tasks at
    /// every later knowledge event (the same retry list the engine uses
    /// when a spawn finds no repair-eligible survivor).
    Defer(TaskId),
}

/// An online recovery policy: the engine's open extension point.
///
/// Implementations are consulted at every availability event and answer
/// with [`RecoveryAction`]s pushed into the engine's reusable `actions`
/// buffer (cleared before each call). All hooks default to "do
/// nothing", so the empty `impl Policy for MyPolicy {}` is the `Absorb`
/// baseline — a property pinned by the `engine_invariants` suite (a
/// no-op custom policy is trace-identical to
/// [`RecoveryPolicy::Absorb`]).
///
/// The trait is object-safe: custom policies are passed as
/// `Arc<dyn Policy>` via
/// [`Simulation::policy_impl`](crate::Simulation::policy_impl) or as
/// `&dyn Policy` to [`ChunkedBatch`](crate::ChunkedBatch). Built-ins
/// ([`RecoveryPolicy`]) go through the **same** dispatch path — pinned
/// byte-for-byte against their pre-redesign behavior by
/// `tests/timed_model.rs`. See the module docs for a worked custom
/// policy.
pub trait Policy: Send + Sync {
    /// Short lowercase name for tables and reports.
    fn name(&self) -> &str {
        "custom"
    }

    /// Table label including any parameters (defaults to
    /// [`name`](Policy::name)).
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Called at every crash-knowledge event: the first detection of a
    /// crash, and again whenever knowledge of it reaches more survivors
    /// (a single event under uniform detection). Push repair proposals
    /// into `actions`.
    fn on_crash(
        &self,
        view: &crate::PolicyView<'_>,
        event: &PolicyEvent,
        actions: &mut Vec<RecoveryAction>,
    ) {
        let _ = (view, event, actions);
    }

    /// Called at every rejoin-knowledge event whose platform still has a
    /// broken task (events where every task is believed safe are
    /// absorbed engine-side — there is nothing to repair and nothing to
    /// pre-stage for).
    fn on_rejoin(
        &self,
        view: &crate::PolicyView<'_>,
        event: &PolicyEvent,
        actions: &mut Vec<RecoveryAction>,
    ) {
        let _ = (view, event, actions);
    }

    /// The task's checkpointing contract, asked **once per task** before
    /// a run starts; `None` (the default) disables checkpointing for
    /// the task. This is the hook that makes per-task Young/Daly
    /// intervals expressible — see
    /// [`RecoveryPolicy::AdaptiveCheckpoint`].
    ///
    /// Plans are amortized: batch entry points query this hook once per
    /// [`StaticPlan`](crate::StaticPlan) — i.e. once per `(instance,
    /// schedule, policy)`, not once per run — so the implementation must
    /// be a pure function of `task` (the built-ins are). A one-shot
    /// [`Simulation::run`](crate::Simulation::run) still queries once per
    /// call.
    fn checkpoint_plan(&self, task: &TaskInfo<'_>) -> Option<CheckpointPlan> {
        let _ = task;
        None
    }
}

impl Policy for RecoveryPolicy {
    fn name(&self) -> &str {
        RecoveryPolicy::name(self)
    }

    fn label(&self) -> String {
        RecoveryPolicy::label(self)
    }

    fn on_crash(
        &self,
        view: &crate::PolicyView<'_>,
        event: &PolicyEvent,
        actions: &mut Vec<RecoveryAction>,
    ) {
        match self {
            RecoveryPolicy::Absorb => {}
            RecoveryPolicy::ReReplicate | RecoveryPolicy::WarmSpare => {
                for t in view.crash_lost_tasks(event.proc) {
                    actions.push(RecoveryAction::SpawnReplica(t));
                }
            }
            RecoveryPolicy::Checkpoint { .. } | RecoveryPolicy::AdaptiveCheckpoint { .. } => {
                for t in view.crash_lost_tasks(event.proc) {
                    actions.push(RecoveryAction::ResumeFromCheckpoint(t));
                }
            }
            RecoveryPolicy::Reschedule => actions.push(RecoveryAction::Replan),
        }
    }

    fn on_rejoin(
        &self,
        view: &crate::PolicyView<'_>,
        event: &PolicyEvent,
        actions: &mut Vec<RecoveryAction>,
    ) {
        match self {
            RecoveryPolicy::Absorb => {}
            RecoveryPolicy::ReReplicate => {
                for t in view.lost_tasks() {
                    actions.push(RecoveryAction::SpawnReplica(t));
                }
            }
            RecoveryPolicy::WarmSpare => {
                for t in view.lost_tasks() {
                    actions.push(RecoveryAction::SpawnReplica(t));
                }
                // Whatever the spawns above could not fix starts its next
                // repair attempt from warm data on the rejoined host.
                for t in view.lost_tasks() {
                    actions.push(RecoveryAction::PreStage {
                        task: t,
                        on: event.proc,
                    });
                }
            }
            RecoveryPolicy::Checkpoint { .. } | RecoveryPolicy::AdaptiveCheckpoint { .. } => {
                for t in view.lost_tasks() {
                    actions.push(RecoveryAction::ResumeFromCheckpoint(t));
                }
            }
            RecoveryPolicy::Reschedule => actions.push(RecoveryAction::Replan),
        }
    }

    fn checkpoint_plan(&self, task: &TaskInfo<'_>) -> Option<CheckpointPlan> {
        match self {
            RecoveryPolicy::Checkpoint { interval, overhead } => Some(CheckpointPlan {
                interval: *interval,
                overhead: *overhead,
            }),
            RecoveryPolicy::AdaptiveCheckpoint { mttf, overhead } => {
                let interval = RecoveryPolicy::young_daly_interval(*mttf, *overhead);
                // A task no longer than its optimal interval would never
                // complete a checkpoint: opt out and skip the machinery.
                (task.mean_exec_time() > interval).then_some(CheckpointPlan {
                    interval,
                    overhead: *overhead,
                })
            }
            _ => None,
        }
    }
}

/// Configuration of one online execution.
///
/// Usually built through the [`Simulation`](crate::Simulation) front door
/// rather than by hand; the struct stays public so configs remain plain
/// serializable data. A non-serializable custom [`Policy`] is attached
/// per run via [`Simulation::policy_impl`](crate::Simulation::policy_impl),
/// in which case the `policy` field is ignored for dispatch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Recovery policy applied at each failure detection (the
    /// serializable built-in form; superseded by a custom [`Policy`]
    /// attached with
    /// [`Simulation::policy_impl`](crate::Simulation::policy_impl)).
    pub policy: RecoveryPolicy,
    /// When each survivor learns of a crash (uniform latency,
    /// per-processor delays, or gossip propagation — see
    /// [`DetectionModel`]).
    pub detection: DetectionModel,
    /// The run's **single** seed stream. Directly: tie-breaking of the
    /// repair runs inside `caft_on_subdag` (plan `k` uses
    /// `seed + k`). Through
    /// [`Simulation::monte_carlo`](crate::Simulation::monte_carlo): run
    /// `i` of a batch draws its
    /// fault scenario from the SplitMix-decorrelated stream `(seed, i)`.
    /// The legacy [`MonteCarloConfig`](crate::MonteCarloConfig) wrapper
    /// still carries a second seed field for byte-compatible replays of
    /// pre-builder experiments.
    pub seed: u64,
    /// Link sharing model for transfers (static traffic, repair inputs,
    /// checkpoint I/O, pre-staging). The default [`Contention::Ideal`] is
    /// the paper's contention-free network and keeps the engine
    /// byte-identical to its pre-contention behavior; configs serialized
    /// before this field existed deserialize to it.
    pub contention: Contention,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: RecoveryPolicy::Absorb,
            detection: DetectionModel::DEFAULT_UNIFORM,
            seed: 0,
            contention: Contention::Ideal,
        }
    }
}

impl EngineConfig {
    /// Convenience constructor with the given policy and defaults
    /// elsewhere.
    pub fn with_policy(policy: RecoveryPolicy) -> Self {
        EngineConfig {
            policy,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(RecoveryPolicy::Absorb.to_string(), "absorb");
        assert_eq!(RecoveryPolicy::ALL.len(), 4);
        assert_eq!(RecoveryPolicy::WarmSpare.to_string(), "warm-spare");
        assert_eq!(
            RecoveryPolicy::checkpoint(2.0, 0.5).to_string(),
            "checkpoint"
        );
        assert_eq!(
            RecoveryPolicy::checkpoint(2.0, 0.5).label(),
            "ckpt τ=2.00 c=0.50"
        );
        assert_eq!(RecoveryPolicy::Reschedule.label(), "reschedule");
        assert_eq!(
            RecoveryPolicy::adaptive_checkpoint(8.0, 0.25).to_string(),
            "adaptive-checkpoint"
        );
        // τ* = √(2 · 0.25 · 8) = 2.
        assert_eq!(
            RecoveryPolicy::adaptive_checkpoint(8.0, 0.25).label(),
            "adapt τ*=2.00 c=0.25"
        );
    }

    #[test]
    fn registry_covers_every_parameterless_builtin() {
        // The registry is the single roster the identity and sweep loops
        // iterate: every parameterless variant must be in it, exactly
        // once, and the parameterized ones must not.
        for p in RecoveryPolicy::ALL {
            assert_eq!(
                RecoveryPolicy::ALL.iter().filter(|&&q| q == p).count(),
                1,
                "{p} duplicated in the registry"
            );
            assert!(!matches!(
                p,
                RecoveryPolicy::Checkpoint { .. } | RecoveryPolicy::AdaptiveCheckpoint { .. }
            ));
        }
    }

    #[test]
    fn config_serializes() {
        let c = EngineConfig::with_policy(RecoveryPolicy::Reschedule);
        let json = serde_json::to_string(&c).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn detection_configs_serialize() {
        for detection in [
            DetectionModel::Uniform(0.5),
            DetectionModel::PerProcessor(vec![0.5, 1.0, 1.5]),
            DetectionModel::Gossip {
                period: 0.25,
                fanout: 2,
                seed: 5,
            },
        ] {
            let c = EngineConfig {
                policy: RecoveryPolicy::ReReplicate,
                detection,
                seed: 9,
                ..Default::default()
            };
            let json = serde_json::to_string(&c).unwrap();
            let back: EngineConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn checkpoint_config_serializes() {
        let c = EngineConfig::with_policy(RecoveryPolicy::checkpoint(3.5, 0.25));
        let json = serde_json::to_string(&c).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn new_builtins_serialize() {
        for policy in [
            RecoveryPolicy::adaptive_checkpoint(12.0, 0.1),
            RecoveryPolicy::WarmSpare,
        ] {
            let c = EngineConfig::with_policy(policy);
            let json = serde_json::to_string(&c).unwrap();
            let back: EngineConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn pre_redesign_serde_shape_is_stable() {
        // Pre-redesign configs must keep deserializing: the enum grew,
        // but the existing variants' wire shape is untouched.
        let legacy = r#"{"policy":{"Checkpoint":{"interval":2.0,"overhead":0.5}},"detection":{"Uniform":1.0},"seed":3}"#;
        let back: EngineConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.policy, RecoveryPolicy::checkpoint(2.0, 0.5));
        // No contention key in pre-PR configs → the Ideal (legacy) network.
        assert_eq!(back.contention, Contention::Ideal);
        let absorb = r#"{"policy":"Absorb","detection":{"Uniform":1.0},"seed":0}"#;
        let back: EngineConfig = serde_json::from_str(absorb).unwrap();
        assert_eq!(back.policy, RecoveryPolicy::Absorb);
        assert_eq!(back.contention, Contention::Ideal);
    }

    #[test]
    fn contended_config_serializes() {
        let c = EngineConfig {
            contention: Contention::FairShare,
            ..EngineConfig::with_policy(RecoveryPolicy::ReReplicate)
        };
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"contention\":\"FairShare\""), "{json}");
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert!(serde_json::from_str::<EngineConfig>(
            r#"{"policy":"Absorb","detection":{"Uniform":1.0},"seed":0,"contention":"warp-speed"}"#
        )
        .is_err());
    }

    #[test]
    fn young_daly_interval_matches_the_formula() {
        let tau = RecoveryPolicy::young_daly_interval(50.0, 0.04);
        assert!((tau - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_non_positive_interval() {
        RecoveryPolicy::checkpoint(0.0, 0.1);
    }

    #[test]
    #[should_panic]
    fn rejects_infinite_overhead() {
        RecoveryPolicy::checkpoint(1.0, f64::INFINITY);
    }

    #[test]
    #[should_panic]
    fn rejects_free_adaptive_checkpoints() {
        RecoveryPolicy::adaptive_checkpoint(10.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_infinite_adaptive_mttf() {
        RecoveryPolicy::adaptive_checkpoint(f64::INFINITY, 0.1);
    }
}
