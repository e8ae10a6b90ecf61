//! # ft-runtime — online failure injection, detection and recovery
//!
//! The static stack (ft-algos + ft-sim) answers "does this ε-resilient
//! schedule survive an adversarial set of processors dead from t = 0?".
//! This crate answers the *temporal* question the paper's fail-stop model
//! (§1–§2) actually poses: processors crash **during** execution, failures
//! are *detected* after a latency, and the runtime may *react*.
//!
//! * [`Simulation`] — the front door:
//!   `Simulation::of(&inst, &sched).policy(…).detection(…).seed(…)` with
//!   [`run`](Simulation::run) for one scenario (plus its
//!   [`run_observed`](Simulation::run_observed) and
//!   [`run_profiled`](Simulation::run_profiled) forms) and
//!   [`monte_carlo`](Simulation::monte_carlo) for streaming batches;
//!   [`Executor`] is the warm per-scenario loop and [`simulate_grid`] the
//!   warm multi-cell sweep;
//! * [`LifetimeDist`] — exponential / Weibull / trace lifetimes, drawn into
//!   timed [`FaultScenario`](ft_sim::FaultScenario)s ([`draw_scenario`]) —
//!   permanently fail-stop, or transient ([`FailureKind`], [`RepairModel`],
//!   [`draw_scenario_with`]): crashed processors reboot after a repair
//!   time, rejoin knowledge spreads through the [`DetectionModel`], and
//!   rejoined processors are re-enlisted by every recovery policy (the
//!   availability machine Up → Down → Rejoined; DESIGN.md §6);
//! * [`engine`] — the discrete-event online engine: replays the static
//!   schedule's inherited orders (first-surviving-copy input policy, as in
//!   `ft_sim::replay`), kills work at crash times, and repairs at
//!   detections;
//! * [`DetectionModel`] — when each survivor learns of a crash:
//!   [`Uniform`](DetectionModel::Uniform) latency (the historical knob),
//!   [`PerProcessor`](DetectionModel::PerProcessor) delays, or seeded
//!   [`Gossip`](DetectionModel::Gossip) rounds; repair work is placed
//!   only on survivors that have already detected every known crash;
//! * [`Policy`] — the **open** recovery layer: an object-safe trait
//!   consulted at every availability event with a read-only
//!   [`PolicyView`], answering with typed [`RecoveryAction`]s the engine
//!   validates and applies (DESIGN.md §11; custom implementations attach
//!   via [`Simulation::policy_impl`]);
//! * [`RecoveryPolicy`] — the serializable built-ins implementing the
//!   trait: [`Absorb`](RecoveryPolicy::Absorb) (paper baseline: static
//!   replicas only), [`ReReplicate`](RecoveryPolicy::ReReplicate) (eager
//!   replacement copies), [`Reschedule`](RecoveryPolicy::Reschedule)
//!   (CAFT repair plan on the not-yet-started sub-DAG via
//!   [`ft_algos::caft_on_subdag`]),
//!   [`Checkpoint`](RecoveryPolicy::Checkpoint) (periodic checkpoint
//!   writes; replacements *resume* from the last completed checkpoint
//!   instead of recomputing — see DESIGN.md §5),
//!   [`AdaptiveCheckpoint`](RecoveryPolicy::AdaptiveCheckpoint)
//!   (per-task Young/Daly intervals derived from the lifetime hazard
//!   rate) and [`WarmSpare`](RecoveryPolicy::WarmSpare) (re-replication
//!   that pre-stages inputs of broken tasks onto rejoined processors);
//! * [`ChunkedBatch`] — the one batch loop: a rayon-parallel Monte-Carlo
//!   batch run in caller-paced chunks and streamed through a mergeable
//!   [`BatchAccumulator`] (O(threads) memory, byte-identical
//!   [`BatchSummary`] at any thread count or chunking).
//!   [`simulate_many`] and [`Simulation::monte_carlo`] run one to its
//!   end; [`GridBatch`] opens the cells of a sweep as chunked batches
//!   that share one arena pool and one [`StaticPlan`] per distinct
//!   checkpoint table, dropped after that table's last cell
//!   ([`simulate_grid`] and the `ft-serve` daemon);
//! * [`Observer`] — streaming observability (DESIGN.md §12): the engine
//!   pushes every event, op and outcome into the observer attached with
//!   [`Simulation::run_observed`]; a [`TraceObserver`] buffers the run
//!   into an [`EngineTrace`] (the substrate of the
//!   `tests/engine_invariants.rs` property suite), and batches carry
//!   exact mergeable [`MetricSet`] histograms on
//!   [`BatchSummary::metrics`];
//! * [`PhaseProfile`] — wall-clock attribution of the engine's hot-loop
//!   phases ([`Simulation::run_profiled`]);
//! * [`report`] — one run against the §6 latency bounds.
//!
//! ## Consistency with the static stack
//!
//! Four pinned properties tie the online engine to the replay semantics
//! and anchor the checkpoint and availability models (enforced by the
//! `timed_model` integration tests):
//!
//! * crash times at or beyond the schedule's makespan reproduce the
//!   no-failure static replay **exactly** (and, for
//!   [`Checkpoint`](RecoveryPolicy::Checkpoint), whenever the
//!   per-checkpoint overhead is 0);
//! * crash time 0 under [`RecoveryPolicy::Absorb`] reproduces the
//!   adversarial [`FaultScenario::procs`](ft_sim::FaultScenario::procs)
//!   strict replay **exactly**;
//! * [`Checkpoint`](RecoveryPolicy::Checkpoint) with `interval = ∞`
//!   reproduces [`ReReplicate`](RecoveryPolicy::ReReplicate) **exactly**
//!   — no checkpoint is ever written, so nothing is paid and nothing can
//!   be resumed;
//! * a transient scenario whose every repair is `∞` reproduces the
//!   permanent-crash engine **exactly** (the availability identity) —
//!   the reboot machine only ever acts through finite repair windows.
//!
//! ## Example
//!
//! ```
//! use ft_runtime::prelude::*;
//! use ft_algos::{caft, CommModel};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! let sched = caft(&inst, 1, CommModel::OnePort, 0);
//!
//! // One mid-execution crash, detected 1 time-unit later, repaired by
//! // rescheduling the remaining sub-DAG.
//! let scenario = ft_sim::FaultScenario::timed(&[(ft_platform::ProcId(0), sched.latency() / 2.0)]);
//! let out = Simulation::of(&inst, &sched)
//!     .policy(RecoveryPolicy::Reschedule)
//!     .detection(DetectionModel::uniform(1.0))
//!     .run(&scenario);
//! assert!(out.completed());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod batch;
pub mod detection;
pub mod engine;
pub mod lifetime;
pub mod metrics;
pub mod observe;
pub mod policy;
pub mod scratch;
pub mod simulation;

pub use batch::{
    simulate_grid, simulate_many, BatchAccumulator, ChunkedBatch, ExactSum, GridBatch,
    MonteCarloConfig,
};
pub use detection::DetectionModel;
pub use engine::{EngineTrace, OpTrace, PolicyView, TraceEvent, TraceEventKind};
pub use lifetime::{draw_scenario, draw_scenario_with, FailureKind, LifetimeDist, RepairModel};
pub use metrics::{report, BatchSummary, Histogram, MetricSet, RunOutcome, RunReport};
pub use observe::{NoopObserver, Observer, Phase, PhaseProfile, PhaseStat, TraceObserver};
pub use policy::{
    CheckpointPlan, EngineConfig, Policy, PolicyEvent, RecoveryAction, RecoveryPolicy, TaskInfo,
};
pub use scratch::{EngineScratch, Executor, ScratchPool, StaticPlan};
pub use simulation::Simulation;

/// Re-exported from [`ft_net`]: the link-contention model transfers are
/// charged under (see [`EngineConfig::contention`]).
#[doc(no_inline)]
pub use ft_net::{Contention, NetworkModel, NetworkState};

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use crate::{
        draw_scenario, draw_scenario_with, report, simulate_grid, simulate_many, BatchAccumulator,
        BatchSummary, CheckpointPlan, ChunkedBatch, Contention, DetectionModel, EngineConfig,
        EngineScratch, EngineTrace, Executor, FailureKind, GridBatch, Histogram, LifetimeDist,
        MetricSet, MonteCarloConfig, NoopObserver, Observer, Phase, PhaseProfile, PhaseStat,
        Policy, PolicyEvent, PolicyView, RecoveryAction, RecoveryPolicy, RepairModel, RunOutcome,
        RunReport, ScratchPool, Simulation, StaticPlan, TaskInfo, TraceEvent, TraceEventKind,
        TraceObserver,
    };
}
