//! Streaming observability: per-event engine observers and phase profiling.
//!
//! An [`Observer`] attached with
//! [`Simulation::run_observed`](crate::Simulation::run_observed) receives
//! every processed event ([`Observer::on_event`]), every materialized
//! operation ([`Observer::on_op`]) and the final outcome
//! ([`Observer::on_run_end`]) as they happen, so consumers can aggregate,
//! filter or export at Monte-Carlo scale without buffering whole traces.
//!
//! Two built-in observers cover the common cases: [`NoopObserver`] (costs
//! one predictable branch per event) and [`TraceObserver`], which buffers
//! the run into an [`EngineTrace`]. The `ft-obs` crate adds a `JsonlSink`
//! observer that streams structured JSONL records for offline analysis.
//!
//! # Determinism
//!
//! Observers run synchronously inside the event loop and receive events in
//! the engine's deterministic processing order, so an observer that is
//! itself deterministic yields bit-identical output across repeated runs.
//! Observers cannot influence the run: the engine hands out shared
//! references and never reads anything back.
//!
//! # Phase profiling
//!
//! [`PhaseProfile`] aggregates per-[`Phase`] wall-clock timers over a
//! run: its op-graph build and the phases of the engine's hot loop. The
//! timers run only when a profile is attached by
//! [`Simulation::run_profiled`](crate::Simulation::run_profiled); every
//! other run pays one `Option` check per phase.

use crate::engine::{EngineTrace, OpTrace, TraceEvent};
use crate::metrics::RunOutcome;
use serde::{Deserialize, Serialize};

/// A streaming consumer of engine activity.
///
/// All hooks have empty default bodies, so an observer only implements the
/// streams it cares about.  Hooks are invoked synchronously from the event
/// loop in deterministic engine order:
///
/// 1. [`on_event`](Observer::on_event) once per processed event, in
///    processing (heap pop) order — the `EngineTrace::events` sequence;
/// 2. [`on_op`](Observer::on_op) once per materialized operation after the
///    loop drains, in op creation order — the `EngineTrace::ops` sequence;
/// 3. [`on_run_end`](Observer::on_run_end) exactly once with the final
///    [`RunOutcome`].
pub trait Observer {
    /// Called for every event the engine processes (completions,
    /// detections, rejoins), in processing order.
    fn on_event(&mut self, event: &TraceEvent) {
        let _ = event;
    }

    /// Called for every operation the engine materialized, in creation
    /// order, after the event loop has drained.
    fn on_op(&mut self, op: &OpTrace) {
        let _ = op;
    }

    /// Called once with the run's final outcome.
    fn on_run_end(&mut self, outcome: &RunOutcome) {
        let _ = outcome;
    }
}

/// The do-nothing observer: every hook keeps its empty default body.
///
/// Attaching it costs one predictable branch per event over the untraced
/// fast path, and the produced [`RunOutcome`] is byte-identical to the
/// unobserved run (pinned by `tests/timed_model.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// An observer that buffers the full run into an [`EngineTrace`]: every
/// operation the engine materialized (static, ghost-failed and recovery
/// alike) and the event log in processing order. Intended for audits and
/// invariant suites (`tests/engine_invariants.rs`); it costs one
/// allocation per op, so prefer an unobserved run in hot loops.
#[derive(Clone, Debug, Default)]
pub struct TraceObserver {
    ops: Vec<OpTrace>,
    events: Vec<TraceEvent>,
}

impl TraceObserver {
    /// An empty trace buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the buffered streams into an [`EngineTrace`].
    pub fn into_trace(self) -> EngineTrace {
        EngineTrace {
            ops: self.ops,
            events: self.events,
        }
    }
}

impl Observer for TraceObserver {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }

    fn on_op(&mut self, op: &OpTrace) {
        self.ops.push(op.clone());
    }
}

/// The instrumented phases of a run.
///
/// The phases are disjoint slices of the run, chosen to answer "where
/// does the no-failure overhead go": building the op graph, then in the
/// hot loop heap traffic, completion cascades, crash/rejoin bookkeeping,
/// the policy itself, validating what the policy asked for, and
/// materializing the repairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Building the run's static op graph before the loop starts: the
    /// clone of a warm plan's template or the full build.
    OpBuild,
    /// Popping the next event off the central binary heap.
    QueuePop,
    /// Completion handling: marking the op done and draining the
    /// ready-successor cascade (including ghost pass-through).
    Completion,
    /// Detection/rejoin fan-out: belief updates, epoch bookkeeping and
    /// liveness scans before any policy runs.
    DetectionFanout,
    /// The recovery policy's own decision callback.
    PolicyDispatch,
    /// Validating proposed [`crate::RecoveryAction`]s against engine
    /// invariants (dedup, liveness, sanity).
    ActionValidation,
    /// Materializing accepted actions: spawning recovery replicas,
    /// rescheduling sub-DAGs and pre-staging transfers.
    SpawnReplan,
}

impl Phase {
    /// Every phase, in run order.
    pub const ALL: [Phase; 7] = [
        Phase::OpBuild,
        Phase::QueuePop,
        Phase::Completion,
        Phase::DetectionFanout,
        Phase::PolicyDispatch,
        Phase::ActionValidation,
        Phase::SpawnReplan,
    ];

    /// Stable lower-snake name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::OpBuild => "op_build",
            Phase::QueuePop => "queue_pop",
            Phase::Completion => "completion",
            Phase::DetectionFanout => "detection_fanout",
            Phase::PolicyDispatch => "policy_dispatch",
            Phase::ActionValidation => "action_validation",
            Phase::SpawnReplan => "spawn_replan",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated wall-clock attribution for one [`Phase`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// The phase's stable name (see [`Phase::name`]).
    pub phase: String,
    /// Number of timed invocations of the phase.
    pub calls: u64,
    /// Total wall-clock nanoseconds spent in the phase.
    pub nanos: u64,
}

/// Wall-clock attribution of an engine run across [`Phase`]s.
///
/// Collected by
/// [`Simulation::run_profiled`](crate::Simulation::run_profiled).
/// Serializes to the JSON exported by `ft-bench`'s profile case and the
/// `BENCH_phases.json` baseline.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// One aggregate per phase, in hot-loop order.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    /// An all-zero profile covering every phase.
    pub fn new() -> Self {
        PhaseProfile {
            phases: Phase::ALL
                .iter()
                .map(|p| PhaseStat {
                    phase: p.name().to_string(),
                    calls: 0,
                    nanos: 0,
                })
                .collect(),
        }
    }

    /// Adds one timed invocation of `phase`.
    pub fn record(&mut self, phase: Phase, elapsed: std::time::Duration) {
        let stat = &mut self.phases[phase.index()];
        stat.calls += 1;
        stat.nanos += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    }

    /// Total wall-clock nanoseconds attributed across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|s| s.nanos).sum()
    }

    /// The aggregate for `phase`.
    pub fn stat(&self, phase: Phase) -> &PhaseStat {
        &self.phases[phase.index()]
    }

    /// Folds another profile into this one (phase-wise sums).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            debug_assert_eq!(mine.phase, theirs.phase);
            mine.calls += theirs.calls;
            mine.nanos += theirs.nanos;
        }
    }
}

impl Default for PhaseProfile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_profile_records_and_merges() {
        let mut a = PhaseProfile::new();
        assert_eq!(a.phases.len(), Phase::ALL.len());
        assert_eq!(a.total_nanos(), 0);
        a.record(Phase::QueuePop, std::time::Duration::from_nanos(10));
        a.record(Phase::QueuePop, std::time::Duration::from_nanos(5));
        a.record(Phase::PolicyDispatch, std::time::Duration::from_nanos(7));
        let mut b = PhaseProfile::new();
        b.record(Phase::QueuePop, std::time::Duration::from_nanos(1));
        b.merge(&a);
        assert_eq!(b.stat(Phase::QueuePop).calls, 3);
        assert_eq!(b.stat(Phase::QueuePop).nanos, 16);
        assert_eq!(b.stat(Phase::PolicyDispatch).nanos, 7);
        assert_eq!(b.total_nanos(), 23);
    }

    #[test]
    fn phase_profile_serde_round_trips() {
        let mut p = PhaseProfile::new();
        p.record(Phase::SpawnReplan, std::time::Duration::from_nanos(42));
        let json = serde_json::to_string(&p).unwrap();
        let back: PhaseProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "op_build",
                "queue_pop",
                "completion",
                "detection_fanout",
                "policy_dispatch",
                "action_validation",
                "spawn_replan"
            ]
        );
    }
}
