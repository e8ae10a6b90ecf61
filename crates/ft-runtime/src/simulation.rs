//! The runtime's front door: a fluent [`Simulation`] builder.
//!
//! Configure a simulation of one `(instance, schedule)` pair, then drive
//! it: [`run`](Simulation::run) for one scenario,
//! [`run_observed`](Simulation::run_observed) to stream the run into an
//! [`Observer`], [`run_profiled`](Simulation::run_profiled) for a phase
//! profile, and [`monte_carlo`](Simulation::monte_carlo) for a streaming
//! batch. Warm loops over many scenarios use an
//! [`Executor`](crate::Executor); sweeps over many batches use
//! [`simulate_grid`](crate::simulate_grid).
//!
//! ## One seed stream
//!
//! The builder carries a **single** seed. Per run it derives every stream
//! the engine needs:
//!
//! * repair-plan tie-breaking (`Reschedule`'s `caft_on_subdag`) uses the
//!   seed directly (plan `k` of a run uses `seed + k`);
//! * in [`monte_carlo`](Simulation::monte_carlo), the fault scenario of
//!   run `i` is drawn from a SplitMix-decorrelated generator seeded by
//!   `(seed, i)` — the same derivation
//!   [`MonteCarloConfig::scenario_of_run`](crate::MonteCarloConfig::scenario_of_run)
//!   exposes for replaying one run of interest;
//! * a [`DetectionModel::Gossip`] carries its own seed so a detection
//!   model can be shared verbatim across configurations.
//!
//! # Example
//!
//! ```
//! use ft_runtime::{DetectionModel, LifetimeDist, RecoveryPolicy, Simulation};
//! use ft_algos::{caft, CommModel};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams, ProcId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! let sched = caft(&inst, 1, CommModel::OnePort, 7);
//!
//! let sim = Simulation::of(&inst, &sched)
//!     .policy(RecoveryPolicy::ReReplicate)
//!     .detection(DetectionModel::Gossip { period: 0.5, fanout: 2, seed: 7 })
//!     .seed(42);
//!
//! // One run against an explicit scenario…
//! let scenario = ft_sim::FaultScenario::timed(&[(ProcId(0), sched.latency() * 0.5)]);
//! let out = sim.run(&scenario);
//! assert!(out.completed());
//!
//! // …and a deterministic Monte-Carlo batch from the same front door.
//! let batch = sim.monte_carlo(200, LifetimeDist::Exponential { mean: 4.0 * sched.latency() });
//! assert_eq!(batch.runs, 200);
//! ```

use crate::batch::{ChunkedBatch, MonteCarloConfig};
use crate::detection::DetectionModel;
use crate::engine::run_once;
use crate::lifetime::{FailureKind, LifetimeDist};
use crate::metrics::{BatchSummary, RunOutcome};
use crate::observe::{Observer, PhaseProfile};
use crate::policy::{EngineConfig, Policy, RecoveryPolicy};
use ft_model::FtSchedule;
use ft_net::Contention;
use ft_platform::Instance;
use ft_sim::FaultScenario;
use std::sync::Arc;

/// A configured online simulation of one `(instance, schedule)` pair:
/// build it fluently, then [`run`](Simulation::run) single scenarios or
/// [`monte_carlo`](Simulation::monte_carlo) batches from it. The builder
/// is cheap to clone and immutable after construction, so one `Simulation`
/// can drive many runs.
#[derive(Clone)]
pub struct Simulation<'a> {
    inst: &'a Instance,
    sched: &'a FtSchedule,
    cfg: EngineConfig,
    failure: FailureKind,
    /// A custom [`Policy`] implementation superseding `cfg.policy` for
    /// dispatch (set by [`policy_impl`](Simulation::policy_impl)).
    custom: Option<Arc<dyn Policy>>,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("cfg", &self.cfg)
            .field("failure", &self.failure)
            .field("policy", &self.policy_label())
            .finish_non_exhaustive()
    }
}

impl<'a> Simulation<'a> {
    /// Starts a simulation of `sched` on `inst` with the defaults:
    /// [`RecoveryPolicy::Absorb`], uniform detection 1 time unit after
    /// each crash, seed 0.
    pub fn of(inst: &'a Instance, sched: &'a FtSchedule) -> Self {
        Simulation {
            inst,
            sched,
            cfg: EngineConfig::default(),
            failure: FailureKind::Permanent,
            custom: None,
        }
    }

    /// Sets the recovery policy applied at failure detections (a
    /// serializable built-in; clears any custom implementation set with
    /// [`policy_impl`](Simulation::policy_impl)).
    pub fn policy(mut self, policy: RecoveryPolicy) -> Self {
        self.cfg.policy = policy;
        self.custom = None;
        self
    }

    /// Sets a **custom** recovery policy: any [`Policy`] implementation,
    /// dispatched through the same action path as the built-ins (a
    /// built-in passed here behaves byte-for-byte like
    /// [`policy`](Simulation::policy) — pinned by `tests/timed_model.rs`).
    /// The serializable `config().policy` field keeps its previous value
    /// and no longer drives dispatch; batches report the custom policy's
    /// label. See the `ft_runtime::policy` module docs for a worked
    /// custom policy.
    pub fn policy_impl(mut self, policy: Arc<dyn Policy>) -> Self {
        self.custom = Some(policy);
        self
    }

    /// The label of the policy that actually dispatches:
    /// [`Policy::label`] of the custom implementation when one is set,
    /// the built-in's label otherwise.
    pub fn policy_label(&self) -> String {
        self.dispatch().label()
    }

    /// Sets the detection model (validated against the platform size when
    /// a run starts).
    pub fn detection(mut self, detection: DetectionModel) -> Self {
        self.cfg.detection = detection;
        self
    }

    /// Sets the simulation's single seed (see the module docs for the
    /// streams derived from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the link-contention model transfers are charged under
    /// ([`Contention::Ideal`] — the default — reproduces the historical
    /// contention-free engine byte-for-byte; pinned by
    /// `tests/timed_model.rs`).
    pub fn contention(mut self, contention: Contention) -> Self {
        self.cfg.contention = contention;
        self
    }

    /// Sets the failure kind the Monte-Carlo scenario draws use:
    /// [`FailureKind::Permanent`] (the default and the paper's fail-stop
    /// model) or [`FailureKind::Transient`] with a repair model, under
    /// which crashed processors reboot and may crash again. Explicit
    /// [`run`](Simulation::run) scenarios are unaffected — they carry
    /// their own repair windows.
    pub fn failure(mut self, failure: FailureKind) -> Self {
        self.failure = failure;
        self
    }

    /// The failure kind of this simulation's Monte-Carlo draws.
    pub fn failure_kind(&self) -> &FailureKind {
        &self.failure
    }

    /// The engine configuration this builder resolves to (serializable —
    /// log it next to results for reproducibility).
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The policy that actually dispatches: the custom implementation
    /// when one is set, the built-in otherwise.
    fn dispatch(&self) -> &dyn Policy {
        match &self.custom {
            Some(p) => p.as_ref(),
            None => &self.cfg.policy,
        }
    }

    /// One pooled one-shot run under this builder's configuration.
    fn once(
        &self,
        scenario: &FaultScenario,
        observer: Option<&mut dyn Observer>,
        profile: Option<&mut PhaseProfile>,
    ) -> RunOutcome {
        let policy = self.dispatch();
        run_once(
            self.inst, self.sched, scenario, &self.cfg, policy, observer, profile,
        )
    }

    /// Executes the schedule once against an explicit timed scenario.
    pub fn run(&self, scenario: &FaultScenario) -> RunOutcome {
        self.once(scenario, None, None)
    }

    /// [`run`](Simulation::run) with a streaming [`Observer`] attached:
    /// the engine pushes every event, op and the outcome into `observer`
    /// (see [`Observer`] for the ordering contract). The outcome is
    /// byte-identical to the unobserved run — observers listen, they
    /// never steer (pinned by `tests/timed_model.rs`).
    pub fn run_observed(
        &self,
        scenario: &FaultScenario,
        observer: &mut dyn Observer,
    ) -> RunOutcome {
        self.once(scenario, Some(observer), None)
    }

    /// [`run`](Simulation::run), additionally collecting a
    /// [`PhaseProfile`]: wall-clock attribution across the run's op-graph
    /// build and the engine's hot-loop phases. The outcome is
    /// byte-identical to the unprofiled run.
    pub fn run_profiled(&self, scenario: &FaultScenario) -> (RunOutcome, PhaseProfile) {
        let mut profile = PhaseProfile::new();
        let out = self.once(scenario, None, Some(&mut profile));
        (out, profile)
    }

    /// Runs a deterministic Monte-Carlo batch: `runs` independent
    /// scenarios drawn from `lifetime` (run `i` from the `(seed, i)`
    /// stream), aggregated by the streaming
    /// [`BatchAccumulator`](crate::BatchAccumulator) — O(threads) memory
    /// and a byte-identical [`BatchSummary`] regardless of thread count.
    /// With a custom policy attached, the summary's serializable `policy`
    /// field keeps `config().policy` while its label names the policy
    /// that ran. A caller that wants progress while a long batch runs
    /// paces a [`ChunkedBatch`] over the same configuration instead.
    pub fn monte_carlo(&self, runs: usize, lifetime: LifetimeDist) -> BatchSummary {
        let cfg = MonteCarloConfig {
            runs,
            lifetime,
            failure: self.failure.clone(),
            engine: self.cfg.clone(),
            seed: self.cfg.seed,
        };
        ChunkedBatch::new(self.inst, self.sched, &cfg, self.dispatch()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_algos::{caft, CommModel};
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_platform::{random_instance, PlatformParams, ProcId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Instance, FtSchedule) {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
        let inst = random_instance(g, &PlatformParams::default().with_procs(6), 1.0, &mut rng);
        let sched = caft(&inst, 1, CommModel::OnePort, 0);
        (inst, sched)
    }

    #[test]
    fn builder_run_equals_warm_executor() {
        let (inst, sched) = setup();
        let scenario = FaultScenario::timed(&[(ProcId(1), sched.latency() * 0.4)]);
        let sim = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::ReReplicate)
            .detection(DetectionModel::uniform(0.5))
            .seed(11);
        let via_builder = sim.run(&scenario);
        let mut exec = crate::Executor::new(&inst, &sched, sim.config());
        assert_eq!(
            serde_json::to_string(&via_builder).unwrap(),
            serde_json::to_string(exec.run(&scenario)).unwrap()
        );
    }

    #[test]
    fn builder_monte_carlo_equals_simulate_many_with_unified_seed() {
        let (inst, sched) = setup();
        let sim = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::Reschedule)
            .seed(21);
        let batch = sim.monte_carlo(
            64,
            LifetimeDist::Exponential {
                mean: sched.latency() * 2.0,
            },
        );
        let positional = crate::simulate_many(
            &inst,
            &sched,
            &MonteCarloConfig {
                runs: 64,
                lifetime: LifetimeDist::Exponential {
                    mean: sched.latency() * 2.0,
                },
                failure: FailureKind::Permanent,
                engine: sim.config().clone(),
                seed: 21,
            },
        );
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&positional).unwrap()
        );
    }

    #[test]
    fn builder_config_serializes() {
        // The builder-produced config round-trips like the hand-written
        // ones in policy.rs.
        let (inst, sched) = setup();
        let sim = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::checkpoint(2.0, 0.1))
            .detection(DetectionModel::PerProcessor(vec![0.5; 6]))
            .seed(3);
        let json = serde_json::to_string(sim.config()).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, sim.config());
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let (inst, sched) = setup();
        let scenario = FaultScenario::timed(&[(ProcId(2), sched.latency() * 0.3)]);
        let sim = Simulation::of(&inst, &sched)
            .policy(RecoveryPolicy::ReReplicate)
            .detection(DetectionModel::uniform(0.5))
            .seed(4);
        let mut tracer = crate::TraceObserver::new();
        let observed = sim.run_observed(&scenario, &mut tracer);
        let plain = sim.run(&scenario);
        assert_eq!(
            serde_json::to_string(&observed).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
        let trace = tracer.into_trace();
        assert!(!trace.ops.is_empty() && !trace.events.is_empty());
    }

    #[test]
    fn profiled_run_matches_plain_run() {
        let (inst, sched) = setup();
        let scenario = FaultScenario::timed(&[(ProcId(0), sched.latency() * 0.5)]);
        let sim = Simulation::of(&inst, &sched).policy(RecoveryPolicy::Reschedule);
        let (out, profile) = sim.run_profiled(&scenario);
        let plain = sim.run(&scenario);
        assert_eq!(
            serde_json::to_string(&out).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "profiling must not steer the engine"
        );
        // A run this size must attribute some time somewhere, and it
        // builds its op graph exactly once.
        assert!(profile.phases.iter().any(|s| s.calls > 0));
        assert_eq!(profile.stat(crate::Phase::OpBuild).calls, 1);
    }

    #[test]
    fn defaults_are_the_documented_ones() {
        let (inst, sched) = setup();
        let sim = Simulation::of(&inst, &sched);
        assert_eq!(sim.config(), &EngineConfig::default());
        assert_eq!(sim.config().policy.name(), "absorb");
        assert_eq!(sim.config().detection.name(), "uniform");
    }
}
