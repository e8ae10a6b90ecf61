//! # ftsched — fault-tolerant, contention-aware DAG scheduling
//!
//! Umbrella crate re-exporting the full stack of the reproduction of
//! Benoit, Hakem & Robert, *"Realistic Models and Efficient Algorithms for
//! Fault Tolerant Scheduling on Heterogeneous Platforms"* (INRIA RR-6606 /
//! ICPP 2008):
//!
//! * [`graph`] — weighted task DAGs, analyses, workload generators;
//! * [`platform`] — heterogeneous processors, links, topologies;
//! * [`model`] — macro-dataflow and bi-directional one-port communication
//!   models, schedules, validation;
//! * [`algos`] — HEFT, FTSA, FTBAR and CAFT (plus incremental sub-DAG
//!   rescheduling for online recovery);
//! * [`sim`] — crash scenarios, schedule replay, latency bounds,
//!   resilience verification;
//! * [`net`] — deterministic link-contention model: per-link bandwidth
//!   occupancy over the platform topology, charged against every
//!   transfer the engine schedules;
//! * [`runtime`] — the online failure-injection engine: stochastically
//!   timed crashes, detection latency, recovery policies, Monte-Carlo
//!   batches;
//! * [`obs`] — observability exports: streaming JSONL trace sinks over
//!   the engine's [`Observer`](ft_runtime::Observer) layer;
//! * [`experiments`] — the harness regenerating every figure of the paper;
//! * [`serve`] — the engine as a persistent multi-tenant service:
//!   file-based job queue, warm artifact caches, streaming result deltas.
//!
//! ## Quickstart
//!
//! ```
//! use ftsched::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A random 100-task workload on 10 heterogeneous processors.
//! let mut rng = StdRng::seed_from_u64(42);
//! let graph = random_layered(&RandomDagParams::default(), &mut rng);
//! let inst = random_instance(graph, &PlatformParams::default(), 1.0, &mut rng);
//!
//! // Schedule with CAFT, tolerating ε = 1 failure under the one-port model.
//! let sched = caft(&inst, 1, CommModel::OnePort, 42);
//! assert!(validate_schedule(&inst, &sched).is_empty());
//!
//! // The schedule survives any single processor crash.
//! let outcome = replay(&inst, &sched, &FaultScenario::none());
//! assert!(outcome.completed());
//! ```

#![warn(missing_docs)]

pub use ft_algos as algos;
pub use ft_experiments as experiments;
pub use ft_graph as graph;
pub use ft_model as model;
pub use ft_net as net;
pub use ft_obs as obs;
pub use ft_platform as platform;
pub use ft_runtime as runtime;
pub use ft_serve as serve;
pub use ft_sim as sim;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use ft_algos::{
        caft, caft_hardened, caft_on_subdag, caft_windowed, ftbar, ftsa, heft, CaftOptions,
        FtbarOptions, FtsaOptions, SubDagOutcome, SubDagSpec, WindowedOptions,
    };
    pub use ft_graph::gen::{
        chain, cholesky, fft, fork, fork_join, gaussian_elimination, join, random_layered,
        random_outforest, reduction_tree, stencil_2d, RandomDagParams,
    };
    pub use ft_graph::{GraphBuilder, TaskGraph, TaskId};
    pub use ft_model::{schedule_stats, validate_schedule, CommModel, FtSchedule, ScheduleStats};
    pub use ft_obs::JsonlSink;
    pub use ft_platform::{
        random_instance, random_platform, ExecMatrix, Instance, Platform, PlatformParams, ProcId,
        Topology,
    };
    pub use ft_runtime::prelude::*;
    pub use ft_serve::{ArtifactCache, Daemon, JobQueue, JobSpec};
    pub use ft_sim::{replay, FaultScenario, ReplayOutcome, ReplayPolicy};
}
