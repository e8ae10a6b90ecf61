//! # ft-experiments — regenerating the paper's evaluation
//!
//! §6 of the paper evaluates CAFT against (one-port adaptations of) FTSA
//! and FTBAR on random graphs: 60 graphs per data point, tasks uniform in
//! `[80, 120]`, per-task degree in `[1, 3]`, unit link delays in
//! `[0.5, 1]`, message volumes in `[50, 150]`, granularity swept either
//! over `[0.2, 2.0]` (type A) or `[1, 10]` (type B). Three platform
//! settings: `m = 10, ε = 1`, `m = 10, ε = 3`, `m = 20, ε = 5`; crash
//! experiments kill 1, 2 and 3 processors respectively.
//!
//! Each figure has three panels:
//! * **(a)** normalized latency of the fault-free schedules, the
//!   fault-tolerant schedules with 0 crash, and their upper bounds;
//! * **(b)** normalized latency with 0 crash vs. with crashes;
//! * **(c)** average fault-tolerance overhead (%), using the paper's
//!   formula `(L_x − CAFT*) / CAFT*` where `CAFT*` is the fault-free CAFT
//!   (= HEFT) latency.
//!
//! [`run_figure`] computes every series of one figure;
//! [`figures::figure_configs`] lists the six paper configurations;
//! [`grid::run_grid`] sweeps the whole cross product in one call with
//! the ε-independent setup shared per platform size, and
//! [`validate`] evaluates the committed per-family claim records
//! (`validation/VALIDATION_*.json`) over it — the CI science gate. Three
//! additional experiments go beyond the figures:
//! [`messages::run_messages`] (Proposition 5.1 message counts),
//! [`resilience_exp::run_resilience`] (Proposition 5.2, strict vs fail-over
//! replay), and [`degradation::run_degradation`] (the online-runtime
//! degradation-vs-failure-rate sweep over `ft-runtime`'s recovery
//! policies).
//!
//! [`cli`] is the command-line reader of `paper-figures`, `ft-serve`
//! and the examples.
//!
//! Everything is deterministic: each data point derives its RNG seed from
//! `(figure seed, point index, graph index)`.

#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod degradation;
pub mod figures;
pub mod grid;
pub mod messages;
pub mod resilience_exp;
pub mod runner;
pub mod stats;
pub mod storm;
pub mod sweep;
pub mod table;
pub mod validate;

pub use config::FigureConfig;
pub use degradation::{
    render_degradation, run_degradation, DegradationConfig, DegradationRow, DetectionKind,
};
pub use grid::{render_isoclines, run_grid, GridConfig, GridResult, PlatformSetting};
pub use runner::{run_figure, FigureResult, PointResult};
pub use stats::Accumulator;
pub use storm::{ranking_flips, render_storm, run_storm, StormConfig, StormRow};
pub use sweep::{CellSpec, SweepGrid, WorkloadSpec};
pub use validate::{validate_family, Claim, FamilyValidation, FAMILIES};
