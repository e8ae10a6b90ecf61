//! # ft-graph — weighted task-DAG substrate
//!
//! This crate implements the application model of Benoit, Hakem and Robert,
//! *"Realistic Models and Efficient Algorithms for Fault Tolerant Scheduling
//! on Heterogeneous Platforms"* (INRIA RR-6606, 2008): a weighted Directed
//! Acyclic Graph `G = (V, E)` where nodes are tasks carrying an abstract
//! amount of work and edges carry the volume of data communicated between
//! tasks in precedence.
//!
//! Provided here:
//!
//! * [`TaskGraph`] — the DAG itself, with O(1) access to predecessor /
//!   successor edge lists (`Γ−(t)` / `Γ+(t)` in the paper's notation);
//! * [`GraphBuilder`] — incremental construction with cycle detection;
//! * structural analyses: topological orders ([`topo`]), longest-path
//!   levels ([`levels`]) — the bottom levels CAFT ranks tasks by — and
//!   the exact DAG width `ω` of the paper's complexity bounds via
//!   Dilworth's theorem ([`width()`](width::width));
//! * the granularity measure `g(G, P)` of the paper ([`granularity`]);
//! * random and structured workload generators matching the paper's
//!   experimental section ([`gen`]).
//!
//! The crate is deliberately free of any platform notion: execution times
//! `E(t, P)` and communication delays live in `ft-platform`. Analyses that
//! need weights take closures, so the same machinery serves both abstract
//! work units and concrete (platform-averaged) costs.

#![warn(missing_docs)]

pub mod gen;
pub mod granularity;
pub mod graph;
pub mod ids;
pub mod levels;
pub mod topo;
pub mod width;

pub use graph::{Edge, GraphBuilder, GraphError, TaskGraph};
pub use ids::{EdgeId, TaskId};
pub use levels::{bottom_levels, top_levels, Levels};
pub use topo::{reverse_topological_order, topological_order};
pub use width::width;
