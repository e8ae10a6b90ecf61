//! Granularity `g(G, P)` — the paper's compute-to-communication ratio.
//!
//! §2 of the paper defines the granularity of a graph on a platform as
//!
//! > "the ratio of the sum of slowest computation times of each task, to the
//! > sum of slowest communication times along each edge."
//!
//! `g ≥ 1` means the DAG is *coarse grain* (computation dominates), `g < 1`
//! *fine grain*. The experiment sweeps (Figures 1–6) are parameterized by
//! this quantity: the generators scale edge volumes so the realized
//! granularity matches the sweep value exactly.
//!
//! This module is platform-agnostic: the slowest computation time of a task
//! and the slowest communication time of an edge are supplied as closures
//! (`ft-platform` provides the concrete ones).

use crate::graph::TaskGraph;
use crate::ids::{EdgeId, TaskId};

/// Computes `g(G, P)` given the slowest computation time per task and the
/// slowest communication time per edge.
///
/// Returns `f64::INFINITY` for graphs without edges (pure computation) and
/// `0.0` for an empty graph.
pub fn granularity<C, W>(g: &TaskGraph, slowest_comp: C, slowest_comm: W) -> f64
where
    C: Fn(TaskId) -> f64,
    W: Fn(EdgeId) -> f64,
{
    if g.num_tasks() == 0 {
        return 0.0;
    }
    let comp: f64 = g.tasks().map(slowest_comp).sum();
    let comm: f64 = g.edge_ids().map(slowest_comm).sum();
    if comm == 0.0 {
        f64::INFINITY
    } else {
        comp / comm
    }
}

/// The volume-scaling factor that makes the realized granularity equal to
/// `target`: multiplying every edge volume by the returned factor yields
/// `g(G, P) = target` (communication times are linear in volume).
///
/// Returns `None` when the graph has no edges or zero total communication
/// (granularity cannot be controlled).
pub fn volume_scale_for_target<C, W>(
    g: &TaskGraph,
    slowest_comp: C,
    slowest_comm: W,
    target: f64,
) -> Option<f64>
where
    C: Fn(TaskId) -> f64,
    W: Fn(EdgeId) -> f64,
{
    assert!(
        target > 0.0 && target.is_finite(),
        "target granularity must be positive"
    );
    let current = granularity(g, slowest_comp, slowest_comm);
    if !current.is_finite() || current == 0.0 {
        return None;
    }
    // g' = comp / (comm * s) = current / s = target  =>  s = current / target
    Some(current / target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn two_task_graph() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_task(3.0);
        let c = b.add_task(5.0);
        b.add_edge(a, c, 4.0).unwrap();
        b.build()
    }

    #[test]
    fn basic_ratio() {
        let g = two_task_graph();
        // comp = 3 + 5 = 8, comm = 4 → g = 2.
        let gr = granularity(&g, |t| g.work(t), |e| g.edge(e).volume);
        assert_eq!(gr, 2.0);
    }

    #[test]
    fn no_edges_is_infinite() {
        let mut b = GraphBuilder::new();
        b.add_task(1.0);
        let g = b.build();
        assert_eq!(granularity(&g, |t| g.work(t), |_| 0.0), f64::INFINITY);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = GraphBuilder::new().build();
        assert_eq!(granularity(&g, |_| 1.0, |_| 1.0), 0.0);
    }

    #[test]
    fn scaling_hits_target() {
        let g = two_task_graph();
        for target in [0.2, 0.5, 1.0, 2.0, 10.0] {
            let s =
                volume_scale_for_target(&g, |t| g.work(t), |e| g.edge(e).volume, target).unwrap();
            let scaled = g.scale_volumes(s);
            let realized = granularity(&scaled, |t| scaled.work(t), |e| scaled.edge(e).volume);
            assert!(
                (realized - target).abs() < 1e-12,
                "target {target}, got {realized}"
            );
        }
    }

    #[test]
    fn scaling_impossible_without_edges() {
        let mut b = GraphBuilder::new();
        b.add_task(1.0);
        let g = b.build();
        assert!(volume_scale_for_target(&g, |t| g.work(t), |_| 0.0, 1.0).is_none());
    }
}
