//! Topological orderings (Kahn's algorithm).
//!
//! Orders are deterministic: among simultaneously-ready tasks, the one with
//! the smallest id comes first. Determinism matters because the scheduling
//! heuristics break priority ties by position, and the experiments must be
//! reproducible bit-for-bit across runs.

use crate::graph::TaskGraph;
use crate::ids::TaskId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Topological order of the tasks (entry tasks first).
///
/// The returned vector contains every task exactly once; for every edge
/// `a → b`, `a` appears before `b`. Smallest-id-first among ready tasks.
pub fn topological_order(g: &TaskGraph) -> Vec<TaskId> {
    let v = g.num_tasks();
    let mut indeg: Vec<usize> = (0..v).map(|i| g.in_degree(TaskId::from_index(i))).collect();
    let mut heap: BinaryHeap<Reverse<TaskId>> = indeg
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| Reverse(TaskId::from_index(i)))
        .collect();
    let mut order = Vec::with_capacity(v);
    while let Some(Reverse(t)) = heap.pop() {
        order.push(t);
        for s in g.successors(t) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                heap.push(Reverse(s));
            }
        }
    }
    debug_assert_eq!(order.len(), v, "graph must be acyclic");
    order
}

/// Reverse topological order (exit tasks first).
pub fn reverse_topological_order(g: &TaskGraph) -> Vec<TaskId> {
    let mut order = topological_order(g);
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn sample() -> TaskGraph {
        // 0 -> 2, 1 -> 2, 2 -> 3, 1 -> 3
        let mut b = GraphBuilder::new();
        let t0 = b.add_task(1.0);
        let t1 = b.add_task(1.0);
        let t2 = b.add_task(1.0);
        let t3 = b.add_task(1.0);
        b.add_edge(t0, t2, 1.0).unwrap();
        b.add_edge(t1, t2, 1.0).unwrap();
        b.add_edge(t2, t3, 1.0).unwrap();
        b.add_edge(t1, t3, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn order_respects_edges() {
        let g = sample();
        let order = topological_order(&g);
        let mut pos = vec![0usize; order.len()];
        for (i, t) in order.iter().enumerate() {
            pos[t.index()] = i;
        }
        for e in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
        assert_eq!(order.len(), g.num_tasks());
    }

    #[test]
    fn order_is_smallest_id_first() {
        let g = sample();
        assert_eq!(
            topological_order(&g),
            vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)]
        );
    }

    #[test]
    fn reverse_order_is_reversed() {
        let g = sample();
        let mut fwd = topological_order(&g);
        fwd.reverse();
        assert_eq!(fwd, reverse_topological_order(&g));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(topological_order(&g).is_empty());
    }

    #[test]
    fn independent_tasks_sorted_by_id() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.add_task(1.0);
        }
        let g = b.build();
        let order = topological_order(&g);
        assert_eq!(order, (0..5).map(TaskId::from_index).collect::<Vec<_>>());
    }
}
