//! DAG width — the maximum number of pairwise-independent tasks `ω`.
//!
//! The paper's complexity bounds are stated in terms of `ω`, "the maximum
//! number of tasks that are independent in G". Two tasks are independent
//! when neither reaches the other. By Dilworth's theorem the maximum
//! antichain of the reachability partial order equals the minimum number of
//! chains covering it, which we compute as `v − (maximum bipartite matching
//! on the transitive closure)` via Hopcroft–Karp-style augmentation.
//!
//! The exact computation is O(v·e) for the closure plus the matching and is
//! intended for analysis and tests (the schedulers never need it at run
//! time).

use crate::graph::TaskGraph;
use crate::topo::topological_order;

/// Bitset-based transitive closure: `reach[i]` holds a bit per task j with
/// `i ⤳ j` (strictly, excluding i itself unless a path exists).
fn transitive_closure(g: &TaskGraph) -> Vec<Vec<u64>> {
    let v = g.num_tasks();
    let words = v.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; v];
    let order = topological_order(g);
    for &t in order.iter().rev() {
        let ti = t.index();
        // Collect successor masks first to appease the borrow checker.
        let succs: Vec<usize> = g.successors(t).map(|s| s.index()).collect();
        for s in succs {
            reach[ti][s / 64] |= 1u64 << (s % 64);
            // reach[ti] |= reach[s]
            let (a, b) = if ti < s {
                let (lo, hi) = reach.split_at_mut(s);
                (&mut lo[ti], &hi[0])
            } else {
                let (lo, hi) = reach.split_at_mut(ti);
                (&mut hi[0], &lo[s])
            };
            for (aw, bw) in a.iter_mut().zip(b.iter()) {
                *aw |= *bw;
            }
        }
    }
    reach
}

/// Exact width of the DAG: the size of a maximum antichain.
///
/// Computed as `v − max_matching` on the bipartite "chain" graph whose left
/// and right parts are both the task set and whose edges are the pairs
/// `(i, j)` with `i ⤳ j` (minimum path cover of the closure; Dilworth).
pub fn width(g: &TaskGraph) -> usize {
    let v = g.num_tasks();
    if v == 0 {
        return 0;
    }
    let reach = transitive_closure(g);
    // adj[i] = list of j reachable from i.
    let adj: Vec<Vec<usize>> = (0..v)
        .map(|i| {
            (0..v)
                .filter(|&j| reach[i][j / 64] >> (j % 64) & 1 == 1)
                .collect()
        })
        .collect();

    // Simple augmenting-path matching (Kuhn); v ≤ a few thousand in all our
    // workloads so this is plenty fast for tests and analyses.
    let mut match_right: Vec<Option<usize>> = vec![None; v];
    let mut match_left: Vec<Option<usize>> = vec![None; v];

    fn try_augment(
        u: usize,
        adj: &[Vec<usize>],
        match_right: &mut [Option<usize>],
        match_left: &mut [Option<usize>],
        visited: &mut [bool],
    ) -> bool {
        for &w in &adj[u] {
            if visited[w] {
                continue;
            }
            visited[w] = true;
            let free = match match_right[w] {
                None => true,
                Some(prev) => try_augment(prev, adj, match_right, match_left, visited),
            };
            if free {
                match_right[w] = Some(u);
                match_left[u] = Some(w);
                return true;
            }
        }
        false
    }

    let mut matching = 0usize;
    for u in 0..v {
        let mut visited = vec![false; v];
        if try_augment(u, &adj, &mut match_right, &mut match_left, &mut visited) {
            matching += 1;
        }
    }
    v - matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn chain_width_is_one() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..5).map(|_| b.add_task(1.0)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 1.0).unwrap();
        }
        let g = b.build();
        assert_eq!(width(&g), 1);
    }

    #[test]
    fn independent_tasks_width_is_v() {
        let mut b = GraphBuilder::new();
        for _ in 0..7 {
            b.add_task(1.0);
        }
        let g = b.build();
        assert_eq!(width(&g), 7);
    }

    #[test]
    fn diamond_width_is_two() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let x = b.add_task(1.0);
        let y = b.add_task(1.0);
        let z = b.add_task(1.0);
        b.add_edge(a, x, 1.0).unwrap();
        b.add_edge(a, y, 1.0).unwrap();
        b.add_edge(x, z, 1.0).unwrap();
        b.add_edge(y, z, 1.0).unwrap();
        let g = b.build();
        assert_eq!(width(&g), 2);
    }

    #[test]
    fn chain_beside_a_lone_task_has_width_two() {
        let mut b = GraphBuilder::new();
        let a0 = b.add_task(1.0);
        let a1 = b.add_task(1.0);
        let a2 = b.add_task(1.0);
        b.add_edge(a0, a1, 1.0).unwrap();
        b.add_edge(a1, a2, 1.0).unwrap();
        let c0 = b.add_task(1.0);
        let g = b.build();
        let _ = c0;
        assert_eq!(width(&g), 2); // {a_i, c0}
    }

    #[test]
    fn fork_width_is_fanout() {
        let mut b = GraphBuilder::new();
        let r = b.add_task(1.0);
        for _ in 0..9 {
            let c = b.add_task(1.0);
            b.add_edge(r, c, 1.0).unwrap();
        }
        let g = b.build();
        assert_eq!(width(&g), 9);
    }
}
