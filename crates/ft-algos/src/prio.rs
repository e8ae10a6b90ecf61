//! List-scheduling priorities: `tl(t) + bl(t)` (§5 of the paper).
//!
//! The bottom level `bl(t)` is static, computed once on the *average*
//! weighted graph: node weight = mean execution cost over processors, edge
//! weight = mean communication time over distinct processor pairs (the
//! "average sum of edge weights and node weights" of [27, 4]).
//!
//! The top level `tl(t)` is dynamic: the paper computes it "in the current
//! partially clustered DAG". Since a task only becomes *free* when all its
//! predecessors are scheduled, we set, at that moment,
//! `tl(t) = max over preds (actual earliest replica finish + mean comm)`,
//! which folds the real mapping decisions into the priority.

use ft_graph::levels::bottom_levels;
use ft_graph::{TaskGraph, TaskId};
use ft_platform::Instance;

/// Static bottom levels on the mean-cost weighted graph; `mean_delay` is
/// the platform's [`mean_delay`](ft_platform::Platform::mean_delay),
/// computed once by the caller rather than once per edge.
pub fn mean_bottom_levels(inst: &Instance, mean_delay: f64) -> Vec<f64> {
    bottom_levels(
        &inst.graph,
        |t| inst.exec.mean(t),
        |e| inst.graph.edge(e).volume * mean_delay,
    )
}

/// A deterministic max-priority pool of free tasks.
///
/// Selection order: highest priority first; ties broken by a per-task
/// random key drawn from the scheduler's seed (the paper breaks ties
/// randomly), then by task id as the final total order.
#[derive(Clone, Debug)]
pub struct FreePool {
    free: Vec<TaskId>,
}

impl FreePool {
    /// Empty pool.
    pub fn new() -> Self {
        FreePool { free: Vec::new() }
    }

    /// Adds a freshly freed task.
    pub fn push(&mut self, t: TaskId) {
        debug_assert!(!self.free.contains(&t), "task {t} already free");
        self.free.push(t);
    }

    /// True if no free task remains.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Number of free tasks (bounded by the graph width ω).
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Iterates over the free tasks (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.free.iter().copied()
    }

    /// Removes and returns the task maximizing `priority`, breaking ties by
    /// `tie_key` then id. This is the paper's `H(α)` head function.
    pub fn pop_max<P, K>(&mut self, priority: P, tie_key: K) -> Option<TaskId>
    where
        P: Fn(TaskId) -> f64,
        K: Fn(TaskId) -> u64,
    {
        if self.free.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for i in 1..self.free.len() {
            let (a, b) = (self.free[i], self.free[best]);
            let ord = priority(a)
                .total_cmp(&priority(b))
                .then_with(|| tie_key(a).cmp(&tie_key(b)))
                .then_with(|| b.cmp(&a)); // smaller id wins ties
            if ord == std::cmp::Ordering::Greater {
                best = i;
            }
        }
        Some(self.free.swap_remove(best))
    }

    /// Removes a specific task (used by FTBAR, which selects by pressure,
    /// not by priority order).
    pub fn remove(&mut self, t: TaskId) {
        if let Some(pos) = self.free.iter().position(|&x| x == t) {
            self.free.swap_remove(pos);
        }
    }
}

impl Default for FreePool {
    fn default() -> Self {
        Self::new()
    }
}

/// Tracks which tasks are free: a task is free once all predecessors are
/// scheduled. Returns newly freed successors as tasks complete.
#[derive(Clone, Debug)]
pub struct ReadyTracker {
    remaining_preds: Vec<usize>,
}

impl ReadyTracker {
    /// Initializes for scheduling only the tasks with `in_subset[t]` (every
    /// task, for a whole-DAG run), counting only predecessors inside the
    /// subset (data of outside predecessors is assumed already produced).
    /// Outside tasks are pinned with a sentinel so they never become free.
    ///
    /// The subset must be closed under successors: every successor of a
    /// subset task is itself in the subset (which holds by construction for
    /// "not yet executed" sub-DAGs, since a task cannot run before its
    /// predecessors).
    pub fn for_subset(g: &TaskGraph, in_subset: &[bool]) -> Self {
        let remaining_preds = g
            .tasks()
            .map(|t| {
                if !in_subset[t.index()] {
                    return usize::MAX;
                }
                g.in_edges(t)
                    .iter()
                    .filter(|&&e| in_subset[g.edge(e).src.index()])
                    .count()
            })
            .collect();
        ReadyTracker { remaining_preds }
    }

    /// The initially free (entry) tasks.
    pub fn initial(&self) -> Vec<TaskId> {
        self.remaining_preds
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| TaskId::from_index(i))
            .collect()
    }

    /// Marks `t` scheduled; fills `freed` with the successors that just
    /// became free.
    pub fn complete(&mut self, g: &TaskGraph, t: TaskId, freed: &mut Vec<TaskId>) {
        freed.clear();
        for s in g.successors(t) {
            let c = &mut self.remaining_preds[s.index()];
            debug_assert!(*c > 0);
            *c -= 1;
            if *c == 0 {
                freed.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::GraphBuilder;
    use ft_platform::{ExecMatrix, Platform};

    fn mini_instance() -> Instance {
        let mut b = GraphBuilder::new();
        let a = b.add_task(2.0);
        let c = b.add_task(6.0);
        b.add_edge(a, c, 4.0).unwrap();
        let g = b.build();
        let p = Platform::uniform_clique(2, 0.5);
        let e = ExecMatrix::from_fn(2, 2, |t, pr| g.work(t) * (1.0 + pr.index() as f64));
        Instance::new(g, p, e)
    }

    #[test]
    fn mean_bottom_levels_use_mean_costs() {
        let inst = mini_instance();
        let bl = mean_bottom_levels(&inst, inst.platform.mean_delay());
        // mean exec: t0 = (2+4)/2 = 3; t1 = (6+12)/2 = 9.
        // mean comm of edge = 4 * 0.5 = 2.
        assert_eq!(bl[1], 9.0);
        assert_eq!(bl[0], 3.0 + 2.0 + 9.0);
    }

    #[test]
    fn pool_pops_highest_priority() {
        let mut pool = FreePool::new();
        pool.push(TaskId(0));
        pool.push(TaskId(1));
        pool.push(TaskId(2));
        let prio = |t: TaskId| [1.0, 5.0, 3.0][t.index()];
        assert_eq!(pool.pop_max(prio, |_| 0), Some(TaskId(1)));
        assert_eq!(pool.pop_max(prio, |_| 0), Some(TaskId(2)));
        assert_eq!(pool.pop_max(prio, |_| 0), Some(TaskId(0)));
        assert_eq!(pool.pop_max(prio, |_| 0), None);
    }

    #[test]
    fn pool_tie_break_uses_key_then_id() {
        let mut pool = FreePool::new();
        pool.push(TaskId(3));
        pool.push(TaskId(7));
        // Equal priority; key favors task 7.
        let key = |t: TaskId| if t == TaskId(7) { 9 } else { 1 };
        assert_eq!(pool.pop_max(|_| 1.0, key), Some(TaskId(7)));
        // Equal priority and key: smaller id.
        let mut pool = FreePool::new();
        pool.push(TaskId(5));
        pool.push(TaskId(2));
        assert_eq!(pool.pop_max(|_| 1.0, |_| 0), Some(TaskId(2)));
    }

    #[test]
    fn ready_tracker_frees_in_dependency_order() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        let d = b.add_task(1.0);
        b.add_edge(a, d, 1.0).unwrap();
        b.add_edge(c, d, 1.0).unwrap();
        let g = b.build();
        let mut rt = ReadyTracker::for_subset(&g, &[true; 3]);
        assert_eq!(rt.initial(), vec![a, c]);
        let mut freed = vec![];
        rt.complete(&g, a, &mut freed);
        assert_eq!(freed, vec![]);
        rt.complete(&g, c, &mut freed);
        assert_eq!(freed, vec![d]);
    }

    #[test]
    fn remove_specific_task() {
        let mut pool = FreePool::new();
        pool.push(TaskId(1));
        pool.push(TaskId(2));
        pool.remove(TaskId(1));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.pop_max(|_| 0.0, |_| 0), Some(TaskId(2)));
    }
}
