//! The weighted task DAG and its incremental builder.

use crate::ids::{EdgeId, TaskId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dependence edge `src → dst` carrying `volume` units of data
/// (the paper's edge cost function `V(ti, tj)`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source task (must finish before `dst` may start).
    pub src: TaskId,
    /// Destination task.
    pub dst: TaskId,
    /// Volume of data sent from `src` to `dst`, in abstract data units.
    /// The wall-clock cost of the transfer is `volume * d(Pk, Ph)` once
    /// both endpoints are mapped (see `ft-platform`).
    pub volume: f64,
}

/// Errors reported by [`GraphBuilder`] and [`TaskGraph`] constructors.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphError {
    /// An edge referenced a task id that was never added.
    UnknownTask(TaskId),
    /// Adding the edge would create a cycle through this task.
    WouldCycle(TaskId, TaskId),
    /// An edge `src → dst` with `src == dst`.
    SelfLoop(TaskId),
    /// A task work amount or edge volume was negative or non-finite.
    InvalidWeight(f64),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "unknown task {t}"),
            GraphError::WouldCycle(a, b) => {
                write!(f, "edge {a} -> {b} would create a cycle")
            }
            GraphError::SelfLoop(t) => write!(f, "self-loop on {t}"),
            GraphError::InvalidWeight(w) => write!(f, "invalid weight {w}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A weighted Directed Acyclic Graph of tasks.
///
/// Tasks carry an abstract `work` amount; edges carry a data `volume`.
/// Construction goes through [`GraphBuilder`], which rejects cycles, so a
/// `TaskGraph` value is a DAG by construction.
///
/// Terminology follows the paper: a task without predecessors is an *entry*
/// task, one without successors an *exit* task; `Γ−(t)` / `Γ+(t)` are the
/// immediate predecessor / successor sets, exposed here as the edge-id
/// slices [`in_edges`](Self::in_edges) and [`out_edges`](Self::out_edges).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TaskGraph {
    work: Vec<f64>,
    labels: Vec<String>,
    edges: Vec<Edge>,
    /// Out-edge ids per task, in insertion order.
    succ: Vec<Vec<EdgeId>>,
    /// In-edge ids per task, in insertion order.
    pred: Vec<Vec<EdgeId>>,
}

impl TaskGraph {
    /// Number of tasks `v = |V|`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.work.len()
    }

    /// Number of edges `e = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all task ids in increasing order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.num_tasks()).map(TaskId::from_index)
    }

    /// Iterator over all edge ids in increasing order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(EdgeId::from_index)
    }

    /// The abstract work amount of a task (not yet a duration; `ft-platform`
    /// turns work into per-processor execution times).
    #[inline]
    pub fn work(&self, t: TaskId) -> f64 {
        self.work[t.index()]
    }

    /// Human-readable label of the task (defaults to `t{index}`).
    #[inline]
    pub fn label(&self, t: TaskId) -> &str {
        &self.labels[t.index()]
    }

    /// The edge record for an id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// All edges in id order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Ids of the edges leaving `t` (targets form `Γ+(t)`).
    #[inline]
    pub fn out_edges(&self, t: TaskId) -> &[EdgeId] {
        &self.succ[t.index()]
    }

    /// Ids of the edges entering `t` (sources form `Γ−(t)`).
    #[inline]
    pub fn in_edges(&self, t: TaskId) -> &[EdgeId] {
        &self.pred[t.index()]
    }

    /// Immediate successors `Γ+(t)`.
    pub fn successors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succ[t.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].dst)
    }

    /// Immediate predecessors `Γ−(t)`.
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.pred[t.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].src)
    }

    /// In-degree `|Γ−(t)|`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.pred[t.index()].len()
    }

    /// Out-degree `|Γ+(t)|`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.succ[t.index()].len()
    }

    /// Entry tasks (no predecessors).
    pub fn entry_tasks(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.in_degree(t) == 0).collect()
    }

    /// Exit tasks (no successors).
    pub fn exit_tasks(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.out_degree(t) == 0).collect()
    }

    /// Returns a copy of the graph with every edge volume multiplied by
    /// `factor`. Used by generators to hit a target granularity exactly.
    pub fn scale_volumes(&self, factor: f64) -> TaskGraph {
        assert!(factor.is_finite() && factor >= 0.0, "invalid scale factor");
        let mut g = self.clone();
        for e in &mut g.edges {
            e.volume *= factor;
        }
        g
    }

    /// True if the graph is an *outforest*: every task has in-degree ≤ 1
    /// (the graph family of the paper's Proposition 5.1).
    pub fn is_outforest(&self) -> bool {
        self.tasks().all(|t| self.in_degree(t) <= 1)
    }
}

/// Incremental builder for [`TaskGraph`], with cycle rejection.
///
/// ```
/// use ft_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let a = b.add_task(2.0);
/// let c = b.add_task(3.0);
/// b.add_edge(a, c, 10.0).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_tasks(), 2);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    graph: TaskGraph,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with capacity reserved for `v` tasks and `e` edges.
    pub fn with_capacity(v: usize, e: usize) -> Self {
        let mut b = Self::new();
        b.graph.work.reserve(v);
        b.graph.labels.reserve(v);
        b.graph.succ.reserve(v);
        b.graph.pred.reserve(v);
        b.graph.edges.reserve(e);
        b
    }

    /// Adds a task with the given abstract work amount and returns its id.
    ///
    /// # Panics
    /// Panics if `work` is negative or non-finite.
    pub fn add_task(&mut self, work: f64) -> TaskId {
        self.add_labeled_task(work, None)
    }

    /// Adds a task with an explicit label.
    pub fn add_labeled_task(&mut self, work: f64, label: Option<String>) -> TaskId {
        assert!(
            work.is_finite() && work >= 0.0,
            "task work must be finite and non-negative, got {work}"
        );
        let id = TaskId::from_index(self.graph.work.len());
        self.graph.work.push(work);
        self.graph
            .labels
            .push(label.unwrap_or_else(|| format!("t{}", id.0)));
        self.graph.succ.push(Vec::new());
        self.graph.pred.push(Vec::new());
        id
    }

    /// Adds a dependence edge. Fails if either endpoint is unknown, the edge
    /// is a self-loop, the volume is invalid, or the edge would close a
    /// cycle.
    pub fn add_edge(
        &mut self,
        src: TaskId,
        dst: TaskId,
        volume: f64,
    ) -> Result<EdgeId, GraphError> {
        let v = self.graph.num_tasks();
        if src.index() >= v {
            return Err(GraphError::UnknownTask(src));
        }
        if dst.index() >= v {
            return Err(GraphError::UnknownTask(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if !volume.is_finite() || volume < 0.0 {
            return Err(GraphError::InvalidWeight(volume));
        }
        if self.reaches(dst, src) {
            return Err(GraphError::WouldCycle(src, dst));
        }
        let id = EdgeId::from_index(self.graph.edges.len());
        self.graph.edges.push(Edge { src, dst, volume });
        self.graph.succ[src.index()].push(id);
        self.graph.pred[dst.index()].push(id);
        Ok(id)
    }

    /// DFS reachability query `from ⤳ to` on the graph built so far.
    fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.graph.num_tasks()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(t) = stack.pop() {
            for s in self.graph.successors(t) {
                if s == to {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.graph.num_tasks()
    }

    /// Finalizes the builder into an immutable [`TaskGraph`].
    pub fn build(self) -> TaskGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let t2 = b.add_task(2.0);
        let t3 = b.add_task(3.0);
        let d = b.add_task(4.0);
        b.add_edge(a, t2, 5.0).unwrap();
        b.add_edge(a, t3, 6.0).unwrap();
        b.add_edge(t2, d, 7.0).unwrap();
        b.add_edge(t3, d, 8.0).unwrap();
        b.build()
    }

    #[test]
    fn builds_diamond() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.entry_tasks(), vec![TaskId(0)]);
        assert_eq!(g.exit_tasks(), vec![TaskId(3)]);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.out_degree(TaskId(0)), 2);
        let preds: Vec<_> = g.predecessors(TaskId(3)).collect();
        assert_eq!(preds, vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn rejects_cycle() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 1.0).unwrap();
        assert_eq!(b.add_edge(c, a, 1.0), Err(GraphError::WouldCycle(c, a)));
    }

    #[test]
    fn rejects_self_loop_and_unknown() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        assert_eq!(b.add_edge(a, a, 1.0), Err(GraphError::SelfLoop(a)));
        assert_eq!(
            b.add_edge(a, TaskId(9), 1.0),
            Err(GraphError::UnknownTask(TaskId(9)))
        );
    }

    #[test]
    fn rejects_bad_volume() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        assert!(matches!(
            b.add_edge(a, c, f64::NAN),
            Err(GraphError::InvalidWeight(_))
        ));
        assert!(matches!(
            b.add_edge(a, c, -1.0),
            Err(GraphError::InvalidWeight(_))
        ));
    }

    #[test]
    #[should_panic]
    fn rejects_negative_work() {
        let mut b = GraphBuilder::new();
        b.add_task(-1.0);
    }

    #[test]
    fn scale_volumes_scales_every_edge() {
        let g = diamond().scale_volumes(2.0);
        assert_eq!(g.edges().iter().map(|e| e.volume).sum::<f64>(), 52.0);
        assert_eq!(g.edge(EdgeId(0)).volume, 10.0);
    }

    #[test]
    fn outforest_detection() {
        let g = diamond();
        assert!(!g.is_outforest());
        let mut b = GraphBuilder::new();
        let r = b.add_task(1.0);
        let x = b.add_task(1.0);
        let y = b.add_task(1.0);
        b.add_edge(r, x, 1.0).unwrap();
        b.add_edge(r, y, 1.0).unwrap();
        assert!(b.build().is_outforest());
    }

    #[test]
    fn labels_default_and_custom() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_labeled_task(1.0, Some("fft".into()));
        let g = b.build();
        assert_eq!(g.label(a), "t0");
        assert_eq!(g.label(c), "fft");
    }

    #[test]
    fn serde_roundtrip() {
        let g = diamond();
        let s = serde_json::to_string(&g).unwrap();
        let g2: TaskGraph = serde_json::from_str(&s).unwrap();
        assert_eq!(g2.num_tasks(), g.num_tasks());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.edge(EdgeId(2)), g.edge(EdgeId(2)));
    }
}
