//! Mutable network/processor availability state used while scheduling.
//!
//! Implements the paper's §4.3 bookkeeping under *append* semantics (every
//! quantity only moves forward in time, exactly like equations (4)–(6)):
//!
//! * `SF(P)` — sending free time of each processor (send port);
//! * `RF(P)` — receiving free time of each processor (receive port);
//! * `R(l)`  — ready time of each directed link;
//! * `r(P)`  — processor ready time (last computation finish).
//!
//! Planning a batch of incoming messages towards a candidate destination
//! never mutates the state ([`NetworkState::plan_batch`] writes the plan
//! into the caller's buffer) so heuristics can evaluate every candidate
//! processor and only [`commit`](NetworkState::commit_batch) the winner — this is how the paper's algorithms "simulate the mapping of
//! ti on processor Pk as well as the communications induced … to the links"
//! (Algorithm 5.2, line 5) without an undo log.

use crate::comm::{CommModel, MsgSpec, PlannedMsg};
use ft_platform::ProcId;

/// Availability state of every port, link and processor.
#[derive(Clone, Debug)]
pub struct NetworkState {
    model: CommModel,
    m: usize,
    send_free: Vec<f64>,
    recv_free: Vec<f64>,
    link_ready: Vec<f64>,
    proc_ready: Vec<f64>,
}

impl NetworkState {
    /// Fresh state for `m` processors under the given model.
    pub fn new(m: usize, model: CommModel) -> Self {
        NetworkState {
            model,
            m,
            send_free: vec![0.0; m],
            recv_free: vec![0.0; m],
            link_ready: vec![0.0; m * m],
            proc_ready: vec![0.0; m],
        }
    }

    /// The communication model in force.
    #[inline]
    pub fn model(&self) -> CommModel {
        self.model
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.m
    }

    /// Processor ready time `r(P)` — the finish time of the last task
    /// committed on `p`.
    #[inline]
    pub fn proc_ready(&self, p: ProcId) -> f64 {
        self.proc_ready[p.index()]
    }

    /// Sending free time `SF(P)`.
    #[inline]
    pub fn send_free(&self, p: ProcId) -> f64 {
        self.send_free[p.index()]
    }

    /// Receiving free time `RF(P)`.
    #[inline]
    pub fn recv_free(&self, p: ProcId) -> f64 {
        self.recv_free[p.index()]
    }

    /// Link ready time `R(l)` for the directed link `from → to`.
    #[inline]
    pub fn link_ready(&self, from: ProcId, to: ProcId) -> f64 {
        self.link_ready[from.index() * self.m + to.index()]
    }

    /// Plans the transfer of `specs` into destination `dst` without
    /// mutating the state, into the caller's `planned` buffer (cleared
    /// first, so one buffer serves every candidate a heuristic evaluates).
    ///
    /// Under [`CommModel::OnePort`], remote messages are ordered by their
    /// *unconstrained* link finish time (the sort of equation (6)) and then
    /// serialized through the sender ports, the links and the destination's
    /// receive port; co-located messages arrive instantly at their `ready`
    /// time. Under [`CommModel::MacroDataflow`] every remote message simply
    /// takes `[ready, ready + w]`.
    ///
    /// The batch is left in serialization order (arrival order at `dst`),
    /// not in `specs` order.
    pub fn plan_batch(&self, dst: ProcId, specs: &[MsgSpec], planned: &mut Vec<PlannedMsg>) {
        planned.clear();
        // Locals pass through untouched (and first, in `specs` order).
        let instant = |spec: MsgSpec| PlannedMsg {
            spec,
            start: spec.ready,
            finish: spec.ready,
        };
        planned.extend(specs.iter().filter(|s| s.from == dst).map(|&s| instant(s)));
        let locals = planned.len();
        match self.model {
            CommModel::MacroDataflow => {
                planned.extend(
                    specs
                        .iter()
                        .filter(|s| s.from != dst)
                        .map(|&spec| PlannedMsg {
                            spec,
                            start: spec.ready,
                            finish: spec.ready + spec.w,
                        }),
                );
            }
            CommModel::OnePort => {
                // Unconstrained finish F̂(c, l) = max(ready, SF, R(l)) + w:
                // the sort key of equation (6), parked in `finish` until
                // the message is serialized. Ties break on (sender, src
                // task, copy, edge) for determinism.
                planned.extend(specs.iter().filter(|s| s.from != dst).map(|&spec| {
                    let uf = spec
                        .ready
                        .max(self.send_free(spec.from))
                        .max(self.link_ready(spec.from, dst))
                        + spec.w;
                    PlannedMsg {
                        spec,
                        start: uf,
                        finish: uf,
                    }
                }));
                let remote = &mut planned[locals..];
                remote.sort_by(|a, b| {
                    a.finish.total_cmp(&b.finish).then_with(|| {
                        (a.spec.from, a.spec.src, a.spec.edge).cmp(&(
                            b.spec.from,
                            b.spec.src,
                            b.spec.edge,
                        ))
                    })
                });
                // Serialize through the receive port. Finishes only grow
                // along the batch, so a sender's port and its link to `dst`
                // are free by the finish of its latest message here, which
                // the receive port already waits for: the committed SF and
                // R(l) are the only port state a message needs.
                let mut rf = self.recv_free(dst);
                for p in remote {
                    let s = p.spec;
                    p.start = s
                        .ready
                        .max(self.send_free(s.from))
                        .max(self.link_ready(s.from, dst))
                        .max(rf);
                    p.finish = p.start + s.w;
                    rf = p.finish;
                }
            }
        }
        planned.sort_by(cmp_planned);
    }

    /// Commits a previously planned batch towards `dst`, advancing the
    /// sender ports, the links and the destination receive port.
    pub fn commit_batch(&mut self, dst: ProcId, planned: &[PlannedMsg]) {
        for p in planned {
            if p.is_local(dst) {
                continue;
            }
            let from = p.spec.from.index();
            self.send_free[from] = self.send_free[from].max(p.finish);
            let l = from * self.m + dst.index();
            self.link_ready[l] = self.link_ready[l].max(p.finish);
            let d = dst.index();
            self.recv_free[d] = self.recv_free[d].max(p.finish);
        }
    }

    /// Commits the execution of a task (replica) on `p` until `finish`.
    pub fn commit_exec(&mut self, p: ProcId, finish: f64) {
        let i = p.index();
        debug_assert!(
            finish >= self.proc_ready[i],
            "append-only schedule: finish {finish} precedes r(P) {}",
            self.proc_ready[i]
        );
        self.proc_ready[i] = self.proc_ready[i].max(finish);
    }
}

/// Arrival order with deterministic ties.
fn cmp_planned(a: &PlannedMsg, b: &PlannedMsg) -> std::cmp::Ordering {
    a.finish
        .total_cmp(&b.finish)
        .then_with(|| a.start.total_cmp(&b.start))
        .then_with(|| {
            (a.spec.from, a.spec.src, a.spec.edge).cmp(&(b.spec.from, b.spec.src, b.spec.edge))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicaRef;
    use ft_graph::{EdgeId, TaskId};

    fn spec(edge: u32, from: u32, ready: f64, w: f64) -> MsgSpec {
        MsgSpec {
            edge: EdgeId(edge),
            src: ReplicaRef::new(TaskId(edge), 0),
            dst: ReplicaRef::new(TaskId(99), 0),
            from: ProcId(from),
            ready,
            w,
        }
    }

    fn plan(st: &NetworkState, dst: ProcId, specs: &[MsgSpec]) -> Vec<PlannedMsg> {
        let mut planned = Vec::new();
        st.plan_batch(dst, specs, &mut planned);
        planned
    }

    #[test]
    fn macro_dataflow_is_contention_free() {
        let st = NetworkState::new(3, CommModel::MacroDataflow);
        let planned = plan(
            &st,
            ProcId(2),
            &[spec(0, 0, 1.0, 5.0), spec(1, 1, 1.0, 5.0)],
        );
        // Both transfers run concurrently: identical windows.
        assert_eq!(planned[0].start, 1.0);
        assert_eq!(planned[0].finish, 6.0);
        assert_eq!(planned[1].start, 1.0);
        assert_eq!(planned[1].finish, 6.0);
    }

    #[test]
    fn one_port_serializes_at_reception() {
        let st = NetworkState::new(3, CommModel::OnePort);
        // Two messages from different senders to the same destination must
        // not overlap at the receive port (constraint (3)).
        let planned = plan(
            &st,
            ProcId(2),
            &[spec(0, 0, 0.0, 4.0), spec(1, 1, 0.0, 4.0)],
        );
        assert_eq!(planned[0].start, 0.0);
        assert_eq!(planned[0].finish, 4.0);
        assert_eq!(planned[1].start, 4.0);
        assert_eq!(planned[1].finish, 8.0);
    }

    #[test]
    fn one_port_serializes_at_emission() {
        let mut st = NetworkState::new(3, CommModel::OnePort);
        // Sender 0 is busy sending until t = 10 (constraint (2)).
        st.commit_batch(
            ProcId(1),
            &[PlannedMsg {
                spec: spec(7, 0, 0.0, 10.0),
                start: 0.0,
                finish: 10.0,
            }],
        );
        let planned = plan(&st, ProcId(2), &[spec(0, 0, 0.0, 3.0)]);
        assert_eq!(planned[0].start, 10.0);
        assert_eq!(planned[0].finish, 13.0);
    }

    #[test]
    fn local_messages_are_free_and_instant() {
        let st = NetworkState::new(2, CommModel::OnePort);
        let planned = plan(&st, ProcId(1), &[spec(0, 1, 7.0, 0.0)]);
        assert_eq!(planned[0].start, 7.0);
        assert_eq!(planned[0].finish, 7.0);
        // Committing a local message must not move any port.
        let mut st2 = st.clone();
        st2.commit_batch(ProcId(1), &planned);
        assert_eq!(st2.recv_free(ProcId(1)), 0.0);
        assert_eq!(st2.send_free(ProcId(1)), 0.0);
    }

    #[test]
    fn eq6_sorting_puts_early_finisher_first() {
        let st = NetworkState::new(3, CommModel::OnePort);
        // Message A: ready 0, w 10 (unconstrained finish 10).
        // Message B: ready 5, w 1 (unconstrained finish 6) → goes first.
        let planned = plan(
            &st,
            ProcId(2),
            &[spec(0, 0, 0.0, 10.0), spec(1, 1, 5.0, 1.0)],
        );
        assert_eq!(planned[0].spec.edge, EdgeId(1));
        assert_eq!(planned[0].finish, 6.0);
        // A is pushed behind B at the receive port.
        assert_eq!(planned[1].spec.edge, EdgeId(0));
        assert_eq!(planned[1].start, 6.0);
        assert_eq!(planned[1].finish, 16.0);
    }

    #[test]
    fn planning_is_pure() {
        let st = NetworkState::new(3, CommModel::OnePort);
        let before = st.clone();
        let _ = plan(&st, ProcId(2), &[spec(0, 0, 0.0, 4.0)]);
        assert_eq!(before.recv_free(ProcId(2)), st.recv_free(ProcId(2)));
        assert_eq!(before.send_free(ProcId(0)), st.send_free(ProcId(0)));
        assert_eq!(
            before.link_ready(ProcId(0), ProcId(2)),
            st.link_ready(ProcId(0), ProcId(2))
        );
    }

    #[test]
    fn commit_advances_all_three_resources() {
        let mut st = NetworkState::new(3, CommModel::OnePort);
        let planned = plan(&st, ProcId(2), &[spec(0, 0, 0.0, 4.0)]);
        st.commit_batch(ProcId(2), &planned);
        assert_eq!(st.send_free(ProcId(0)), 4.0);
        assert_eq!(st.recv_free(ProcId(2)), 4.0);
        assert_eq!(st.link_ready(ProcId(0), ProcId(2)), 4.0);
        assert_eq!(
            st.link_ready(ProcId(0), ProcId(1)),
            0.0,
            "other links untouched"
        );
    }

    #[test]
    fn same_sender_chains_on_send_port_within_batch() {
        let st = NetworkState::new(3, CommModel::OnePort);
        let planned = plan(
            &st,
            ProcId(2),
            &[spec(0, 0, 0.0, 3.0), spec(1, 0, 0.0, 3.0)],
        );
        assert_eq!(planned[0].finish, 3.0);
        assert_eq!(planned[1].start, 3.0);
        assert_eq!(planned[1].finish, 6.0);
    }

    #[test]
    fn exec_commit_is_append_only() {
        let mut st = NetworkState::new(1, CommModel::OnePort);
        st.commit_exec(ProcId(0), 5.0);
        assert_eq!(st.proc_ready(ProcId(0)), 5.0);
        st.commit_exec(ProcId(0), 9.0);
        assert_eq!(st.proc_ready(ProcId(0)), 9.0);
    }
}
