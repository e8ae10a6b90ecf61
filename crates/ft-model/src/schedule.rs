//! Fault-tolerant schedules: replica placements plus message records.

use crate::comm::{CommModel, PlannedMsg};
use crate::replica::{Replica, ReplicaRef};
use ft_graph::{EdgeId, TaskId};
use ft_platform::ProcId;
use serde::{Deserialize, Serialize};

/// A committed message: realizes DAG edge `edge` from replica `src` (on
/// processor `from`) to replica `dst` (on processor `to`), occupying
/// `[start, finish]` on the sender's send port, the directed link and the
/// receiver's receive port. Local messages (`from == to`) are recorded with
/// `start == finish` and use no resource.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MessageRecord {
    /// The DAG edge realized.
    pub edge: EdgeId,
    /// Sending replica.
    pub src: ReplicaRef,
    /// Receiving replica.
    pub dst: ReplicaRef,
    /// Sender processor.
    pub from: ProcId,
    /// Receiver processor.
    pub to: ProcId,
    /// Transfer start.
    pub start: f64,
    /// Arrival time.
    pub finish: f64,
}

impl MessageRecord {
    /// True if this is an intra-processor (free) communication.
    #[inline]
    pub fn is_local(&self) -> bool {
        self.from == self.to
    }
}

/// The output of a scheduling heuristic.
///
/// A fault-tolerant schedule with replication degree `ε + 1`
/// ([`Self::num_replicas`]): every task is placed on `ε + 1` distinct
/// processors, and [`Self::messages`] routes data between replicas. The
/// fault-free schedules (`ε = 0`) use the same representation with a single
/// replica per task.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FtSchedule {
    /// Communication model the schedule was built for (and must be
    /// validated against).
    pub model: CommModel,
    /// Replication degree `ε + 1`.
    pub num_replicas: usize,
    /// Placements, indexed by task id then replica index. Inner vectors
    /// have exactly `num_replicas` entries once scheduling is complete.
    pub replicas: Vec<Vec<Replica>>,
    /// Every message, in commit order.
    pub messages: Vec<MessageRecord>,
}

impl FtSchedule {
    /// Empty schedule for `v` tasks, replication degree `eps + 1`.
    pub fn new(v: usize, eps: usize, model: CommModel) -> Self {
        FtSchedule {
            model,
            num_replicas: eps + 1,
            replicas: vec![Vec::new(); v],
            messages: Vec::new(),
        }
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.replicas.len()
    }

    /// The supported failure count `ε`.
    #[inline]
    pub fn epsilon(&self) -> usize {
        self.num_replicas - 1
    }

    /// Registers a replica placement.
    pub fn push_replica(&mut self, r: Replica) {
        let slot = &mut self.replicas[r.of.task.index()];
        debug_assert!(
            slot.len() < self.num_replicas,
            "too many replicas for {}",
            r.of.task
        );
        debug_assert_eq!(slot.len(), r.of.copy as usize, "replica indices in order");
        slot.push(r);
    }

    /// Registers a planned batch of messages arriving at `dst_proc`.
    pub fn push_messages(&mut self, dst_proc: ProcId, planned: &[PlannedMsg]) {
        for p in planned {
            self.messages.push(MessageRecord {
                edge: p.spec.edge,
                src: p.spec.src,
                dst: p.spec.dst,
                from: p.spec.from,
                to: dst_proc,
                start: p.start,
                finish: p.finish,
            });
        }
    }

    /// All replicas of a task, `B(t)`.
    #[inline]
    pub fn replicas_of(&self, t: TaskId) -> &[Replica] {
        &self.replicas[t.index()]
    }

    /// A specific replica placement.
    #[inline]
    pub fn replica(&self, r: ReplicaRef) -> &Replica {
        &self.replicas[r.task.index()][r.copy as usize]
    }

    /// Processors hosting replicas of `t`, `P(B(t))`, in replica order.
    pub fn procs_of(&self, t: TaskId) -> Vec<ProcId> {
        self.replicas_of(t).iter().map(|r| r.proc).collect()
    }

    /// The paper's schedule latency: "the latest time at which at least one
    /// replica of each task has been computed" — `max_t min_k finish`.
    /// This is the latency achieved with 0 crash.
    pub fn latency(&self) -> f64 {
        self.replicas
            .iter()
            .map(|rs| rs.iter().map(|r| r.finish).fold(f64::INFINITY, f64::min))
            .fold(0.0, f64::max)
    }

    /// Makespan counting *every* replica: `max_t max_k finish`. Used for
    /// resource-usage accounting (not a latency bound by itself; the true
    /// upper bound under failures is computed by the replay engine in
    /// `ft-sim`).
    pub fn full_makespan(&self) -> f64 {
        self.replicas
            .iter()
            .flat_map(|rs| rs.iter().map(|r| r.finish))
            .fold(0.0, f64::max)
    }

    /// Number of inter-processor messages (the paper's communication-count
    /// metric: `e` without replication, up to `e(ε+1)²` for FTSA/FTBAR, and
    /// down to `e(ε+1)` for CAFT on favorable graphs).
    pub fn num_remote_messages(&self) -> usize {
        self.messages.iter().filter(|m| !m.is_local()).count()
    }

    /// Number of intra-processor (free) messages.
    pub fn num_local_messages(&self) -> usize {
        self.messages.iter().filter(|m| m.is_local()).count()
    }

    /// Messages received by a given replica.
    pub fn messages_into(&self, dst: ReplicaRef) -> impl Iterator<Item = &MessageRecord> + '_ {
        self.messages.iter().filter(move |m| m.dst == dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::MsgSpec;

    fn rref(task: u32, copy: usize) -> ReplicaRef {
        ReplicaRef::new(TaskId(task), copy)
    }

    fn mk_schedule() -> FtSchedule {
        // Two tasks, ε = 1: task 0 on P0/P1, task 1 on P1/P2.
        let mut s = FtSchedule::new(2, 1, CommModel::OnePort);
        s.push_replica(Replica {
            of: rref(0, 0),
            proc: ProcId(0),
            start: 0.0,
            finish: 2.0,
        });
        s.push_replica(Replica {
            of: rref(0, 1),
            proc: ProcId(1),
            start: 0.0,
            finish: 3.0,
        });
        s.push_replica(Replica {
            of: rref(1, 0),
            proc: ProcId(1),
            start: 4.0,
            finish: 6.0,
        });
        s.push_replica(Replica {
            of: rref(1, 1),
            proc: ProcId(2),
            start: 5.0,
            finish: 9.0,
        });
        let planned = vec![
            PlannedMsg {
                spec: MsgSpec {
                    edge: EdgeId(0),
                    src: rref(0, 0),
                    dst: rref(1, 0),
                    from: ProcId(0),
                    ready: 2.0,
                    w: 2.0,
                },
                start: 2.0,
                finish: 4.0,
            },
            PlannedMsg {
                spec: MsgSpec {
                    edge: EdgeId(0),
                    src: rref(0, 1),
                    dst: rref(1, 0),
                    from: ProcId(1),
                    ready: 3.0,
                    w: 0.0,
                },
                start: 3.0,
                finish: 3.0,
            },
        ];
        s.push_messages(ProcId(1), &planned);
        s
    }

    #[test]
    fn latency_is_max_over_tasks_of_min_over_replicas() {
        let s = mk_schedule();
        // Task 0: min(2, 3) = 2; task 1: min(6, 9) = 6 → latency 6.
        assert_eq!(s.latency(), 6.0);
        assert_eq!(s.full_makespan(), 9.0);
    }

    #[test]
    fn message_classification() {
        let s = mk_schedule();
        assert_eq!(s.num_remote_messages(), 1);
        assert_eq!(s.num_local_messages(), 1);
    }

    #[test]
    fn replica_lookup() {
        let s = mk_schedule();
        assert_eq!(s.replica(rref(0, 1)).proc, ProcId(1));
        assert_eq!(s.procs_of(TaskId(1)), vec![ProcId(1), ProcId(2)]);
        assert_eq!(s.epsilon(), 1);
    }

    #[test]
    fn message_queries() {
        let s = mk_schedule();
        assert_eq!(s.messages_into(rref(1, 0)).count(), 2);
        assert_eq!(s.messages_into(rref(1, 1)).count(), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let s = mk_schedule();
        let txt = serde_json::to_string(&s).unwrap();
        let s2: FtSchedule = serde_json::from_str(&txt).unwrap();
        assert_eq!(s2.latency(), s.latency());
        assert_eq!(s2.messages.len(), s.messages.len());
    }
}
