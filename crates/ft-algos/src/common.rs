//! Shared scheduling machinery used by FTSA, FTBAR and CAFT.

use crate::prio::{mean_bottom_levels, FreePool, ReadyTracker};
use crate::subdag::SubDagSpec;
use ft_graph::TaskId;
use ft_model::timeline::Timeline;
use ft_model::{CommModel, FtSchedule, MsgSpec, NetworkState, PlannedMsg, Replica, ReplicaRef};
use ft_platform::{Instance, ProcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One evaluated `(task, processor)` placement: its start/finish
/// estimate.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// Candidate host processor.
    pub proc: ProcId,
    /// Earliest start time (equation (5)).
    pub est: f64,
    /// Earliest finish time `EST + E(t, P)`.
    pub eft: f64,
}

/// Mutable state threaded through a scheduling run.
pub struct Ctx<'a> {
    /// The problem instance.
    pub inst: &'a Instance,
    /// Supported failures ε.
    pub eps: usize,
    /// Port/link/processor availability.
    pub state: NetworkState,
    /// The schedule under construction.
    pub sched: FtSchedule,
    /// Static bottom levels (mean costs).
    pub bl: Vec<f64>,
    /// Dynamic top levels, set when a task becomes free.
    pub tl: Vec<f64>,
    /// Random tie-break keys (the paper breaks ties randomly).
    pub tie: Vec<u64>,
    /// Dependency tracking.
    pub ready: ReadyTracker,
    /// Current free tasks (the paper's list α).
    pub pool: FreePool,
    /// Insertion-based processor slots (extension): when true, a replica
    /// may fill an idle gap between already-committed computations (the
    /// classic HEFT insertion policy) instead of appending after `r(P)`.
    pub insertion: bool,
    /// Per-processor computation intervals, maintained in insertion mode.
    exec_slots: Vec<Timeline>,
    /// Processors replicas may be placed on. Defaults to the whole
    /// platform; sub-DAG rescheduling restricts it to the survivors.
    allowed: Vec<ProcId>,
    /// The platform's mean delay, the factor of every edge's mean
    /// communication time ([`Instance::mean_comm`]), computed once per run.
    mean_delay: f64,
    /// The batch [`Ctx::commit`] plans into, reused across commits.
    committed: Vec<PlannedMsg>,
    /// The successors [`Ctx::finish_task`] frees, reused across tasks.
    freed: Vec<TaskId>,
}

impl<'a> Ctx<'a> {
    /// Initializes a run: ε, communication model, tie-break seed. This is
    /// [`Ctx::for_subdag`] over the whole DAG: every task to schedule, no
    /// frontier sources, every processor, release 0.
    ///
    /// # Panics
    /// Panics unless the platform has at least `ε + 1` processors (space
    /// exclusion needs `ε + 1` distinct hosts per task).
    pub fn new(inst: &'a Instance, eps: usize, model: CommModel, seed: u64) -> Self {
        let v = inst.num_tasks();
        let procs: Vec<ProcId> = inst.platform.procs().collect();
        let spec = SubDagSpec {
            remnant: &vec![true; v],
            sources: &vec![Vec::new(); v],
            alive: &procs,
            release: 0.0,
        };
        Self::for_subdag(inst, eps, model, seed, &spec)
    }

    /// Initializes a *sub-DAG* run for online rescheduling: only
    /// `spec.remnant` tasks will be scheduled, placements are restricted
    /// to the `spec.alive` (surviving) processors, no computation starts
    /// before `spec.release`, and data produced by already-executed tasks
    /// is injected as frontier pseudo-replicas: copy `k` of non-remnant
    /// task `t` is `spec.sources[t][k]`, available from its time on. At
    /// most `eps + 1` copies per task are used, in the caller's order.
    ///
    /// The returned schedule contains real placements for remnant tasks
    /// and echoes the frontier pseudo-replicas for non-remnant ones (so
    /// message records resolve); callers only consume the remnant part.
    ///
    /// # Panics
    /// Panics unless `spec.alive` has at least `eps + 1` processors.
    pub fn for_subdag(
        inst: &'a Instance,
        eps: usize,
        model: CommModel,
        seed: u64,
        spec: &SubDagSpec<'_>,
    ) -> Self {
        let m = inst.num_procs();
        let v = inst.graph.num_tasks();
        assert_eq!(spec.remnant.len(), v, "remnant mask must cover every task");
        assert_eq!(spec.sources.len(), v, "sources must cover every task");
        assert!(
            spec.alive.len() > eps,
            "need at least ε+1 = {} processors, got {}",
            eps + 1,
            spec.alive.len()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let tie: Vec<u64> = (0..v).map(|_| rng.gen()).collect();
        let ready = ReadyTracker::for_subset(&inst.graph, spec.remnant);
        let mut pool = FreePool::new();
        for t in ready.initial() {
            pool.push(t);
        }
        let mut state = NetworkState::new(m, model);
        let mean_delay = inst.platform.mean_delay();
        for &p in spec.alive {
            state.commit_exec(p, spec.release);
        }
        // Pre-populate the schedule with the frontier pseudo-replicas so
        // the fan-in builders resolve non-remnant predecessors.
        let mut sched = FtSchedule::new(v, eps, model);
        for (t, srcs) in spec.sources.iter().enumerate() {
            debug_assert!(
                srcs.is_empty() || !spec.remnant[t],
                "remnant task {t} cannot also be a data source"
            );
            for (copy, &(proc, ready)) in srcs.iter().take(eps + 1).enumerate() {
                sched.push_replica(Replica {
                    of: ReplicaRef::new(TaskId::from_index(t), copy),
                    proc,
                    start: ready,
                    finish: ready,
                });
            }
        }
        Ctx {
            inst,
            eps,
            state,
            sched,
            bl: mean_bottom_levels(inst, mean_delay),
            tl: vec![spec.release; v],
            tie,
            ready,
            pool,
            insertion: false,
            exec_slots: vec![Timeline::new(); m],
            allowed: spec.alive.to_vec(),
            mean_delay,
            committed: Vec::new(),
            freed: Vec::new(),
        }
    }

    /// The processors replicas may be placed on (the whole platform for
    /// from-scratch runs, the survivors for sub-DAG rescheduling).
    pub fn candidate_procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.allowed.iter().copied()
    }

    /// Switches this run to the insertion slot policy (see
    /// [`Ctx::insertion`]).
    pub fn with_insertion(mut self) -> Self {
        self.insertion = true;
        self
    }

    /// The list-scheduling priority `tl(t) + bl(t)`.
    #[inline]
    pub fn priority(&self, t: TaskId) -> f64 {
        self.tl[t.index()] + self.bl[t.index()]
    }

    /// Pops the most urgent free task (`H(α)`).
    pub fn pop_task(&mut self) -> Option<TaskId> {
        let tl = &self.tl;
        let bl = &self.bl;
        let tie = &self.tie;
        self.pool
            .pop_max(|t| tl[t.index()] + bl[t.index()], |t| tie[t.index()])
    }

    /// Full fan-in message specs for placing replica `copy` of `t` on
    /// `dst`, written into `specs`: every replica of every predecessor
    /// sends a copy — except that, per the paper's §6 note, if some
    /// replica of a predecessor is co-located with `dst`, only that (free,
    /// local) copy is used.
    pub fn full_fanin_specs(&self, t: TaskId, copy: usize, dst: ProcId, specs: &mut Vec<MsgSpec>) {
        self.fanin_specs(t, copy, dst, |_| true, specs)
    }

    /// The fan-in builder behind [`Ctx::full_fanin_specs`]: a co-located
    /// replica of a predecessor sends for free, and it is the only sender
    /// when `local_suffices` holds for it; otherwise every remote replica
    /// of that predecessor sends too. `specs` is cleared first.
    pub(crate) fn fanin_specs(
        &self,
        t: TaskId,
        copy: usize,
        dst: ProcId,
        local_suffices: impl Fn(&Replica) -> bool,
        specs: &mut Vec<MsgSpec>,
    ) {
        let g = &self.inst.graph;
        specs.clear();
        let dst_ref = ReplicaRef::new(t, copy);
        for &e in g.in_edges(t) {
            let pred = g.edge(e).src;
            let reps = self.sched.replicas_of(pred);
            debug_assert!(!reps.is_empty(), "predecessor {pred} not scheduled");
            if let Some(local) = reps.iter().find(|r| r.proc == dst) {
                specs.push(MsgSpec {
                    edge: e,
                    src: local.of,
                    dst: dst_ref,
                    from: local.proc,
                    ready: local.finish,
                    w: 0.0,
                });
                if local_suffices(local) {
                    continue;
                }
            }
            for r in reps.iter().filter(|r| r.proc != dst) {
                specs.push(MsgSpec {
                    edge: e,
                    src: r.of,
                    dst: dst_ref,
                    from: r.proc,
                    ready: r.finish,
                    w: self.inst.comm_time(e, r.proc, dst),
                });
            }
        }
    }

    /// Evaluates placing replica `copy` of `t` on `dst` with the given
    /// incoming messages, planned into the scratch batch `planned` (pure;
    /// nothing is committed).
    ///
    /// The earliest start (equation (5)) waits for `r(P)` and, per
    /// predecessor edge, the *earliest* arriving copy of the data.
    pub fn eval(
        &self,
        t: TaskId,
        dst: ProcId,
        specs: &[MsgSpec],
        planned: &mut Vec<PlannedMsg>,
    ) -> Candidate {
        self.state.plan_batch(dst, specs, planned);
        let est = self.est_of(t, dst, planned);
        Candidate {
            proc: dst,
            est,
            eft: est + self.inst.exec_time(t, dst),
        }
    }

    /// Earliest start of `t` on `dst` given a planned batch.
    ///
    /// Append policy: equation (5) — waits for `r(P)` and the earliest copy
    /// of each input. Insertion policy: waits for the inputs, then takes
    /// the earliest idle gap on `dst` that fits `E(t, dst)`.
    pub fn est_of(&self, t: TaskId, dst: ProcId, planned: &[PlannedMsg]) -> f64 {
        let g = &self.inst.graph;
        let mut est = if self.insertion {
            0.0
        } else {
            self.state.proc_ready(dst)
        };
        for &e in g.in_edges(t) {
            let first_arrival = planned
                .iter()
                .filter(|p| p.spec.edge == e)
                .map(|p| p.finish)
                .fold(f64::INFINITY, f64::min);
            debug_assert!(
                first_arrival.is_finite(),
                "no planned message realizes edge {e} into {t}"
            );
            est = est.max(first_arrival);
        }
        if self.insertion {
            est = self.exec_slots[dst.index()].earliest_gap(est, self.inst.exec_time(t, dst));
        }
        est
    }

    /// Commits replica `copy` of `t` on `dst` with the given specs:
    /// re-plans against the *current* state (which may have advanced since
    /// evaluation), then books messages, ports and the computation.
    /// Returns the committed replica.
    pub fn commit(&mut self, t: TaskId, copy: usize, dst: ProcId, specs: &[MsgSpec]) -> Replica {
        self.state.plan_batch(dst, specs, &mut self.committed);
        let est = self.est_of(t, dst, &self.committed);
        let finish = est + self.inst.exec_time(t, dst);
        self.state.commit_batch(dst, &self.committed);
        if self.insertion {
            self.exec_slots[dst.index()].add(est, finish, t.0);
        } else {
            self.state.commit_exec(dst, finish);
        }
        self.sched.push_messages(dst, &self.committed);
        let replica = Replica {
            of: ReplicaRef::new(t, copy),
            proc: dst,
            start: est,
            finish,
        };
        self.sched.push_replica(replica);
        replica
    }

    /// Marks `t` fully scheduled: updates successor top levels and frees
    /// the ones whose predecessors are now all placed.
    ///
    /// `tl(s) = max over in-edges (earliest replica finish of pred + mean
    /// comm)` — the dynamic top level on the partially mapped graph.
    pub fn finish_task(&mut self, t: TaskId) {
        let g = &self.inst.graph;
        self.ready.complete(g, t, &mut self.freed);
        for &s in &self.freed {
            let mut tl = 0.0f64;
            for &e in g.in_edges(s) {
                let pred = g.edge(e).src;
                let first_finish = self
                    .sched
                    .replicas_of(pred)
                    .iter()
                    .map(|r| r.finish)
                    .fold(f64::INFINITY, f64::min);
                tl = tl.max(first_finish + g.edge(e).volume * self.mean_delay);
            }
            self.tl[s.index()] = tl;
            self.pool.push(s);
        }
    }

    /// Evaluates every allowed processor for replica `copy` of `t` with
    /// full fan-in and returns candidates sorted by (EFT, proc id).
    /// `excluded` processors are skipped.
    pub fn rank_candidates_full_fanin(
        &self,
        t: TaskId,
        copy: usize,
        excluded: &[ProcId],
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        let (mut specs, mut planned) = (Vec::new(), Vec::new());
        for p in self.candidate_procs() {
            if excluded.contains(&p) {
                continue;
            }
            self.full_fanin_specs(t, copy, p, &mut specs);
            out.push(self.eval(t, p, &specs, &mut planned));
        }
        out.sort_by(|a, b| a.eft.total_cmp(&b.eft).then_with(|| a.proc.cmp(&b.proc)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::GraphBuilder;
    use ft_platform::{ExecMatrix, Platform};

    /// a → c on 3 uniform processors (delay 1, exec 1, volume 2).
    fn inst() -> Instance {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        let g = b.build();
        Instance::new(
            g,
            Platform::uniform_clique(3, 1.0),
            ExecMatrix::from_fn(2, 3, |_, _| 1.0),
        )
    }

    #[test]
    fn entry_tasks_have_no_specs() {
        let inst = inst();
        let ctx = Ctx::new(&inst, 1, CommModel::OnePort, 0);
        let mut specs = vec![];
        ctx.full_fanin_specs(TaskId(0), 0, ProcId(0), &mut specs);
        assert!(specs.is_empty());
    }

    #[test]
    fn colocated_pred_short_circuits_fanin() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 1, CommModel::OnePort, 0);
        // Place both replicas of task 0.
        ctx.commit(TaskId(0), 0, ProcId(0), &[]);
        ctx.commit(TaskId(0), 1, ProcId(1), &[]);
        // Towards P0 (hosting a copy): a single local spec.
        let mut specs = vec![];
        ctx.full_fanin_specs(TaskId(1), 0, ProcId(0), &mut specs);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].w, 0.0);
        // Towards P2 (no copy): one spec per replica.
        ctx.full_fanin_specs(TaskId(1), 0, ProcId(2), &mut specs);
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.w == 2.0));
    }

    #[test]
    fn est_waits_for_first_copy_only() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 1, CommModel::OnePort, 0);
        ctx.commit(TaskId(0), 0, ProcId(0), &[]);
        ctx.commit(TaskId(0), 1, ProcId(1), &[]);
        let mut specs = vec![];
        ctx.full_fanin_specs(TaskId(1), 0, ProcId(2), &mut specs);
        let cand = ctx.eval(TaskId(1), ProcId(2), &specs, &mut vec![]);
        // Both copies finish at 1; the first transfer arrives at 3 (w = 2),
        // the second is serialized behind it at the receive port — but EST
        // only waits for the first: 3.
        assert_eq!(cand.est, 3.0);
        assert_eq!(cand.eft, 4.0);
    }

    #[test]
    fn commit_books_everything() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 0, CommModel::OnePort, 0);
        assert_eq!(ctx.pop_task(), Some(TaskId(0)));
        let r = ctx.commit(TaskId(0), 0, ProcId(1), &[]);
        assert_eq!(r.start, 0.0);
        assert_eq!(r.finish, 1.0);
        assert_eq!(ctx.state.proc_ready(ProcId(1)), 1.0);
        ctx.finish_task(TaskId(0));
        // Task 1 became free with tl = finish + mean comm = 1 + 2.
        assert_eq!(ctx.tl[1], 3.0);
        assert_eq!(ctx.pool.len(), 1);
    }

    #[test]
    fn rank_candidates_prefers_colocated() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 0, CommModel::OnePort, 0);
        ctx.commit(TaskId(0), 0, ProcId(1), &[]);
        ctx.finish_task(TaskId(0));
        let cands = ctx.rank_candidates_full_fanin(TaskId(1), 0, &[]);
        assert_eq!(
            cands[0].proc,
            ProcId(1),
            "local placement avoids the transfer"
        );
        assert_eq!(cands[0].eft, 2.0);
        assert!(cands[1].eft > 2.0);
    }

    #[test]
    fn excluded_procs_are_skipped() {
        let inst = inst();
        let ctx = Ctx::new(&inst, 0, CommModel::OnePort, 0);
        let cands = ctx.rank_candidates_full_fanin(TaskId(0), 0, &[ProcId(0), ProcId(2)]);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].proc, ProcId(1));
    }

    #[test]
    #[should_panic]
    fn too_few_processors_rejected() {
        let inst = inst();
        Ctx::new(&inst, 3, CommModel::OnePort, 0);
    }
}
