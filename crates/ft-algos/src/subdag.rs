//! Incremental rescheduling: CAFT on the not-yet-executed sub-DAG.
//!
//! When processors crash *during* execution (the online model of
//! `ft-runtime`), the `Reschedule` recovery policy re-runs CAFT on the
//! tasks that have not produced any result yet, against the surviving
//! platform. This module provides that entry point without duplicating the
//! scheduling machinery: [`Ctx::for_subdag`] seeds the one CAFT driver
//! that also serves [`caft`](crate::caft::caft) and
//! [`caft_windowed`](crate::windowed::caft_windowed) with
//!
//! * a **remnant mask** — the tasks still to execute (closed under
//!   successors by construction);
//! * **frontier sources** — for each already-executed task feeding the
//!   remnant, the processors holding its output and the times the data
//!   became available, in the caller's copy order, injected as
//!   pseudo-replicas so the ordinary fan-in and one-to-one machinery
//!   treats them like any scheduled predecessor;
//! * the **surviving processors** and a **release time** before which no
//!   new computation may start (detection time of the failure).
//!
//! The result is a regular [`FtSchedule`]: remnant tasks carry fresh
//! placements (`ε + 1` replicas on survivors), non-remnant tasks echo their
//! frontier pseudo-replicas, and message records route data from frontier
//! copies to new replicas. A remnant task whose frontier data was lost on
//! every surviving processor is unschedulable; it is skipped, its
//! descendants stay unscheduled (empty replica lists), and the caller
//! observes the gap (see [`SubDagOutcome::unscheduled`]).

use crate::caft::{place_free_tasks, CaftOptions};
use crate::common::Ctx;
use ft_graph::TaskId;
use ft_model::FtSchedule;
use ft_platform::{Instance, ProcId};

/// The input of an incremental rescheduling run.
#[derive(Clone, Copy, Debug)]
pub struct SubDagSpec<'a> {
    /// `remnant[t]`: task `t` still needs to execute.
    pub remnant: &'a [bool],
    /// `sources[t]`: surviving copies of the output of non-remnant task
    /// `t`, in copy order — host processor and the time the data is
    /// available there. Empty for remnant tasks and for tasks that feed
    /// nothing in the remnant.
    pub sources: &'a [Vec<(ProcId, f64)>],
    /// Surviving processors, candidates for the new placements.
    pub alive: &'a [ProcId],
    /// No new computation or transfer decision starts before this time
    /// (typically the failure-detection instant).
    pub release: f64,
}

/// The output of [`caft_on_subdag`].
#[derive(Clone, Debug)]
pub struct SubDagOutcome {
    /// The repaired schedule (remnant placements + frontier echoes).
    pub schedule: FtSchedule,
    /// Remnant tasks that could not be (re)scheduled because some
    /// predecessor's data survives nowhere, in topological order.
    pub unscheduled: Vec<TaskId>,
}

/// Re-runs CAFT over the remnant sub-DAG on the surviving platform.
///
/// `opts.eps` is the replication degree of the *new* placements; it is
/// capped internally so the survivors can host `ε + 1` space-exclusive
/// copies. The run is deterministic in `(inst, spec, opts)`.
pub fn caft_on_subdag(inst: &Instance, spec: &SubDagSpec, opts: &CaftOptions) -> SubDagOutcome {
    let eps = opts.eps.min(spec.alive.len().saturating_sub(1));
    let mut ctx = Ctx::for_subdag(inst, eps, opts.model, opts.seed, spec);
    let mut unscheduled = place_free_tasks(&mut ctx, &CaftOptions { eps, ..*opts }, 1);
    // Tasks never freed (descendants of unscheduled ones) are also gaps.
    for t in inst.graph.tasks() {
        if spec.remnant[t.index()]
            && ctx.sched.replicas_of(t).is_empty()
            && !unscheduled.contains(&t)
        {
            unscheduled.push(t);
        }
    }
    SubDagOutcome {
        schedule: ctx.sched,
        unscheduled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::GraphBuilder;
    use ft_model::CommModel;
    use ft_platform::{ExecMatrix, Platform};

    /// chain a → b → c, plus d independent; 4 uniform processors.
    fn chain_instance() -> Instance {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task(1.0);
        let t1 = b.add_task(1.0);
        let t2 = b.add_task(1.0);
        let _t3 = b.add_task(1.0);
        b.add_edge(t0, t1, 2.0).unwrap();
        b.add_edge(t1, t2, 2.0).unwrap();
        let g = b.build();
        Instance::new(
            g,
            Platform::uniform_clique(4, 1.0),
            ExecMatrix::from_fn(4, 4, |_, _| 1.0),
        )
    }

    #[test]
    fn reschedules_tail_on_survivors() {
        let inst = chain_instance();
        // t0 finished at 1.0 on P0 and P1; t1, t2, t3 still to run; P3 died.
        let spec = SubDagSpec {
            remnant: &[false, true, true, true],
            sources: &[
                vec![(ProcId(0), 1.0), (ProcId(1), 1.0)],
                vec![],
                vec![],
                vec![],
            ],
            alive: &[ProcId(0), ProcId(1), ProcId(2)],
            release: 2.0,
        };
        let opts = CaftOptions {
            eps: 1,
            model: CommModel::OnePort,
            ..Default::default()
        };
        let out = caft_on_subdag(&inst, &spec, &opts);
        assert!(out.unscheduled.is_empty());
        for t in [1u32, 2, 3] {
            let reps = out.schedule.replicas_of(TaskId(t));
            assert_eq!(reps.len(), 2, "task {t} gets ε+1 replicas");
            for r in reps {
                assert!(spec.alive.contains(&r.proc), "placed on a survivor");
                assert!(r.start >= spec.release, "respects the release time");
            }
            // Space exclusion among the new replicas.
            assert_ne!(reps[0].proc, reps[1].proc);
        }
        // Frontier echo: t0 keeps its two pseudo-replicas.
        assert_eq!(out.schedule.replicas_of(TaskId(0)).len(), 2);
    }

    #[test]
    fn caps_replication_to_survivors() {
        let inst = chain_instance();
        let spec = SubDagSpec {
            remnant: &[false, true, true, true],
            sources: &[vec![(ProcId(0), 1.0)], vec![], vec![], vec![]],
            alive: &[ProcId(0), ProcId(1)],
            release: 1.0,
        };
        let opts = CaftOptions {
            eps: 3,
            model: CommModel::OnePort,
            ..Default::default()
        };
        let out = caft_on_subdag(&inst, &spec, &opts);
        assert!(out.unscheduled.is_empty());
        assert_eq!(
            out.schedule.replicas_of(TaskId(1)).len(),
            2,
            "ε capped at 1"
        );
    }

    #[test]
    fn lost_frontier_data_marks_subtree_unschedulable() {
        let inst = chain_instance();
        // t0 executed but its only copy died with its processor: t1 and t2
        // are unrecoverable; independent t3 still reschedules.
        let spec = SubDagSpec {
            remnant: &[false, true, true, true],
            sources: &[vec![], vec![], vec![], vec![]],
            alive: &[ProcId(0), ProcId(1), ProcId(2)],
            release: 2.0,
        };
        let opts = CaftOptions {
            eps: 1,
            model: CommModel::OnePort,
            ..Default::default()
        };
        let out = caft_on_subdag(&inst, &spec, &opts);
        assert_eq!(out.unscheduled, vec![TaskId(1), TaskId(2)]);
        assert!(out.schedule.replicas_of(TaskId(1)).is_empty());
        assert!(out.schedule.replicas_of(TaskId(2)).is_empty());
        assert_eq!(out.schedule.replicas_of(TaskId(3)).len(), 2);
    }

    #[test]
    fn deterministic() {
        let inst = chain_instance();
        let spec = SubDagSpec {
            remnant: &[false, true, true, true],
            sources: &[vec![(ProcId(0), 1.0)], vec![], vec![], vec![]],
            alive: &[ProcId(0), ProcId(1), ProcId(2)],
            release: 2.0,
        };
        let opts = CaftOptions {
            eps: 1,
            model: CommModel::OnePort,
            seed: 9,
            ..Default::default()
        };
        let a = caft_on_subdag(&inst, &spec, &opts);
        let b = caft_on_subdag(&inst, &spec, &opts);
        assert_eq!(a.schedule.latency(), b.schedule.latency());
        assert_eq!(a.schedule.messages.len(), b.schedule.messages.len());
    }

    /// Hardened repair of an ε = 2 CAFT schedule on 4 processors, cut at
    /// half its latency with `lost` gone: the remnant is every task with
    /// no replica finished by the cut (closed under successors), the
    /// sources the other tasks' replicas off `lost` by (finish, proc).
    /// Checks every remnant task gets ε + 1 replicas on distinct
    /// survivors.
    fn hardened_repair_on_shrunk_platform(seed: u64, tasks: usize, lost: ProcId) {
        use ft_graph::gen::{random_layered, RandomDagParams};
        use ft_graph::topo::topological_order;
        use ft_platform::{random_instance, PlatformParams};
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_layered(&RandomDagParams::default().with_tasks(tasks), &mut rng);
        let params = PlatformParams::default().with_procs(4);
        let inst = random_instance(g, &params, 1.0, &mut rng);
        let sched = crate::caft::caft(&inst, 2, CommModel::OnePort, 0);
        let cut = 0.5 * sched.latency();
        let g = &inst.graph;
        let mut remnant = vec![false; g.num_tasks()];
        for t in topological_order(g) {
            remnant[t.index()] = g.predecessors(t).any(|p| remnant[p.index()])
                || sched.replicas_of(t).iter().all(|r| r.finish > cut);
        }
        let sources: Vec<Vec<(ProcId, f64)>> = g
            .tasks()
            .map(|t| {
                let mut copies: Vec<(ProcId, f64)> = sched
                    .replicas_of(t)
                    .iter()
                    .filter(|r| !remnant[t.index()] && r.proc != lost)
                    .map(|r| (r.proc, r.finish))
                    .collect();
                copies.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                copies
            })
            .collect();
        let alive: Vec<ProcId> = inst.platform.procs().filter(|&p| p != lost).collect();
        let spec = SubDagSpec {
            remnant: &remnant,
            sources: &sources,
            alive: &alive,
            release: cut,
        };
        let opts = CaftOptions {
            eps: 2,
            disjoint_lineages: true,
            ..Default::default()
        };
        let out = caft_on_subdag(&inst, &spec, &opts);
        for t in g.tasks().filter(|t| remnant[t.index()]) {
            if out.unscheduled.contains(&t) {
                continue;
            }
            let mut hosts: Vec<ProcId> = out.schedule.procs_of(t);
            assert_eq!(hosts.len(), 3, "task {t} gets ε+1 replicas");
            assert!(hosts.iter().all(|p| alive.contains(p)), "on survivors");
            hosts.sort();
            hosts.dedup();
            assert_eq!(hosts.len(), 3, "on distinct processors");
        }
    }

    #[test]
    fn hardened_repair_counts_only_survivors_as_clean() {
        // Only survivors can host the fill-ins, so only they count as
        // clean: counting the lost processor too leaves the last fill-in
        // with no admissible host (the first case did so).
        hardened_repair_on_shrunk_platform(0, 10, ProcId(1));
        for seed in 1..8 {
            for lost in 0..4 {
                hardened_repair_on_shrunk_platform(seed, 10 + seed as usize, ProcId(lost));
            }
        }
    }
}
