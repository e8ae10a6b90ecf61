//! FTBAR — Fault Tolerance Based Active Replication (Girault, Kalla,
//! Sighireanu, Sorel \[10\]).
//!
//! §4.1 of the paper: a list-scheduling algorithm driven by the *schedule
//! pressure* cost function
//!
//! ```text
//! σ(n)(ti, pj) = S(n)(ti, pj) + s(ti) − R(n−1)
//! ```
//!
//! where `S(ti, pj)` is the earliest start of `ti` on `pj` (top-down),
//! `s(ti)` the latest start measured bottom-up (we use the static bottom
//! level, i.e. the remaining path length through `ti`), and `R` the current
//! schedule length. At each step:
//!
//! 1. for every free task, keep the `Npf + 1 = ε + 1` processors with the
//!    *minimum* pressure (the task's best placements);
//! 2. across free tasks, pick the one whose best set has the *maximum*
//!    pressure — the most urgent task — and schedule all its replicas.
//!
//! Like FTSA, every replica of every predecessor communicates to every
//! replica of its successors (full fan-in). The recursive
//! Minimize-Start-Time duplication refinement of Ahmad & Kwok \[1\] is not
//! reproduced (documented simplification, DESIGN.md §2); it refines start
//! times but does not change the pressure-driven selection that the paper
//! blames for FTBAR's weaker schedules.

use crate::common::Ctx;
use ft_graph::TaskId;
use ft_model::{CommModel, FtSchedule};
use ft_platform::Instance;

/// Options for [`ftbar_with`].
#[derive(Clone, Copy, Debug)]
pub struct FtbarOptions {
    /// Number of supported failures ε (`Npf` in \[10\]).
    pub eps: usize,
    /// Communication model to schedule under.
    pub model: CommModel,
    /// Seed for random tie-breaking.
    pub seed: u64,
    /// Insertion slot policy (extension; see `FtsaOptions::insertion`).
    pub insertion: bool,
}

impl Default for FtbarOptions {
    fn default() -> Self {
        FtbarOptions {
            eps: 1,
            model: CommModel::OnePort,
            seed: 0,
            insertion: false,
        }
    }
}

/// Runs FTBAR with the given failure tolerance, model and tie-break seed.
pub fn ftbar(inst: &Instance, eps: usize, model: CommModel, seed: u64) -> FtSchedule {
    ftbar_with(
        inst,
        FtbarOptions {
            eps,
            model,
            seed,
            ..FtbarOptions::default()
        },
    )
}

/// Runs FTBAR with explicit options.
pub fn ftbar_with(inst: &Instance, opts: FtbarOptions) -> FtSchedule {
    let mut ctx = Ctx::new(inst, opts.eps, opts.model, opts.seed);
    if opts.insertion {
        ctx = ctx.with_insertion();
    }
    let mut schedule_length = 0.0f64; // R(n−1)
    let mut specs = Vec::new();
    while !ctx.pool.is_empty() {
        // Evaluate the pressure of every free task on every processor.
        let mut best_task: Option<(TaskId, f64, Vec<ft_platform::ProcId>)> = None;
        let free: Vec<TaskId> = ctx.pool.iter().collect();
        for t in free {
            let ranked = ctx.rank_candidates_full_fanin(t, 0, &[]);
            // The ε+1 minimum-pressure placements; pressure ordering for a
            // fixed task equals EST ordering (s(t) and R are constants), so
            // rank by EST.
            let mut by_est = ranked;
            by_est.sort_by(|a, b| a.est.total_cmp(&b.est).then_with(|| a.proc.cmp(&b.proc)));
            let chosen: Vec<_> = by_est.iter().take(opts.eps + 1).collect();
            // Urgency of the task: the *maximum* pressure within its best
            // set (its worst necessary placement).
            let worst_est = chosen.iter().map(|c| c.est).fold(0.0, f64::max);
            let sigma = worst_est + ctx.bl[t.index()] - schedule_length;
            let procs: Vec<_> = chosen.iter().map(|c| c.proc).collect();
            let better = match &best_task {
                None => true,
                Some((bt, bs, _)) => {
                    sigma
                        .total_cmp(bs)
                        .then_with(|| ctx.tie[t.index()].cmp(&ctx.tie[bt.index()]))
                        .then_with(|| bt.cmp(&t))
                        == std::cmp::Ordering::Greater
                }
            };
            if better {
                best_task = Some((t, sigma, procs));
            }
        }
        let (t, _, procs) = best_task.expect("pool not empty");
        ctx.pool.remove(t);
        for (copy, &proc) in procs.iter().enumerate() {
            ctx.full_fanin_specs(t, copy, proc, &mut specs);
            let r = ctx.commit(t, copy, proc, &specs);
            schedule_length = schedule_length.max(r.finish);
        }
        ctx.finish_task(t);
    }
    ctx.sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_graph::GraphBuilder;
    use ft_model::validate_schedule;
    use ft_platform::{random_instance, ExecMatrix, Platform, PlatformParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_instance() -> Instance {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        let d = b.add_task(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        b.add_edge(a, d, 2.0).unwrap();
        let g = b.build();
        Instance::new(
            g,
            Platform::uniform_clique(4, 1.0),
            ExecMatrix::from_fn(3, 4, |_, _| 1.0),
        )
    }

    #[test]
    fn produces_valid_replicated_schedules() {
        let inst = small_instance();
        for eps in [0usize, 1, 2] {
            let s = ftbar(&inst, eps, CommModel::OnePort, 0);
            let errs = validate_schedule(&inst, &s);
            assert!(errs.is_empty(), "eps {eps}: {errs:?}");
            assert!(s.replicas.iter().all(|r| r.len() == eps + 1));
        }
    }

    #[test]
    fn valid_on_random_graphs_both_models() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..3 {
            let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
            let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
            for model in [CommModel::OnePort, CommModel::MacroDataflow] {
                let s = ftbar(&inst, 1, model, 1);
                let errs = validate_schedule(&inst, &s);
                assert!(errs.is_empty(), "{model:?}: {errs:?}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = small_instance();
        let a = ftbar(&inst, 1, CommModel::OnePort, 3);
        let b = ftbar(&inst, 1, CommModel::OnePort, 3);
        assert_eq!(a.latency(), b.latency());
        assert_eq!(a.messages.len(), b.messages.len());
    }

    #[test]
    fn schedules_every_task_once() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_layered(&RandomDagParams::default().with_tasks(40), &mut rng);
        let v = g.num_tasks();
        let inst = random_instance(g, &PlatformParams::default(), 5.0, &mut rng);
        let s = ftbar(&inst, 2, CommModel::OnePort, 0);
        assert_eq!(s.replicas.len(), v);
        assert!(s.replicas.iter().all(|r| r.len() == 3));
    }
}
