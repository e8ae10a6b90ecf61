//! FTSA — Fault Tolerant Scheduling Algorithm (Benoit, Hakem, Robert \[4\]).
//!
//! §4.2 of the paper: a fault-tolerant extension of HEFT. At each step the
//! free task with the highest priority is selected and its mapping is
//! simulated on all processors; the `ε + 1` processors allowing the
//! earliest finish time are kept, and one replica is committed on each.
//! Every replica of every predecessor sends its result to every replica of
//! the task (full fan-in), so a schedule carries up to `e(ε+1)²` messages —
//! the communication blow-up CAFT is designed to avoid.
//!
//! The one-port adaptation (§4.3) routes all transfers through the
//! [`ft_model::NetworkState`] port accounting (equations (4)–(6));
//! replica placements are chosen from one ranking pass (as in the original
//! algorithm) and committed in EFT order, re-serializing each batch against
//! the live port state.

use crate::common::Ctx;
use ft_model::{CommModel, FtSchedule};
use ft_platform::Instance;

/// Options for [`ftsa_with`].
#[derive(Clone, Copy, Debug)]
pub struct FtsaOptions {
    /// Number of supported failures ε (each task gets ε + 1 replicas).
    pub eps: usize,
    /// Communication model to schedule under.
    pub model: CommModel,
    /// Seed for random tie-breaking.
    pub seed: u64,
    /// Insertion slot policy (extension): replicas may fill idle gaps
    /// between already-committed computations instead of appending after
    /// the processor's last task.
    pub insertion: bool,
}

impl Default for FtsaOptions {
    fn default() -> Self {
        FtsaOptions {
            eps: 1,
            model: CommModel::OnePort,
            seed: 0,
            insertion: false,
        }
    }
}

/// Runs FTSA with the given failure tolerance, model and tie-break seed.
pub fn ftsa(inst: &Instance, eps: usize, model: CommModel, seed: u64) -> FtSchedule {
    ftsa_with(
        inst,
        FtsaOptions {
            eps,
            model,
            seed,
            ..FtsaOptions::default()
        },
    )
}

/// Runs FTSA with explicit options.
pub fn ftsa_with(inst: &Instance, opts: FtsaOptions) -> FtSchedule {
    let mut ctx = Ctx::new(inst, opts.eps, opts.model, opts.seed);
    if opts.insertion {
        ctx = ctx.with_insertion();
    }
    let mut specs = Vec::new();
    while let Some(t) = ctx.pop_task() {
        // One ranking pass over all processors (the paper keeps the first
        // ε + 1 processors that allow the minimum finish time).
        let ranked = ctx.rank_candidates_full_fanin(t, 0, &[]);
        debug_assert!(ranked.len() > opts.eps);
        let chosen: Vec<_> = ranked.iter().take(opts.eps + 1).map(|c| c.proc).collect();
        for (copy, &proc) in chosen.iter().enumerate() {
            // Re-plan against the live state: earlier copies of t have
            // already consumed port time.
            ctx.full_fanin_specs(t, copy, proc, &mut specs);
            ctx.commit(t, copy, proc, &specs);
        }
        ctx.finish_task(t);
    }
    ctx.sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_graph::{GraphBuilder, TaskId};
    use ft_model::validate_schedule;
    use ft_platform::{random_instance, ExecMatrix, Platform, PlatformParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_instance(m: usize) -> Instance {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        let d = b.add_task(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        b.add_edge(c, d, 2.0).unwrap();
        let g = b.build();
        Instance::new(
            g,
            Platform::uniform_clique(m, 1.0),
            ExecMatrix::from_fn(3, m, |_, _| 1.0),
        )
    }

    #[test]
    fn chain_eps0_is_sequential_on_one_proc() {
        let inst = chain_instance(3);
        let s = ftsa(&inst, 0, CommModel::OnePort, 0);
        assert!(validate_schedule(&inst, &s).is_empty());
        // All on one processor, back to back: latency 3.
        assert_eq!(s.latency(), 3.0);
        assert_eq!(s.num_remote_messages(), 0);
    }

    #[test]
    fn replicates_eps_plus_one_times() {
        let inst = chain_instance(4);
        let s = ftsa(&inst, 2, CommModel::OnePort, 0);
        assert!(validate_schedule(&inst, &s).is_empty());
        for t in 0..3 {
            assert_eq!(s.replicas_of(TaskId(t)).len(), 3);
        }
    }

    #[test]
    fn message_count_bounded_by_quadratic_blowup() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_layered(&RandomDagParams::default().with_tasks(40), &mut rng);
        let e = g.num_edges();
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        for eps in [1usize, 2] {
            let s = ftsa(&inst, eps, CommModel::OnePort, 0);
            assert!(validate_schedule(&inst, &s).is_empty());
            let total = s.num_remote_messages() + s.num_local_messages();
            assert!(
                total <= e * (eps + 1) * (eps + 1),
                "total {total} > e(ε+1)² = {}",
                e * (eps + 1) * (eps + 1)
            );
            // And strictly more than e unless everything co-locates.
            assert!(total >= e);
        }
    }

    #[test]
    fn valid_under_both_models_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(2);
        for seed in 0..3u64 {
            let g = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
            let inst = random_instance(g, &PlatformParams::default(), 0.5, &mut rng);
            for model in [CommModel::OnePort, CommModel::MacroDataflow] {
                let s = ftsa(&inst, 1, model, seed);
                let errs = validate_schedule(&inst, &s);
                assert!(errs.is_empty(), "{model:?}: {errs:?}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = chain_instance(5);
        let a = ftsa(&inst, 1, CommModel::OnePort, 7);
        let b = ftsa(&inst, 1, CommModel::OnePort, 7);
        assert_eq!(a.latency(), b.latency());
        assert_eq!(a.messages.len(), b.messages.len());
    }

    #[test]
    fn one_port_latency_at_least_macro_dataflow() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_layered(&RandomDagParams::default().with_tasks(50), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 0.3, &mut rng);
        let op = ftsa(&inst, 2, CommModel::OnePort, 0);
        let md = ftsa(&inst, 2, CommModel::MacroDataflow, 0);
        // Contention can only hurt (fine-grain graph, lots of messages).
        assert!(
            op.latency() >= md.latency() * 0.99,
            "one-port {} < macro {}",
            op.latency(),
            md.latency()
        );
    }
}
