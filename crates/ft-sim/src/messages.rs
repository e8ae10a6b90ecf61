//! Communication counting — the quantitative side of Proposition 5.1.
//!
//! A schedule without replication carries one message per DAG edge (`e`
//! total). Active replication multiplies this: FTSA/FTBAR route every
//! replica of a predecessor to every replica of a successor — up to
//! `e(ε+1)²` — while CAFT's one-to-one mapping brings the count down to
//! `e(ε+1)` on favorable graphs (exactly on fork/outforest graphs,
//! Proposition 5.1).

use ft_model::FtSchedule;
use ft_platform::Instance;
use serde::{Deserialize, Serialize};

/// Message-count statistics of a schedule, with the paper's bounds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MessageStats {
    /// Edges in the DAG (`e`).
    pub edges: usize,
    /// Inter-processor messages actually scheduled.
    pub remote: usize,
    /// Intra-processor (free) messages.
    pub local: usize,
    /// Linear bound `e(ε+1)` — Proposition 5.1's target.
    pub linear_bound: usize,
    /// Quadratic bound `e(ε+1)²` — the FTSA/FTBAR worst case.
    pub quadratic_bound: usize,
}

impl MessageStats {
    /// Total messages (remote + local).
    pub fn total(&self) -> usize {
        self.remote + self.local
    }
}

/// Tallies the message counts of a schedule.
pub fn message_stats(inst: &Instance, sched: &FtSchedule) -> MessageStats {
    let e = inst.graph.num_edges();
    let r = sched.num_replicas;
    MessageStats {
        edges: e,
        remote: sched.num_remote_messages(),
        local: sched.num_local_messages(),
        linear_bound: e * r,
        quadratic_bound: e * r * r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_algos::{caft, ftsa, CommModel};
    use ft_graph::gen::{random_layered, random_outforest, RandomDagParams};
    use ft_platform::{random_instance, ExecMatrix, Platform, PlatformParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn caft_outforest_hits_linear_bound() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = random_outforest(30, 0.1, 1.0..=2.0, 1.0..=3.0, &mut rng);
        let v = g.num_tasks();
        let inst = Instance::new(
            g,
            Platform::uniform_clique(10, 1.0),
            ExecMatrix::from_fn(v, 10, |_, _| 1.0),
        );
        let eps = 2;
        let s = caft(&inst, eps, CommModel::OnePort, 0);
        let stats = message_stats(&inst, &s);
        assert!(stats.total() <= stats.linear_bound);
    }

    #[test]
    fn ftsa_respects_quadratic_bound_and_exceeds_linear() {
        let mut rng = StdRng::seed_from_u64(52);
        let g = random_layered(&RandomDagParams::default(), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 0.5, &mut rng);
        let eps = 3;
        let s = ftsa(&inst, eps, CommModel::OnePort, 0);
        let stats = message_stats(&inst, &s);
        assert!(stats.total() <= stats.quadratic_bound);
        assert!(
            stats.total() > stats.linear_bound,
            "full fan-in should exceed the linear regime: {} <= {}",
            stats.total(),
            stats.linear_bound
        );
    }

    #[test]
    fn stats_fields_consistent() {
        let mut rng = StdRng::seed_from_u64(53);
        let g = random_layered(&RandomDagParams::default().with_tasks(20), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let s = caft(&inst, 1, CommModel::OnePort, 0);
        let stats = message_stats(&inst, &s);
        assert_eq!(stats.edges, inst.graph.num_edges());
        assert_eq!(stats.total(), s.messages.len());
        assert_eq!(stats.quadratic_bound, stats.linear_bound * 2);
    }
}
