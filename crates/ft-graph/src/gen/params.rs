//! Parameters of the paper's random workloads.

use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// Parameters for [`random_layered`](super::random_layered), defaulting to
/// the values of §6 of the paper:
///
/// * number of tasks uniform in `[80, 120]`;
/// * per-task in-degree in `[1, 3]`;
/// * task work uniform in `[10, 100]` (the paper leaves the computation
///   range unspecified; only the *ratio* to communication — the granularity
///   — matters, and the harness rescales volumes to the target granularity
///   after platform generation);
/// * message volume uniform in `[50, 150]`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomDagParams {
    /// Range of the number of tasks `v`.
    pub tasks: RangeInclusive<usize>,
    /// Range of the in-degree drawn for each non-entry task.
    pub degree: RangeInclusive<usize>,
    /// Range of abstract work per task.
    pub work: RangeInclusive<f64>,
    /// Range of data volume per edge (the paper's `[50, 150]`).
    pub volume: RangeInclusive<f64>,
    /// Mean number of tasks per layer; the number of layers is
    /// `ceil(v / layer_width)`. The default of 8 gives graphs of width
    /// comparable to the 10–20 processor platforms of the paper.
    pub layer_width: usize,
    /// Probability that a predecessor is drawn from *any* earlier layer
    /// instead of the immediately previous one (skip edges).
    pub skip_prob: f64,
}

impl Default for RandomDagParams {
    fn default() -> Self {
        RandomDagParams {
            tasks: 80..=120,
            degree: 1..=3,
            work: 10.0..=100.0,
            volume: 50.0..=150.0,
            layer_width: 8,
            skip_prob: 0.2,
        }
    }
}

impl RandomDagParams {
    /// Paper defaults with a fixed task count (useful for scaling benches).
    pub fn with_tasks(mut self, v: usize) -> Self {
        self.tasks = v..=v;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = RandomDagParams::default();
        assert_eq!(p.tasks, 80..=120);
        assert_eq!(p.degree, 1..=3);
        assert_eq!(p.volume, 50.0..=150.0);
    }

    #[test]
    fn builders() {
        let p = RandomDagParams::default().with_tasks(200);
        assert_eq!(p.tasks, 200..=200);
    }
}
