//! Processor lifetime and repair distributions.
//!
//! The evaluation tradition the paper builds on (HEFT \[27\], FTBAR \[10\])
//! models fail-stop processors whose time-to-failure follows a lifetime
//! distribution; exponential (constant hazard rate) and Weibull
//! (aging / infant-mortality hazards) are the standard choices. A
//! [`LifetimeDist`] turns a seeded RNG into per-processor crash times, and
//! [`draw_scenario`] packages a platform-wide draw as a
//! [`FaultScenario`].
//!
//! Crashes need not be permanent: a [`FailureKind`] selects between the
//! paper's permanent fail-stop model and [`FailureKind::Transient`],
//! where each crash is followed by a repair time drawn from a
//! [`RepairModel`] (constant, exponential, or a per-processor trace) and
//! the processor reboots — possibly to crash again:
//! [`draw_scenario_with`] keeps drawing failure epochs from the **same
//! per-processor stream** until the horizon. A repair of
//! `f64::INFINITY` degenerates to a permanent crash (see the availability
//! identity in `tests/timed_model.rs` and DESIGN.md §6).
//!
//! # Example
//!
//! ```
//! use ft_runtime::{draw_scenario, draw_scenario_with, FailureKind, LifetimeDist, RepairModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let dist = LifetimeDist::Weibull { shape: 1.5, scale: 40.0 };
//! let mut rng = StdRng::seed_from_u64(7);
//! let scenario = draw_scenario(10, &dist, &mut rng);
//! // Every drawn crash is timed and finite; a fresh rng reproduces it.
//! assert!(scenario.crashes().all(|(_, t)| t.is_finite() && t >= 0.0));
//! assert_eq!(scenario, draw_scenario(10, &dist, &mut StdRng::seed_from_u64(7)));
//!
//! // Transient failures: crash, repair for ~8 time units, reboot, repeat.
//! let kind = FailureKind::transient(RepairModel::Exponential { mean: 8.0 }, 200.0);
//! let transient = draw_scenario_with(10, &dist, &kind, &mut StdRng::seed_from_u64(7));
//! assert!(transient.num_crash_epochs() >= transient.num_failures());
//! ```

use ft_platform::ProcId;
use ft_sim::FaultScenario;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A processor lifetime (time-to-crash) distribution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LifetimeDist {
    /// Processors never fail.
    Never,
    /// Exponential lifetimes with the given **mean** time to failure
    /// (hazard rate `1 / mean`), memoryless.
    Exponential {
        /// Mean time to failure (must be positive and finite).
        mean: f64,
    },
    /// Weibull lifetimes: `scale · (−ln U)^(1/shape)`. `shape < 1` models
    /// infant mortality, `shape > 1` wear-out, `shape = 1` is exponential
    /// with mean `scale`.
    Weibull {
        /// Shape parameter `k` (positive, finite).
        shape: f64,
        /// Scale parameter `λ` (positive, finite).
        scale: f64,
    },
    /// A fixed trace: crash time per processor index (`INFINITY` or a
    /// missing entry = never fails). Draws ignore the RNG.
    Trace(Vec<f64>),
}

impl LifetimeDist {
    /// Draws the crash time of processor `p`.
    ///
    /// Finite times are non-negative; `f64::INFINITY` means "never".
    pub fn draw<R: Rng>(&self, p: ProcId, rng: &mut R) -> f64 {
        match self {
            LifetimeDist::Never => f64::INFINITY,
            LifetimeDist::Exponential { mean } => {
                assert!(
                    mean.is_finite() && *mean > 0.0,
                    "bad exponential mean {mean}"
                );
                let u: f64 = rng.gen();
                // Inverse CDF; 1 - u in (0, 1] avoids ln(0).
                -mean * (1.0 - u).ln()
            }
            LifetimeDist::Weibull { shape, scale } => {
                assert!(
                    shape.is_finite() && *shape > 0.0,
                    "bad Weibull shape {shape}"
                );
                assert!(
                    scale.is_finite() && *scale > 0.0,
                    "bad Weibull scale {scale}"
                );
                let u: f64 = rng.gen();
                scale * (-(1.0 - u).ln()).powf(1.0 / shape)
            }
            LifetimeDist::Trace(times) => times.get(p.index()).copied().unwrap_or(f64::INFINITY),
        }
    }
}

/// A processor repair-time (time-to-reboot) distribution, drawn once per
/// failure epoch under [`FailureKind::Transient`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RepairModel {
    /// Every repair takes exactly `time` units. `f64::INFINITY` makes
    /// every crash permanent — the identity case pinned against the
    /// permanent-crash engine (`tests/timed_model.rs`). Draws ignore the
    /// RNG, so `Constant(∞)` consumes the per-processor stream exactly
    /// like [`FailureKind::Permanent`].
    Constant {
        /// Repair duration (positive; `∞` = never reboots).
        time: f64,
    },
    /// Exponential repairs with the given **mean** time to repair (MTTR).
    Exponential {
        /// Mean time to repair (positive, finite).
        mean: f64,
    },
    /// A fixed trace: repair duration per processor index, constant
    /// across that processor's epochs (`INFINITY` or a missing entry =
    /// permanent). Draws ignore the RNG.
    Trace(Vec<f64>),
}

impl RepairModel {
    /// Draws the repair duration of one failure epoch of processor `p`.
    ///
    /// Results are positive; `f64::INFINITY` means the processor never
    /// reboots.
    pub fn draw<R: Rng>(&self, p: ProcId, rng: &mut R) -> f64 {
        match self {
            RepairModel::Constant { time } => {
                assert!(*time > 0.0 && !time.is_nan(), "bad repair time {time}");
                *time
            }
            RepairModel::Exponential { mean } => {
                assert!(mean.is_finite() && *mean > 0.0, "bad repair mean {mean}");
                let u: f64 = rng.gen();
                -mean * (1.0 - u).ln()
            }
            RepairModel::Trace(times) => {
                let t = times.get(p.index()).copied().unwrap_or(f64::INFINITY);
                assert!(t > 0.0 && !t.is_nan(), "bad trace repair {t} for {p}");
                t
            }
        }
    }

    /// Table label, e.g. `const 2.00`, `exp MTTR=8.00` or `trace`.
    pub fn label(&self) -> String {
        match self {
            RepairModel::Constant { time } => format!("const {time:.2}"),
            RepairModel::Exponential { mean } => format!("exp MTTR={mean:.2}"),
            RepairModel::Trace(_) => "trace".to_string(),
        }
    }
}

/// Whether drawn failures are permanent (the paper's fail-stop model) or
/// transient (the processor reboots after a repair time and may fail
/// again).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FailureKind {
    /// Crashes are forever: one lifetime draw per processor, exactly the
    /// historical [`draw_scenario`] behavior.
    Permanent,
    /// Crash → down for a drawn repair time → reboot → a fresh lifetime
    /// from the **same** per-processor stream, repeated while the next
    /// crash falls at or before `horizon` (epochs are open-ended: a crash
    /// inside the horizon may repair beyond it).
    Transient {
        /// Repair-time distribution, drawn once per failure epoch.
        repair: RepairModel,
        /// No new failure epoch starts after this instant (keeps the draw
        /// finite; pick a comfortable multiple of the schedule's nominal
        /// latency — crashes beyond the run's completion are no-ops).
        horizon: f64,
    },
}

impl FailureKind {
    /// Transient failures with the given repair model and drawing
    /// horizon.
    ///
    /// # Panics
    /// Panics unless `horizon` is positive and finite (an infinite
    /// horizon with finite repairs would draw forever).
    pub fn transient(repair: RepairModel, horizon: f64) -> Self {
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "bad transient horizon {horizon}"
        );
        FailureKind::Transient { repair, horizon }
    }

    /// Short lowercase name for tables: `permanent` or `transient`.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Permanent => "permanent",
            FailureKind::Transient { .. } => "transient",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Draws one timed scenario for an `m`-processor platform: every processor
/// whose sampled lifetime is finite crashes at that time (permanently —
/// see [`draw_scenario_with`] for transient failures).
pub fn draw_scenario<R: Rng>(m: usize, dist: &LifetimeDist, rng: &mut R) -> FaultScenario {
    let crashes: Vec<(ProcId, f64)> = (0..m)
        .map(ProcId::from_index)
        .filter_map(|p| {
            let t = dist.draw(p, rng);
            t.is_finite().then_some((p, t))
        })
        .collect();
    FaultScenario::timed(&crashes)
}

/// Draws one timed scenario under the given failure kind.
/// [`FailureKind::Permanent`] is byte-identical to [`draw_scenario`]
/// (same draws from the same stream). Under [`FailureKind::Transient`],
/// each processor alternates lifetime and repair draws from its portion
/// of the stream: crash at `t + lifetime`, reboot `repair` later, next
/// crash a fresh lifetime after the reboot — until a drawn crash falls
/// beyond the horizon or a repair is infinite.
pub fn draw_scenario_with<R: Rng>(
    m: usize,
    dist: &LifetimeDist,
    kind: &FailureKind,
    rng: &mut R,
) -> FaultScenario {
    let FailureKind::Transient { repair, horizon } = kind else {
        return draw_scenario(m, dist, rng);
    };
    let mut epochs: Vec<(ProcId, f64, f64)> = Vec::new();
    for p in (0..m).map(ProcId::from_index) {
        let mut up = 0.0f64;
        loop {
            let life = dist.draw(p, rng);
            let crash = up + life;
            if !crash.is_finite() || crash > *horizon {
                break;
            }
            let r = repair.draw(p, rng);
            epochs.push((p, crash, r));
            if !r.is_finite() {
                break;
            }
            up = crash + r;
        }
    }
    FaultScenario::transient(&epochs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn never_means_never() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = draw_scenario(8, &LifetimeDist::Never, &mut rng);
        assert_eq!(s.num_failures(), 0);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = LifetimeDist::Exponential { mean: 10.0 };
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| d.draw(ProcId(0), &mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "empirical mean {mean}");
    }

    #[test]
    fn weibull_shape_1_matches_exponential_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = LifetimeDist::Weibull {
            shape: 1.0,
            scale: 5.0,
        };
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| d.draw(ProcId(0), &mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "empirical mean {mean}");
    }

    #[test]
    fn trace_is_deterministic_and_partial() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = LifetimeDist::Trace(vec![4.0, f64::INFINITY]);
        assert_eq!(d.draw(ProcId(0), &mut rng), 4.0);
        assert_eq!(d.draw(ProcId(1), &mut rng), f64::INFINITY);
        assert_eq!(d.draw(ProcId(7), &mut rng), f64::INFINITY);
        let s = draw_scenario(3, &d, &mut rng);
        assert_eq!(s.dead(), &[ProcId(0)]);
        assert_eq!(s.crash_time(ProcId(0)), Some(4.0));
    }

    #[test]
    fn draws_are_seed_deterministic() {
        let d = LifetimeDist::Weibull {
            shape: 2.0,
            scale: 30.0,
        };
        let a = draw_scenario(10, &d, &mut StdRng::seed_from_u64(9));
        let b = draw_scenario(10, &d, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn permanent_kind_matches_draw_scenario() {
        let d = LifetimeDist::Exponential { mean: 12.0 };
        let a = draw_scenario(8, &d, &mut StdRng::seed_from_u64(5));
        let b = draw_scenario_with(
            8,
            &d,
            &FailureKind::Permanent,
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(a, b, "Permanent must be the historical draw exactly");
    }

    #[test]
    fn infinite_constant_repair_is_permanent_within_the_horizon() {
        // Constant(∞) consumes no repair randomness, so the per-processor
        // streams line up with the permanent draw; crashes beyond the
        // horizon are the only (documented) difference.
        let d = LifetimeDist::Exponential { mean: 12.0 };
        let horizon = 1e6;
        let kind = FailureKind::transient(
            RepairModel::Constant {
                time: f64::INFINITY,
            },
            horizon,
        );
        let t = draw_scenario_with(9, &d, &kind, &mut StdRng::seed_from_u64(11));
        let p = draw_scenario(9, &d, &mut StdRng::seed_from_u64(11));
        let expected: Vec<_> = p.crashes().filter(|&(_, t)| t <= horizon).collect();
        assert_eq!(t.crashes().collect::<Vec<_>>(), expected);
        assert!(!t.has_transients());
    }

    #[test]
    fn transient_draws_multiple_ordered_epochs() {
        let d = LifetimeDist::Exponential { mean: 5.0 };
        let kind = FailureKind::transient(RepairModel::Exponential { mean: 2.0 }, 200.0);
        let s = draw_scenario_with(4, &d, &kind, &mut StdRng::seed_from_u64(3));
        assert!(
            s.num_crash_epochs() > s.num_failures(),
            "a 200-unit horizon at MTTF 5 must relapse somewhere"
        );
        for p in (0..4).map(ProcId::from_index) {
            let epochs: Vec<_> = s.epochs_of(p).collect();
            for w in epochs.windows(2) {
                assert!(w[0].1 <= w[1].0, "epochs must not overlap: {epochs:?}");
            }
            for (crash, up) in epochs {
                assert!(crash <= 200.0, "no epoch starts beyond the horizon");
                assert!(up > crash);
            }
        }
        // Deterministic like every draw.
        let again = draw_scenario_with(4, &d, &kind, &mut StdRng::seed_from_u64(3));
        assert_eq!(s, again);
    }

    #[test]
    fn repair_trace_is_per_processor() {
        let mut rng = StdRng::seed_from_u64(0);
        let r = RepairModel::Trace(vec![2.0, f64::INFINITY]);
        assert_eq!(r.draw(ProcId(0), &mut rng), 2.0);
        assert_eq!(r.draw(ProcId(1), &mut rng), f64::INFINITY);
        assert_eq!(r.draw(ProcId(7), &mut rng), f64::INFINITY);
    }

    #[test]
    fn labels_and_names_are_stable() {
        assert_eq!(RepairModel::Constant { time: 2.0 }.label(), "const 2.00");
        assert_eq!(
            RepairModel::Exponential { mean: 8.0 }.label(),
            "exp MTTR=8.00"
        );
        assert_eq!(RepairModel::Trace(vec![1.0]).label(), "trace");
        assert_eq!(FailureKind::Permanent.to_string(), "permanent");
        assert_eq!(
            FailureKind::transient(RepairModel::Constant { time: 1.0 }, 10.0).to_string(),
            "transient"
        );
    }

    #[test]
    fn failure_kind_serde_round_trips() {
        for kind in [
            FailureKind::Permanent,
            FailureKind::transient(RepairModel::Exponential { mean: 4.0 }, 50.0),
            FailureKind::transient(RepairModel::Trace(vec![1.0, 2.0]), 50.0),
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: FailureKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_infinite_horizon() {
        FailureKind::transient(RepairModel::Constant { time: 1.0 }, f64::INFINITY);
    }
}
