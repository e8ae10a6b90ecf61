//! The experiment executor: one call = one figure of the paper.

use crate::config::FigureConfig;
use crate::grid::{run_grid, GridConfig, PlatformSetting};
use crate::stats::Accumulator;
use ft_algos::{caft, ftbar, ftsa, heft, CommModel};
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_platform::{random_instance, Instance, PlatformParams};
use ft_sim::{latency_bounds, replay, replay_with, FaultScenario, ReplayConfig, ReplayPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Per-algorithm aggregates at one granularity (means over the graphs).
/// All latencies are normalized by the instance's mean task cost.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct AlgoPoint {
    /// Latency with 0 crash (nominal).
    pub zero_crash: f64,
    /// Latency upper bound (last-copy propagation).
    pub upper: f64,
    /// Latency with the configured number of crashes (fail-over replay).
    pub crash: f64,
    /// Overhead (%) of the 0-crash latency over fault-free CAFT.
    pub overhead_zero: f64,
    /// Overhead (%) of the crash latency over fault-free CAFT.
    pub overhead_crash: f64,
    /// Mean inter-processor message count.
    pub remote_msgs: f64,
}

/// All series at one granularity.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PointResult {
    /// The sweep value (realized granularity).
    pub granularity: f64,
    /// Normalized latency of fault-free CAFT (= HEFT), the paper's `CAFT*`.
    pub fault_free_caft: f64,
    /// Normalized latency of fault-free FTBAR.
    pub fault_free_ftbar: f64,
    /// CAFT series.
    pub caft: AlgoPoint,
    /// FTSA series.
    pub ftsa: AlgoPoint,
    /// FTBAR series.
    pub ftbar: AlgoPoint,
    /// Fraction of crash patterns the CAFT schedule survives *without*
    /// runtime fail-over (strict replay) — the Proposition 5.2 gap.
    pub caft_strict_completion: f64,
}

/// The full sweep of one figure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureResult {
    /// The configuration that produced this result.
    pub config: FigureConfig,
    /// One entry per granularity.
    pub points: Vec<PointResult>,
}

#[derive(Default)]
struct AlgoAcc {
    zero: Accumulator,
    upper: Accumulator,
    crash: Accumulator,
    ov_zero: Accumulator,
    ov_crash: Accumulator,
    msgs: Accumulator,
}

impl AlgoAcc {
    fn finish(&self) -> AlgoPoint {
        AlgoPoint {
            zero_crash: self.zero.mean(),
            upper: self.upper.mean(),
            crash: self.crash.mean(),
            overhead_zero: self.ov_zero.mean(),
            overhead_crash: self.ov_crash.mean(),
            remote_msgs: self.msgs.mean(),
        }
    }
}

/// Deterministic per-(point, graph) seed derivation.
pub(crate) fn derive_seed(base: u64, point: usize, graph: usize) -> u64 {
    let mut x = base
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((point as u64) << 32)
        .wrapping_add(graph as u64 + 1);
    // splitmix64 finalizer
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Draws one §6 instance on an `m`-processor platform at the given
/// granularity (the ε-independent half of a sweep cell — the grid runner
/// shares one draw across every ε evaluated on it).
pub fn draw_instance_on(procs: usize, gran: f64, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = random_layered(&RandomDagParams::default(), &mut rng);
    let params = PlatformParams::default().with_procs(procs);
    random_instance(graph, &params, gran, &mut rng)
}

/// The ε-independent setup of one graph draw: the instance plus the
/// fault-free baselines (`CAFT* = HEFT` anchoring the overheads, and the
/// fault-free FTBAR), computed once and shared by every ε-cell evaluated
/// on the draw.
pub(crate) struct SharedDraw {
    pub inst: Instance,
    pub seed: u64,
    /// Fault-free CAFT (= HEFT) latency, unnormalized.
    pub ff_caft: f64,
    /// Fault-free FTBAR latency, unnormalized.
    pub ff_ftbar: f64,
}

impl SharedDraw {
    pub fn new(procs: usize, gran: f64, seed: u64) -> Self {
        let inst = draw_instance_on(procs, gran, seed);
        let ff_caft = heft(&inst, CommModel::OnePort, seed).latency();
        let ff_ftbar = ftbar(&inst, 0, CommModel::OnePort, seed).latency();
        SharedDraw {
            inst,
            seed,
            ff_caft,
            ff_ftbar,
        }
    }
}

/// Accumulates every series of one sweep point (one granularity at one
/// (m, ε) setting) across graph draws; [`PointAcc::finish`] yields the
/// [`PointResult`] means.
#[derive(Default)]
pub(crate) struct PointAcc {
    ff_caft: Accumulator,
    ff_ftbar: Accumulator,
    caft: AlgoAcc,
    ftsa: AlgoAcc,
    ftbar: AlgoAcc,
    strict_ok: Accumulator,
}

impl PointAcc {
    /// Evaluates one ε-cell on a shared draw: schedules the three
    /// algorithms, replays the crash pattern, records every series.
    pub fn record(&mut self, draw: &SharedDraw, eps: usize, crashes: usize) {
        let model = CommModel::OnePort;
        let inst = &draw.inst;
        let seed = draw.seed;
        let norm = inst.mean_task_cost();
        self.ff_caft.push(draw.ff_caft / norm);
        self.ff_ftbar.push(draw.ff_ftbar / norm);

        // One crash pattern shared by the three algorithms.
        let mut crash_rng = StdRng::seed_from_u64(seed ^ 0xC4A5);
        let scenario = FaultScenario::random(inst.num_procs(), crashes, &mut crash_rng);

        let overhead = |lat: f64| (lat - draw.ff_caft) / draw.ff_caft * 100.0;
        let run = |sched: ft_model::FtSchedule, acc: &mut AlgoAcc| {
            let b = latency_bounds(inst, &sched);
            let crash_out = replay_with(
                inst,
                &sched,
                &scenario,
                ReplayConfig {
                    policy: ReplayPolicy::FirstCopy,
                    reroute: true,
                },
            );
            let crash_lat = crash_out
                .latency()
                .expect("fail-over replay always completes with ≤ ε crashes");
            acc.zero.push(b.zero_crash / norm);
            acc.upper.push(b.upper / norm);
            acc.crash.push(crash_lat / norm);
            acc.ov_zero.push(overhead(b.zero_crash));
            acc.ov_crash.push(overhead(crash_lat));
            acc.msgs.push(sched.num_remote_messages() as f64);
            sched
        };

        let caft_sched = run(caft(inst, eps, model, seed), &mut self.caft);
        run(ftsa(inst, eps, model, seed), &mut self.ftsa);
        run(ftbar(inst, eps, model, seed), &mut self.ftbar);

        // Strict-replay completion of CAFT under the same pattern.
        let strict = replay(inst, &caft_sched, &scenario);
        self.strict_ok
            .push(if strict.completed() { 1.0 } else { 0.0 });
    }

    pub fn finish(&self, gran: f64) -> PointResult {
        PointResult {
            granularity: gran,
            fault_free_caft: self.ff_caft.mean(),
            fault_free_ftbar: self.ff_ftbar.mean(),
            caft: self.caft.finish(),
            ftsa: self.ftsa.finish(),
            ftbar: self.ftbar.finish(),
            caft_strict_completion: self.strict_ok.mean(),
        }
    }
}

/// Runs every series of one figure: the grid of its one platform
/// setting.
pub fn run_figure(cfg: &FigureConfig) -> FigureResult {
    let grid = run_grid(&GridConfig {
        platforms: vec![PlatformSetting {
            procs: cfg.procs,
            eps: cfg.eps,
            crashes: cfg.crashes,
        }],
        granularities: cfg.granularities.clone(),
        graphs_per_point: cfg.graphs_per_point,
        seed: cfg.seed,
    });
    FigureResult {
        config: cfg.clone(),
        points: grid.cells.into_iter().map(|c| c.point).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{sweep_a, FigureConfig};

    fn tiny_cfg() -> FigureConfig {
        let mut cfg = FigureConfig::new("fig1", sweep_a(), 10, 1, 1).quick(2);
        cfg.granularities = vec![0.4, 2.0];
        cfg
    }

    #[test]
    fn figure_run_produces_all_series() {
        let res = run_figure(&tiny_cfg());
        assert_eq!(res.points.len(), 2);
        for p in &res.points {
            assert!(p.fault_free_caft > 0.0);
            assert!(p.caft.zero_crash >= p.fault_free_caft * 0.5);
            assert!(p.caft.upper >= p.caft.zero_crash - 1e-9);
            assert!(p.ftsa.upper >= p.ftsa.zero_crash - 1e-9);
            assert!(p.caft.crash > 0.0);
            assert!(p.caft.remote_msgs > 0.0);
            assert!((0.0..=1.0).contains(&p.caft_strict_completion));
        }
    }

    #[test]
    fn caft_beats_ftsa_on_messages() {
        let res = run_figure(&tiny_cfg());
        for p in &res.points {
            assert!(
                p.caft.remote_msgs < p.ftsa.remote_msgs,
                "g {}: CAFT {} vs FTSA {}",
                p.granularity,
                p.caft.remote_msgs,
                p.ftsa.remote_msgs
            );
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run_figure(&tiny_cfg());
        let b = run_figure(&tiny_cfg());
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.caft.zero_crash, y.caft.zero_crash);
            assert_eq!(x.ftbar.crash, y.ftbar.crash);
        }
    }
}
