//! The full §6 evaluation grid: every (m, ε, granularity) cell in one
//! sweep, with the ε-independent setup amortized.
//!
//! The paper presents the grid as six figures — three platform settings
//! `(m, ε) ∈ {(10, 1), (10, 3), (20, 5)}` crossed with two granularity
//! sweeps (type A `[0.2, 2.0]`, type B `[1, 10]`). [`run_grid`] runs the
//! whole cross product in one call and shares what the figure-at-a-time
//! path recomputes: for each (m, granularity, graph) draw, the instance
//! generation and the fault-free baselines (`CAFT* = HEFT` and fault-free
//! FTBAR — the anchors of every overhead series) are computed **once**
//! and reused by every ε evaluated on that platform size. At the paper's
//! settings that halves the setup work for the m = 10 column (ε = 1 and
//! ε = 3 share draws), and the sharing grows with every ε added to a
//! platform.
//!
//! [`render_isoclines`] renders the grid's completion surface — the
//! strict-replay survival of CAFT per cell — as an ASCII isocline chart
//! (granularity on the x-axis, one row per platform setting), the
//! at-a-glance answer to *where* in the grid the Proposition 5.2 gap
//! bites. The validation harness ([`crate::validate`]) evaluates its
//! grid-family claims over a [`GridResult`].

use crate::config::{sweep_a, sweep_b};
use crate::runner::{derive_seed, PointAcc, PointResult, SharedDraw};
use serde::{Deserialize, Serialize};

/// One platform setting of the grid: `m` processors scheduling for ε
/// supported failures, crash experiments killing `crashes` of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformSetting {
    /// Number of processors `m`.
    pub procs: usize,
    /// Supported failures ε.
    pub eps: usize,
    /// Processors killed in the crash experiment.
    pub crashes: usize,
}

/// Configuration of one grid sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridConfig {
    /// The platform settings (the paper uses three; settings sharing a
    /// processor count share instance draws and fault-free baselines).
    pub platforms: Vec<PlatformSetting>,
    /// The granularity axis (the paper's grid is the union of the type A
    /// and type B sweeps).
    pub granularities: Vec<f64>,
    /// Random graphs averaged per cell.
    pub graphs_per_point: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl GridConfig {
    /// The paper's full grid: `(10, 1, 1)`, `(10, 3, 2)`, `(20, 5, 3)`
    /// over the union of the type A and type B granularity sweeps, 60
    /// graphs per cell.
    pub fn paper() -> Self {
        let mut granularities = sweep_a();
        for g in sweep_b() {
            if !granularities.iter().any(|&x| (x - g).abs() < 1e-12) {
                granularities.push(g);
            }
        }
        granularities.sort_by(|a, b| a.partial_cmp(b).unwrap());
        GridConfig {
            platforms: vec![
                PlatformSetting {
                    procs: 10,
                    eps: 1,
                    crashes: 1,
                },
                PlatformSetting {
                    procs: 10,
                    eps: 3,
                    crashes: 2,
                },
                PlatformSetting {
                    procs: 20,
                    eps: 5,
                    crashes: 3,
                },
            ],
            granularities,
            graphs_per_point: 60,
            seed: 0x5EED,
        }
    }

    /// Thins the grid for tests and CI smoke runs: `n` graphs per cell
    /// and every other granularity.
    pub fn quick(mut self, n: usize) -> Self {
        self.graphs_per_point = n;
        self.granularities = self.granularities.into_iter().step_by(2).collect();
        self
    }
}

/// One cell of the grid: a platform setting at a granularity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridCell {
    /// The platform setting of this cell.
    pub platform: PlatformSetting,
    /// Every figure series at this cell (same shape as a figure point).
    pub point: PointResult,
}

/// The full grid sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridResult {
    /// The configuration that produced this result.
    pub config: GridConfig,
    /// Cells in (platform, granularity) order.
    pub cells: Vec<GridCell>,
}

impl GridResult {
    /// The cells of one platform setting, in granularity order.
    pub fn series(&self, platform: PlatformSetting) -> Vec<&GridCell> {
        self.cells
            .iter()
            .filter(|c| c.platform == platform)
            .collect()
    }
}

/// Runs the whole grid. For each (m, granularity, graph) the instance
/// and the fault-free baselines are drawn once and every ε-cell of that
/// platform size is evaluated on the shared draw, so adding an ε setting
/// to an existing platform size costs only its three fault-tolerant
/// schedules, never a new setup pass. Deterministic in the
/// configuration; cells sharing `procs` see identical draws (the
/// per-graph seed depends only on the granularity index and graph
/// index), so ε-columns are draw-for-draw comparable.
pub fn run_grid(cfg: &GridConfig) -> GridResult {
    // Group ε-settings by platform size, preserving declaration order.
    let mut sizes: Vec<usize> = Vec::new();
    for p in &cfg.platforms {
        if !sizes.contains(&p.procs) {
            sizes.push(p.procs);
        }
    }

    let mut accs: Vec<(PlatformSetting, Vec<PointAcc>)> = cfg
        .platforms
        .iter()
        .map(|&p| {
            (
                p,
                (0..cfg.granularities.len())
                    .map(|_| PointAcc::default())
                    .collect(),
            )
        })
        .collect();

    for (pi, &gran) in cfg.granularities.iter().enumerate() {
        for &m in &sizes {
            for gi in 0..cfg.graphs_per_point {
                let seed = derive_seed(cfg.seed, pi, gi);
                // The shared setup: one instance + fault-free baselines
                // for every ε evaluated at this platform size.
                let draw = SharedDraw::new(m, gran, seed);
                for (p, points) in accs.iter_mut().filter(|(p, _)| p.procs == m) {
                    points[pi].record(&draw, p.eps, p.crashes);
                }
            }
        }
    }

    let cells = accs
        .iter()
        .flat_map(|(p, points)| {
            points
                .iter()
                .zip(&cfg.granularities)
                .map(|(acc, &gran)| GridCell {
                    platform: *p,
                    point: acc.finish(gran),
                })
        })
        .collect();
    GridResult {
        config: cfg.clone(),
        cells,
    }
}

/// The glyph ramp of the isocline chart: nine completion levels from
/// empty (0) to full (1), each glyph covering an equal fraction.
const RAMP: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];

fn glyph(completion: f64) -> char {
    let ix = (completion.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[ix]
}

/// Renders the completion surface of the grid — CAFT's strict-replay
/// survival per cell — as an ASCII isocline chart: granularity along the
/// x-axis, one row per platform setting, each cell a glyph from a
/// nine-level ramp. The `@` region is where static ε-replication alone
/// survives the crash experiment; the blank-to-`=` region is where the
/// Proposition 5.2 gap bites and runtime fail-over is load-bearing.
pub fn render_isoclines(res: &GridResult) -> String {
    let mut out = String::new();
    out.push_str(
        "completion isoclines — CAFT strict-replay survival over the (m, ε) × granularity grid\n",
    );
    out.push_str("  ramp: ");
    for (i, g) in RAMP.iter().enumerate() {
        let lo = i as f64 / RAMP.len() as f64;
        out.push_str(&format!("'{g}'≥{lo:.2} "));
    }
    out.push('\n');
    out.push_str("               g:");
    for g in &res.config.granularities {
        out.push_str(&format!("{g:>6.1}"));
    }
    out.push('\n');
    for &p in &res.config.platforms {
        out.push_str(&format!(
            "  m={:<2} ε={} kill {}:",
            p.procs, p.eps, p.crashes
        ));
        for cell in res.series(p) {
            out.push_str(&format!("{:>6}", glyph(cell.point.caft_strict_completion)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GridConfig {
        GridConfig {
            platforms: vec![
                PlatformSetting {
                    procs: 6,
                    eps: 1,
                    crashes: 1,
                },
                PlatformSetting {
                    procs: 6,
                    eps: 2,
                    crashes: 2,
                },
            ],
            granularities: vec![0.4, 2.0],
            graphs_per_point: 2,
            seed: 0x5EED,
        }
    }

    #[test]
    fn paper_grid_covers_both_sweeps_without_duplicates() {
        let cfg = GridConfig::paper();
        assert_eq!(cfg.platforms.len(), 3);
        // 10 type A + 10 type B granularities share exactly {1.0, 2.0}.
        assert_eq!(cfg.granularities.len(), 18);
        let mut sorted = cfg.granularities.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 18, "duplicate granularities in the union");
        assert_eq!(cfg.graphs_per_point, 60);
        let quick = cfg.quick(4);
        assert_eq!(quick.graphs_per_point, 4);
        assert_eq!(quick.granularities.len(), 9);
    }

    #[test]
    fn grid_runs_every_cell_and_is_deterministic() {
        let cfg = tiny();
        let res = run_grid(&cfg);
        assert_eq!(res.cells.len(), 4);
        for cell in &res.cells {
            assert!(cell.point.fault_free_caft > 0.0);
            assert!(cell.point.caft.zero_crash > 0.0);
            assert!((0.0..=1.0).contains(&cell.point.caft_strict_completion));
        }
        let again = run_grid(&cfg);
        assert_eq!(
            serde_json::to_string(&res).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn shared_draws_make_eps_columns_comparable() {
        // Both ε-settings run on the *same* instances, so the
        // ε-independent series are identical across the two columns.
        let cfg = tiny();
        let res = run_grid(&cfg);
        let a = res.series(cfg.platforms[0]);
        let b = res.series(cfg.platforms[1]);
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(
                ca.point.fault_free_caft.to_bits(),
                cb.point.fault_free_caft.to_bits()
            );
            assert_eq!(
                ca.point.fault_free_ftbar.to_bits(),
                cb.point.fault_free_ftbar.to_bits()
            );
            // And more replication is never free: ε = 2 costs at least
            // as much 0-crash latency as ε = 1 on the same draws.
            assert!(cb.point.caft.zero_crash >= ca.point.caft.zero_crash - 1e-9);
        }
    }

    #[test]
    fn grid_cells_match_the_figure_path() {
        // One ε-cell of the grid equals a figure run at the same
        // (m, ε, granularities, seed): the shared-setup path changes
        // the schedule of work, not the numbers.
        let cfg = tiny();
        let res = run_grid(&cfg);
        let fig = crate::runner::run_figure(&{
            let mut f =
                crate::config::FigureConfig::new("grid-check", cfg.granularities.clone(), 6, 1, 1);
            f.graphs_per_point = cfg.graphs_per_point;
            f.seed = cfg.seed;
            f
        });
        for (cell, point) in res.series(cfg.platforms[0]).iter().zip(&fig.points) {
            assert_eq!(
                serde_json::to_string(&cell.point).unwrap(),
                serde_json::to_string(point).unwrap(),
                "grid cell drifted from the figure path at g {}",
                point.granularity
            );
        }
    }

    #[test]
    fn isoclines_render_one_row_per_platform() {
        let cfg = tiny();
        let res = run_grid(&cfg);
        let chart = render_isoclines(&res);
        assert!(chart.contains("completion isoclines"));
        assert!(chart.contains("m=6  ε=1 kill 1:"));
        assert!(chart.contains("m=6  ε=2 kill 2:"));
        assert!(chart.contains("ramp:"));
        // Exactly header lines + one row per platform.
        assert_eq!(chart.lines().count(), 3 + cfg.platforms.len());
    }

    #[test]
    fn glyph_ramp_is_monotone() {
        assert_eq!(glyph(0.0), ' ');
        assert_eq!(glyph(1.0), '@');
        let mut last = None;
        for i in 0..=20 {
            let g = glyph(i as f64 / 20.0);
            let pos = RAMP.iter().position(|&c| c == g).unwrap();
            if let Some(l) = last {
                assert!(pos >= l, "ramp must be monotone");
            }
            last = Some(pos);
        }
    }
}
