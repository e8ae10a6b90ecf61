//! Windowed CAFT — the paper's §7 future-work sketch.
//!
//! > "Instead of considering a single task (the one with highest priority)
//! > and assigning all its replicas to the currently best available
//! > resources, why not consider say, 10 ready tasks, and assign all their
//! > replicas in the same decision making procedure? … in order to better
//! > load balance processor and link usage."
//!
//! This module implements that idea conservatively: at each step, instead
//! of committing the single highest-priority free task, it examines the
//! `window` highest-priority free tasks, evaluates each one's best first
//! placement against the *current* port state, and commits the task whose
//! placement is the most *urgent* — the one whose best earliest finish
//! time, extended by its remaining bottom level, is largest (i.e. the task
//! that would stretch the schedule most if delayed). The remaining window
//! tasks return to the pool, so the decision order adapts to link and
//! processor congestion rather than to static priority alone.
//!
//! With `window = 1` this is exactly [`caft`](crate::caft::caft) (the pool
//! head is the unique window member): both run the one CAFT driver, so the
//! replica placement (one-to-one mapping + fill-ins) and all message and
//! validity properties carry over.

use crate::caft::{place_free_tasks, CaftOptions};
use crate::common::Ctx;
use ft_graph::TaskId;
use ft_model::{CommModel, FtSchedule};
use ft_platform::Instance;

/// Options for [`caft_windowed_with`].
#[derive(Clone, Copy, Debug)]
pub struct WindowedOptions {
    /// The underlying CAFT configuration.
    pub caft: CaftOptions,
    /// How many ready tasks compete per decision (the paper suggests 10).
    pub window: usize,
}

impl Default for WindowedOptions {
    fn default() -> Self {
        WindowedOptions {
            caft: CaftOptions::default(),
            window: 10,
        }
    }
}

/// Runs windowed CAFT with the given failure tolerance and window size.
pub fn caft_windowed(
    inst: &Instance,
    eps: usize,
    model: CommModel,
    seed: u64,
    window: usize,
) -> FtSchedule {
    caft_windowed_with(
        inst,
        WindowedOptions {
            caft: CaftOptions {
                eps,
                model,
                seed,
                ..CaftOptions::default()
            },
            window,
        },
    )
}

/// Runs windowed CAFT with explicit options.
pub fn caft_windowed_with(inst: &Instance, opts: WindowedOptions) -> FtSchedule {
    assert!(opts.window >= 1, "window must be at least 1");
    let co = opts.caft;
    let mut ctx = Ctx::new(inst, co.eps, co.model, co.seed);
    if co.insertion {
        ctx = ctx.with_insertion();
    }
    place_free_tasks(&mut ctx, &co, opts.window);
    ctx.sched
}

/// Pops the next task to place from up to `window` highest-priority free
/// tasks: the most urgent one — largest best-EFT plus remaining bottom
/// level beyond its own execution, the projected makespan if scheduled
/// now. The rest go back to the pool for the next decision, so a window
/// of one takes the pool head.
pub(crate) fn pop_window(ctx: &mut Ctx<'_>, window: usize) -> Option<TaskId> {
    if window == 1 {
        return ctx.pop_task();
    }
    let members: Vec<TaskId> = std::iter::from_fn(|| ctx.pop_task()).take(window).collect();
    let &chosen = members.iter().max_by(|&&a, &&b| {
        urgency(ctx, a)
            .total_cmp(&urgency(ctx, b))
            .then_with(|| ctx.tie[a.index()].cmp(&ctx.tie[b.index()]))
            .then_with(|| b.cmp(&a))
    })?;
    for &t in &members {
        if t != chosen {
            ctx.pool.push(t);
        }
    }
    Some(chosen)
}

/// Projected schedule pressure of scheduling `t` now: its best first-copy
/// EFT plus the path length remaining below it.
fn urgency(ctx: &Ctx<'_>, t: TaskId) -> f64 {
    let best = ctx
        .rank_candidates_full_fanin(t, 0, &[])
        .into_iter()
        .next()
        .expect("at least one processor");
    // bl includes t's own execution; EFT already accounts for it, so the
    // remaining path is bl − mean exec.
    best.eft + (ctx.bl[t.index()] - ctx.inst.exec.mean(t)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caft::caft;
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_model::validate_schedule;
    use ft_platform::{random_instance, PlatformParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_layered(&RandomDagParams::default().with_tasks(50), &mut rng);
        random_instance(g, &PlatformParams::default(), 0.5, &mut rng)
    }

    #[test]
    fn windowed_schedules_audit_clean() {
        for seed in 0..3u64 {
            let inst = workload(seed);
            for window in [1usize, 4, 10] {
                let s = caft_windowed(&inst, 1, CommModel::OnePort, seed, window);
                let errs = validate_schedule(&inst, &s);
                assert!(errs.is_empty(), "window {window}: {errs:?}");
                assert!(s.replicas.iter().all(|r| r.len() == 2));
            }
        }
    }

    #[test]
    fn window_one_equals_plain_caft() {
        let inst = workload(7);
        let w = caft_windowed(&inst, 2, CommModel::OnePort, 3, 1);
        let c = caft(&inst, 2, CommModel::OnePort, 3);
        assert_eq!(w.latency(), c.latency());
        assert_eq!(w.messages.len(), c.messages.len());
    }

    #[test]
    fn windowed_is_competitive_on_average() {
        // Not strictly better per instance (it is a heuristic), but across
        // a small sample the window must not lose badly.
        let mut sum_w = 0.0;
        let mut sum_c = 0.0;
        for seed in 0..6u64 {
            let inst = workload(100 + seed);
            sum_w += caft_windowed(&inst, 1, CommModel::OnePort, seed, 10).latency();
            sum_c += caft(&inst, 1, CommModel::OnePort, seed).latency();
        }
        assert!(
            sum_w <= sum_c * 1.1,
            "windowed mean {} vs plain {}",
            sum_w / 6.0,
            sum_c / 6.0
        );
    }

    #[test]
    fn deterministic() {
        let inst = workload(11);
        let a = caft_windowed(&inst, 1, CommModel::OnePort, 5, 8);
        let b = caft_windowed(&inst, 1, CommModel::OnePort, 5, 8);
        assert_eq!(a.latency(), b.latency());
    }

    #[test]
    #[should_panic]
    fn rejects_zero_window() {
        let inst = workload(13);
        caft_windowed(&inst, 1, CommModel::OnePort, 0, 0);
    }
}
