//! CAFT — Contention-Aware Fault Tolerant scheduling (§5, Algorithms 5.1
//! and 5.2 of the paper).
//!
//! CAFT keeps FTSA's outer structure (replicate the most urgent free task
//! `ε + 1` times on its best processors) but attacks the message blow-up:
//! *"have each replica of a task communicate to a unique replica of its
//! successors whenever possible, while preserving the fault tolerance
//! capability"*.
//!
//! For the current task `t`:
//!
//! 1. A processor is a **singleton** if it hosts exactly one replica among
//!    all replicas of all predecessors of `t`. `B̄(tj)` is the set of
//!    replicas of predecessor `tj` living on singleton processors,
//!    `λj = |B̄(tj)|`, and `θ = min_j λj` (capped at `ε + 1`).
//! 2. `θ` replicas of `t` are placed by **One-To-One-Mapping**
//!    (Algorithm 5.2): for every unlocked candidate processor, take the
//!    head (earliest-communication-finish) replica of each `B̄(tj)` as the
//!    sole sender, simulate the mapping, commit the best candidate — then
//!    **lock** the chosen processor *and the sender processors*
//!    (equation (7)) and pop the used heads. Locking is what defeats the
//!    deadlock example of Proposition 5.2's proof (a processor that both
//!    hosts a needed predecessor copy and feeds a different replica).
//! 3. The remaining `ε + 1 − θ` replicas are placed FTSA-style with full
//!    fan-in (which tolerates ε failures unconditionally), on processors
//!    outside the locked set.
//!
//! With `ε = 0` every phase degenerates to HEFT. On outforests `θ = ε + 1`
//! always holds and the message count is bounded by `e(ε + 1)`
//! (Proposition 5.1 — verified by tests and the `messages` experiment).

use crate::common::Ctx;
use crate::windowed::{caft_windowed_with, pop_window, WindowedOptions};
use ft_graph::TaskId;
use ft_model::{CommModel, FtSchedule, MsgSpec, PlannedMsg, Replica, ReplicaRef};
use ft_platform::{Instance, ProcId};

/// Options for [`caft_with`]; the toggles exist for the ablation benches.
#[derive(Clone, Copy, Debug)]
pub struct CaftOptions {
    /// Number of supported failures ε.
    pub eps: usize,
    /// Communication model to schedule under.
    pub model: CommModel,
    /// Seed for random tie-breaking.
    pub seed: u64,
    /// Enable the one-to-one mapping phase (disabling reduces CAFT to
    /// FTSA's full fan-in — the paper's baseline behaviour).
    pub one_to_one: bool,
    /// Lock sender processors per equation (7) (disabling reproduces the
    /// deadlock-prone variant discussed in the Proposition 5.2 proof).
    pub lock_senders: bool,
    /// Hardened mode (extension, not in the paper): track the transitive
    /// *support set* of every replica — the processors whose survival its
    /// completion depends on — and only accept a one-to-one placement when
    /// the supports of a task's replicas stay pairwise disjoint (falling
    /// back to full fan-in otherwise). This restores a provable ε-failure
    /// guarantee that the paper's per-step locking does not give on deep
    /// general DAGs (see EXPERIMENTS.md "Proposition 5.2 revisited"), at
    /// the price of more messages. Requires `m ≤ 64`.
    pub disjoint_lineages: bool,
    /// Insertion slot policy (extension): replicas may fill idle gaps on a
    /// processor instead of appending after its last committed task.
    pub insertion: bool,
}

impl Default for CaftOptions {
    fn default() -> Self {
        CaftOptions {
            eps: 1,
            model: CommModel::OnePort,
            seed: 0,
            one_to_one: true,
            lock_senders: true,
            disjoint_lineages: false,
            insertion: false,
        }
    }
}

/// Runs CAFT with the given failure tolerance, model and tie-break seed.
pub fn caft(inst: &Instance, eps: usize, model: CommModel, seed: u64) -> FtSchedule {
    caft_with(
        inst,
        CaftOptions {
            eps,
            model,
            seed,
            ..CaftOptions::default()
        },
    )
}

/// Runs hardened CAFT (disjoint lineage supports — see
/// [`CaftOptions::disjoint_lineages`]): same interface as [`caft`], with a
/// provable ε-failure guarantee under strict fail-silent replay.
pub fn caft_hardened(inst: &Instance, eps: usize, model: CommModel, seed: u64) -> FtSchedule {
    caft_with(
        inst,
        CaftOptions {
            eps,
            model,
            seed,
            disjoint_lineages: true,
            ..CaftOptions::default()
        },
    )
}

/// Runs CAFT with explicit options (windowed CAFT with a window of one).
pub fn caft_with(inst: &Instance, opts: CaftOptions) -> FtSchedule {
    caft_windowed_with(
        inst,
        WindowedOptions {
            caft: opts,
            window: 1,
        },
    )
}

#[inline]
fn proc_bit(p: ProcId) -> u64 {
    1u64 << (p.index() & 63)
}

/// The CAFT driver's per-run buffers: every `Vec` a placement touches,
/// kept across tasks, rounds and candidates, so placing a task allocates
/// nothing once they have grown.
#[derive(Default)]
struct Buffers {
    /// The support of every replica placed so far.
    supports: Supports,
    /// P̄ — processors locked for the current task (hosting one of its
    /// replicas or feeding one of them).
    locked: Vec<ProcId>,
    /// Processors a fill-in must avoid.
    excluded: Vec<ProcId>,
    /// `B̄(tj)` per in-edge of the current task; only the first
    /// in-degree sets are live, the rest keep their capacity.
    bbar: Vec<Vec<Replica>>,
    /// Replicas per processor among the current task's predecessors.
    count: Vec<usize>,
    /// The candidate under evaluation.
    cand: Fanin,
    /// The best candidate so far, swapped with `cand` on improvement.
    best: Fanin,
    /// The planned batch of the candidate under evaluation.
    planned: Vec<PlannedMsg>,
}

/// One candidate placement and its fan-in.
struct Fanin {
    proc: ProcId,
    specs: Vec<MsgSpec>,
    /// Sender processors to lock (eq. (7); one-to-one rounds only).
    senders: Vec<ProcId>,
    /// Which head replica of each predecessor is consumed (None when a
    /// co-located replica outside B̄ supplies the data; one-to-one rounds
    /// only).
    heads: Vec<Option<ReplicaRef>>,
    /// Transitive support mask of the new replica (hardened mode; own
    /// processor only otherwise).
    support: u64,
}

impl Default for Fanin {
    fn default() -> Self {
        Fanin {
            proc: ProcId(0),
            specs: Vec::new(),
            senders: Vec::new(),
            heads: Vec::new(),
            support: 0,
        }
    }
}

impl Fanin {
    /// Starts candidate `p` with an empty fan-in.
    fn reset(&mut self, p: ProcId) {
        self.proc = p;
        self.specs.clear();
        self.senders.clear();
        self.heads.clear();
        self.support = proc_bit(p);
    }
}

/// Per-replica support masks: the processors whose survival the
/// completion of a replica transitively depends on. Maintained in both
/// modes (cheap), enforced only under [`CaftOptions::disjoint_lineages`].
#[derive(Default)]
struct Supports {
    /// `masks[t · stride + k]`: the support of replica `k` of task `t`.
    masks: Vec<u64>,
    /// Replicas per task, `ε + 1`.
    stride: usize,
}

impl Supports {
    /// The supports of the replicas already in `ctx`'s schedule: a
    /// frontier pseudo-replica supports itself.
    fn new(ctx: &Ctx<'_>) -> Self {
        let stride = ctx.sched.num_replicas;
        let mut masks = vec![0; ctx.sched.num_tasks() * stride];
        for (t, reps) in ctx.sched.replicas.iter().enumerate() {
            for (k, r) in reps.iter().enumerate() {
                masks[t * stride + k] = proc_bit(r.proc);
            }
        }
        Supports { masks, stride }
    }

    /// Support of an already-scheduled replica.
    fn of(&self, r: ReplicaRef) -> u64 {
        self.masks[r.task.index() * self.stride + r.copy as usize]
    }

    /// Supports of the first `n` replicas of `t`.
    fn first(&self, t: TaskId, n: usize) -> &[u64] {
        let base = t.index() * self.stride;
        &self.masks[base..base + n]
    }

    /// Records the support of replica `k` of `t`.
    fn set(&mut self, t: TaskId, k: usize, mask: u64) {
        self.masks[t.index() * self.stride + k] = mask;
    }
}

/// The one CAFT driver (Algorithm 5.1's outer loop) behind every entry
/// point — whole-DAG, windowed and sub-DAG: places the free task
/// [`pop_window`] picks until none is left. Returns the tasks it skipped
/// because a predecessor has no replica (the sub-DAG's lost-data rule,
/// which never fires on the whole DAG); a skipped task never completes,
/// so its descendants stay blocked.
pub(crate) fn place_free_tasks(
    ctx: &mut Ctx<'_>,
    opts: &CaftOptions,
    window: usize,
) -> Vec<TaskId> {
    let inst = ctx.inst;
    if opts.disjoint_lineages {
        assert!(
            inst.num_procs() <= 64,
            "hardened CAFT tracks supports as 64-bit masks (m ≤ 64)"
        );
    }
    let mut buf = Buffers {
        supports: Supports::new(ctx),
        ..Buffers::default()
    };
    let mut skipped = Vec::new();
    while let Some(t) = pop_window(ctx, window) {
        if inst
            .graph
            .predecessors(t)
            .any(|p| ctx.sched.replicas_of(p).is_empty())
        {
            skipped.push(t);
            continue;
        }
        schedule_task(ctx, t, opts, &mut buf);
        ctx.finish_task(t);
    }
    skipped
}

/// Places the `ε + 1` replicas of one task (Algorithm 5.1, lines 10–20).
fn schedule_task(ctx: &mut Ctx<'_>, t: TaskId, opts: &CaftOptions, buf: &mut Buffers) {
    let replicas_needed = opts.eps + 1;
    buf.locked.clear();

    // B̄(tj): replicas of each predecessor on singleton processors.
    let preds = singleton_replica_sets(ctx, t, &mut buf.count, &mut buf.bbar);
    let theta = if opts.one_to_one && preds > 0 {
        buf.bbar[..preds]
            .iter()
            .map(|b| b.len())
            .min()
            .unwrap_or(0)
            .min(replicas_needed)
    } else {
        0
    };

    let mut copy = 0usize;
    // --- One-to-one mapping rounds (Algorithm 5.2). ---
    while copy < theta {
        // No unlocked candidate left: fall through to fill-in, which
        // relaxes the exclusions.
        if !one_to_one_round(ctx, t, copy, opts, preds, buf) {
            break;
        }
        let round = &buf.best;
        ctx.commit(t, copy, round.proc, &round.specs);
        buf.supports.set(t, copy, round.support);
        buf.locked.push(round.proc);
        if opts.lock_senders {
            for &s in &round.senders {
                if !buf.locked.contains(&s) {
                    buf.locked.push(s);
                }
            }
        }
        // Pop the used heads from B̄ (Algorithm 5.2, line 11).
        for (j, used) in round.heads.iter().enumerate() {
            if let Some(r) = used {
                buf.bbar[j].retain(|x| x.of != *r);
            }
        }
        copy += 1;
    }

    // --- FTSA-style fill-in for the remaining replicas (lines 16–20). ---
    while copy < replicas_needed {
        let excluded = &mut buf.excluded;
        excluded.clone_from(&buf.locked);
        for r in ctx.sched.replicas_of(t) {
            if !excluded.contains(&r.proc) {
                excluded.push(r.proc);
            }
        }
        if opts.disjoint_lineages {
            // A fill-in replica's support is its own processor, which must
            // stay outside every sibling's support.
            let union: u64 = buf.supports.first(t, copy).iter().fold(0, |a, &b| a | b);
            for p in ctx.candidate_procs() {
                if union & proc_bit(p) != 0 && !excluded.contains(&p) {
                    excluded.push(p);
                }
            }
        }
        let mut found = best_fillin(ctx, t, copy, opts, buf);
        if !found && !opts.disjoint_lineages {
            // Every processor is locked: relax the sender locks (keep only
            // the hard space-exclusion constraint). Hardened one-to-one
            // rounds reserve clean processors for the fill-ins instead.
            buf.excluded.clear();
            buf.excluded
                .extend(ctx.sched.replicas_of(t).iter().map(|r| r.proc));
            found = best_fillin(ctx, t, copy, opts, buf);
        }
        assert!(found, "fill-ins always find a host outside the exclusions");
        let best = buf.best.proc;
        ctx.commit(t, copy, best, &buf.best.specs);
        buf.supports.set(t, copy, proc_bit(best));
        if !buf.locked.contains(&best) {
            buf.locked.push(best);
        }
        copy += 1;
    }
}

/// Evaluates every allowed processor outside `buf.excluded` for fill-in
/// replica `copy` of `t` and leaves the earliest-finishing one, ties to
/// the smaller id, with its fan-in in `buf.best`; false if none is left.
fn best_fillin(
    ctx: &Ctx<'_>,
    t: TaskId,
    copy: usize,
    opts: &CaftOptions,
    buf: &mut Buffers,
) -> bool {
    let Buffers {
        supports,
        excluded,
        cand,
        best,
        planned,
        ..
    } = buf;
    // Under hardening a co-located predecessor copy is the sole sender
    // only when it is self-supported (its support is exactly its own
    // processor): a co-located chain replica can starve even while its
    // processor lives, so relying on it alone would break the fill-in
    // invariant "survives iff own processor survives"; the remote
    // copies stay as backups.
    let self_supported =
        |r: &Replica| !opts.disjoint_lineages || supports.of(r.of) == proc_bit(r.proc);
    let mut best_eft: Option<f64> = None;
    for p in ctx.candidate_procs().filter(|p| !excluded.contains(p)) {
        cand.reset(p);
        ctx.fanin_specs(t, copy, p, self_supported, &mut cand.specs);
        let eft = ctx.eval(t, p, &cand.specs, planned).eft;
        let better = match best_eft {
            None => true,
            Some(beft) => eft.total_cmp(&beft).then_with(|| p.cmp(&best.proc)).is_lt(),
        };
        if better {
            best_eft = Some(eft);
            std::mem::swap(cand, best);
        }
    }
    best_eft.is_some()
}

/// Lineage-tracking context for hardened one-to-one rounds.
struct LineageCtx<'a> {
    /// Per-replica supports of every scheduled task.
    supports: &'a Supports,
    /// Supports of the replicas of the current task placed so far.
    placed: &'a [u64],
    /// Fill-in replicas still owed after this round.
    remaining_fillins: usize,
    /// Mask of the processors replicas may be placed on: only these can
    /// host the fill-ins.
    candidates: u64,
}

impl LineageCtx<'_> {
    /// True if placing a replica with `tentative` support keeps the
    /// invariant: pairwise-disjoint supports and enough clean processors
    /// left for the remaining fill-ins.
    fn admissible(&self, tentative: u64) -> bool {
        if self.placed.iter().any(|&s| s & tentative != 0) {
            return false;
        }
        let union = self.placed.iter().fold(tentative, |a, &b| a | b);
        let clean = (self.candidates & !union).count_ones() as usize;
        clean >= self.remaining_fillins
    }

    /// Support of an already-scheduled replica.
    fn support_of(&self, r: ReplicaRef) -> u64 {
        self.supports.of(r)
    }
}

/// Fills `bbar[j]` with `B̄(tj)` for every predecessor `tj` of `t` (in
/// in-edge order): the replicas living on processors that host exactly
/// one replica among all predecessors' replicas. Returns the number of
/// sets filled, the in-degree of `t` (0 for entry tasks).
fn singleton_replica_sets(
    ctx: &Ctx<'_>,
    t: TaskId,
    count: &mut Vec<usize>,
    bbar: &mut Vec<Vec<Replica>>,
) -> usize {
    let g = &ctx.inst.graph;
    let in_edges = g.in_edges(t);
    if in_edges.is_empty() {
        return 0;
    }
    count.clear();
    count.resize(ctx.inst.num_procs(), 0);
    for &e in in_edges {
        for r in ctx.sched.replicas_of(g.edge(e).src) {
            count[r.proc.index()] += 1;
        }
    }
    if bbar.len() < in_edges.len() {
        bbar.resize_with(in_edges.len(), Vec::new);
    }
    for (set, &e) in bbar.iter_mut().zip(in_edges) {
        set.clear();
        set.extend(
            ctx.sched
                .replicas_of(g.edge(e).src)
                .iter()
                .filter(|r| count[r.proc.index()] == 1),
        );
    }
    in_edges.len()
}

/// Evaluates every unlocked processor for one one-to-one placement of
/// replica `copy` of `t` over the first `preds` B̄ sets, building each
/// candidate's fan-in in `buf.cand` and leaving the winner in
/// `buf.best`; false if no candidate remains.
fn one_to_one_round(
    ctx: &Ctx<'_>,
    t: TaskId,
    copy: usize,
    opts: &CaftOptions,
    preds: usize,
    buf: &mut Buffers,
) -> bool {
    let Buffers {
        supports,
        locked,
        bbar,
        cand,
        best,
        planned,
        ..
    } = buf;
    let bbar = &bbar[..preds];
    let lineage = opts.disjoint_lineages.then(|| LineageCtx {
        supports,
        placed: supports.first(t, copy),
        remaining_fillins: opts.eps - copy,
        candidates: ctx.candidate_procs().fold(0, |a, p| a | proc_bit(p)),
    });
    let g = &ctx.inst.graph;
    let in_edges = g.in_edges(t);
    let dst_ref = ReplicaRef::new(t, copy);
    let mut best_eft: Option<f64> = None;

    'candidates: for p in ctx.candidate_procs() {
        // Space exclusion: no second replica of `t` on one processor.
        if locked.contains(&p) || ctx.sched.replicas_of(t).iter().any(|r| r.proc == p) {
            continue;
        }
        cand.reset(p);
        for (j, &e) in in_edges.iter().enumerate() {
            let pred = g.edge(e).src;
            // Co-location short-circuit (§6 note): if a replica of the
            // predecessor lives on the candidate itself, use it for free.
            if let Some(local) = ctx.sched.replicas_of(pred).iter().find(|r| r.proc == p) {
                cand.specs.push(MsgSpec {
                    edge: e,
                    src: local.of,
                    dst: dst_ref,
                    from: local.proc,
                    ready: local.finish,
                    w: 0.0,
                });
                cand.senders.push(local.proc);
                if let Some(l) = &lineage {
                    cand.support |= l.support_of(local.of);
                }
                // Pop it from B̄ only if it is a singleton replica.
                cand.heads
                    .push(bbar[j].iter().any(|x| x.of == local.of).then_some(local.of));
                continue;
            }
            // Head of B̄(tj): the replica with the earliest unconstrained
            // communication finish towards p (the sort of Alg. 5.2 line 3).
            // Under hardening, only heads whose support stays disjoint from
            // the sibling replicas' supports are admissible.
            let support = cand.support;
            let head = bbar[j]
                .iter()
                .filter(|r| r.proc != p)
                .filter(|r| match &lineage {
                    Some(l) => l.admissible(support | l.support_of(r.of)),
                    None => true,
                })
                .min_by(|a, b| {
                    let fa = unconstrained_finish(ctx, a, e, p);
                    let fb = unconstrained_finish(ctx, b, e, p);
                    fa.total_cmp(&fb).then_with(|| a.of.cmp(&b.of))
                });
            match head {
                Some(h) => {
                    cand.specs.push(MsgSpec {
                        edge: e,
                        src: h.of,
                        dst: dst_ref,
                        from: h.proc,
                        ready: h.finish,
                        w: ctx.inst.comm_time(e, h.proc, p),
                    });
                    cand.senders.push(h.proc);
                    if let Some(l) = &lineage {
                        cand.support |= l.support_of(h.of);
                    }
                    cand.heads.push(Some(h.of));
                }
                // B̄(tj) exhausted for this candidate (can happen when the
                // only singleton replicas sit on p itself, already handled,
                // or were popped): candidate unusable.
                None => continue 'candidates,
            }
        }
        if let Some(l) = &lineage {
            // Final admissibility: the assembled support must stay disjoint
            // and leave room for the remaining fill-ins.
            if !l.admissible(cand.support) {
                continue 'candidates;
            }
        }
        let eft = ctx.eval(t, p, &cand.specs, planned).eft;
        let better = match best_eft {
            None => true,
            Some(beft) => {
                eft.total_cmp(&beft)
                    .then_with(|| best.proc.cmp(&p))
                    .then_with(|| std::cmp::Ordering::Less)
                    == std::cmp::Ordering::Less
            }
        };
        if better {
            best_eft = Some(eft);
            std::mem::swap(cand, best);
        }
    }
    best_eft.is_some()
}

/// The unconstrained link finish `F̂(c, l)` of sending `r`'s data over edge
/// `e` to processor `p` — the sort key of Algorithm 5.2 line 3.
fn unconstrained_finish(ctx: &Ctx<'_>, r: &Replica, e: ft_graph::EdgeId, p: ProcId) -> f64 {
    r.finish
        .max(ctx.state.send_free(r.proc))
        .max(ctx.state.link_ready(r.proc, p))
        + ctx.inst.comm_time(e, r.proc, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::{fork, random_layered, random_outforest, RandomDagParams};
    use ft_graph::GraphBuilder;
    use ft_model::validate_schedule;
    use ft_platform::{random_instance, ExecMatrix, Platform, PlatformParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_instance(g: ft_graph::TaskGraph, m: usize) -> Instance {
        let v = g.num_tasks();
        Instance::new(
            g,
            Platform::uniform_clique(m, 1.0),
            ExecMatrix::from_fn(v, m, |_, _| 1.0),
        )
    }

    #[test]
    fn valid_schedules_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(20);
        for seed in 0..4u64 {
            let g = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
            let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
            for eps in [0usize, 1, 3] {
                let s = caft(&inst, eps, CommModel::OnePort, seed);
                let errs = validate_schedule(&inst, &s);
                assert!(errs.is_empty(), "eps {eps}: {errs:?}");
                assert!(s.replicas.iter().all(|r| r.len() == eps + 1));
            }
        }
    }

    #[test]
    fn proposition_5_1_fork_message_bound() {
        // On fork/outforest graphs CAFT generates at most e(ε+1) messages.
        let mut rng = StdRng::seed_from_u64(21);
        let g = fork(12, 1.0..=2.0, 1.0..=3.0, &mut rng);
        let e = g.num_edges();
        let inst = uniform_instance(g, 10);
        for eps in [1usize, 2, 3] {
            let s = caft(&inst, eps, CommModel::OnePort, 0);
            assert!(validate_schedule(&inst, &s).is_empty());
            let total = s.messages.len();
            assert!(
                total <= e * (eps + 1),
                "eps {eps}: {total} messages > e(ε+1) = {}",
                e * (eps + 1)
            );
        }
    }

    #[test]
    fn proposition_5_1_outforest_message_bound() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = random_outforest(40, 0.1, 1.0..=5.0, 1.0..=5.0, &mut rng);
        let e = g.num_edges();
        let inst = uniform_instance(g, 8);
        for eps in [1usize, 2] {
            let s = caft(&inst, eps, CommModel::OnePort, 0);
            assert!(validate_schedule(&inst, &s).is_empty());
            assert!(
                s.messages.len() <= e * (eps + 1),
                "eps {eps}: {} > {}",
                s.messages.len(),
                e * (eps + 1)
            );
        }
    }

    #[test]
    fn caft_sends_fewer_messages_than_ftsa() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = random_layered(&RandomDagParams::default(), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let eps = 3;
        let c = caft(&inst, eps, CommModel::OnePort, 0);
        let f = crate::ftsa::ftsa(&inst, eps, CommModel::OnePort, 0);
        assert!(
            c.num_remote_messages() < f.num_remote_messages(),
            "CAFT {} vs FTSA {}",
            c.num_remote_messages(),
            f.num_remote_messages()
        );
    }

    #[test]
    fn eps0_equals_heft() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let c = caft(&inst, 0, CommModel::OnePort, 5);
        let h = crate::heft::heft(&inst, CommModel::OnePort, 5);
        assert_eq!(c.latency(), h.latency());
        assert_eq!(c.messages.len(), h.messages.len());
    }

    #[test]
    fn deadlock_example_from_proposition_5_2() {
        // The proof's example: t1 ≺ t2, ε = 1. With locking, the edges out
        // of a processor hosting both a t1 copy and a t2 copy must go "to
        // itself": no replica of t2 may depend on a *different* processor's
        // t1 copy while its own host also hosts a t1 copy.
        let mut b = GraphBuilder::new();
        let t1 = b.add_task(1.0);
        let t2 = b.add_task(1.0);
        b.add_edge(t1, t2, 5.0).unwrap();
        let inst = uniform_instance(b.build(), 3);
        let s = caft(&inst, 1, CommModel::OnePort, 0);
        assert!(validate_schedule(&inst, &s).is_empty());
        // Each replica of t2 receives from exactly one replica of t1, and
        // the two (sender, receiver) chains are processor-disjoint (or
        // co-located), so one failure cannot cut both.
        let mut support: Vec<Vec<ft_platform::ProcId>> = Vec::new();
        for r in s.replicas_of(ft_graph::TaskId(1)) {
            let msgs: Vec<_> = s.messages_into(r.of).collect();
            assert_eq!(msgs.len(), 1, "one-to-one: single incoming copy");
            let mut procs = vec![r.proc];
            if !msgs[0].is_local() {
                procs.push(msgs[0].from);
            }
            support.push(procs);
        }
        assert!(
            support[0].iter().all(|p| !support[1].contains(p)),
            "chains must be disjoint: {support:?}"
        );
    }

    #[test]
    fn ablation_disable_one_to_one_matches_ftsa_message_count() {
        let mut rng = StdRng::seed_from_u64(25);
        let g = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let opts = CaftOptions {
            eps: 2,
            model: CommModel::OnePort,
            seed: 0,
            one_to_one: false,
            ..CaftOptions::default()
        };
        let ablated = caft_with(&inst, opts);
        assert!(validate_schedule(&inst, &ablated).is_empty());
        // Without the one-to-one pass every replica takes the full fan-in,
        // so the message count jumps back to FTSA territory — strictly more
        // than contention-aware CAFT.
        let full = caft(&inst, 2, CommModel::OnePort, 0);
        assert!(
            ablated.num_remote_messages() > full.num_remote_messages(),
            "ablated {} vs full {}",
            ablated.num_remote_messages(),
            full.num_remote_messages()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(26);
        let g = random_layered(&RandomDagParams::default().with_tasks(20), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let a = caft(&inst, 2, CommModel::OnePort, 9);
        let b = caft(&inst, 2, CommModel::OnePort, 9);
        assert_eq!(a.latency(), b.latency());
        assert_eq!(a.messages.len(), b.messages.len());
    }

    #[test]
    fn macro_dataflow_model_also_valid() {
        let mut rng = StdRng::seed_from_u64(27);
        let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 0.5, &mut rng);
        let s = caft(&inst, 2, CommModel::MacroDataflow, 0);
        assert!(validate_schedule(&inst, &s).is_empty());
    }
}

#[cfg(test)]
mod hardened_tests {
    use super::*;
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_model::validate_schedule;
    use ft_platform::{random_instance, PlatformParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hardened_schedules_audit_clean() {
        let mut rng = StdRng::seed_from_u64(60);
        for seed in 0..3u64 {
            let g = random_layered(&RandomDagParams::default().with_tasks(40), &mut rng);
            let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
            for eps in [1usize, 2] {
                let s = caft_hardened(&inst, eps, CommModel::OnePort, seed);
                let errs = validate_schedule(&inst, &s);
                assert!(errs.is_empty(), "eps {eps}: {errs:?}");
            }
        }
    }

    #[test]
    fn hardened_costs_messages_but_not_more_than_ftsa() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = random_layered(&RandomDagParams::default(), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let eps = 2;
        let plain = caft(&inst, eps, CommModel::OnePort, 0);
        let hard = caft_hardened(&inst, eps, CommModel::OnePort, 0);
        let full = crate::ftsa::ftsa(&inst, eps, CommModel::OnePort, 0);
        assert!(
            hard.num_remote_messages() >= plain.num_remote_messages(),
            "hardening cannot reduce messages: {} vs {}",
            hard.num_remote_messages(),
            plain.num_remote_messages()
        );
        assert!(
            hard.num_remote_messages() <= full.num_remote_messages() * 11 / 10,
            "hardened {} should stay near/below FTSA {}",
            hard.num_remote_messages(),
            full.num_remote_messages()
        );
    }

    #[test]
    fn hardened_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = random_layered(&RandomDagParams::default().with_tasks(30), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let a = caft_hardened(&inst, 2, CommModel::OnePort, 4);
        let b = caft_hardened(&inst, 2, CommModel::OnePort, 4);
        assert_eq!(a.latency(), b.latency());
        assert_eq!(a.messages.len(), b.messages.len());
    }

    #[test]
    #[should_panic]
    fn hardened_rejects_huge_platforms() {
        let mut rng = StdRng::seed_from_u64(63);
        let g = random_layered(&RandomDagParams::default().with_tasks(10), &mut rng);
        let inst = random_instance(g, &PlatformParams::default().with_procs(65), 1.0, &mut rng);
        caft_hardened(&inst, 1, CommModel::OnePort, 0);
    }
}
