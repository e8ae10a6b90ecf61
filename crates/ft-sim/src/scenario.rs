//! Fault scenarios: which processors fail, when — and whether they reboot.
//!
//! The paper's model is fail-silent / fail-stop (§1, §2): a failed
//! processor computes nothing and sends nothing, and failures are
//! permanent. Two views of the same [`FaultScenario`] coexist:
//!
//! * the **static adversarial view** used by [`replay`](crate::replay()):
//!   every listed processor is treated as dead from time 0, so every
//!   replica and every message of a dead processor is lost (DESIGN.md §2).
//!   This is the worst case for a static schedule and the view under which
//!   ε-resilience (Proposition 5.2) is checked;
//! * the **timed view** used by the online engine in `ft-runtime`: each
//!   listed processor works normally until its [`crash
//!   time`](FaultScenario::crash_time) and is fail-stop dead afterwards —
//!   forever for a *permanent* crash, or until the end of its repair
//!   window for a *transient* one.
//!
//! [`FaultScenario::procs`] and [`FaultScenario::random`] build the
//! historical t = 0 special case; [`FaultScenario::timed`] and
//! [`FaultScenario::random_timed`] attach strictly later crash times;
//! [`FaultScenario::transient`] additionally attaches a repair time per
//! failure **epoch** — a processor may crash, reboot at
//! `crash + repair`, and crash again later (multiple epochs per
//! processor). A repair of `f64::INFINITY` is exactly a permanent crash,
//! and a scenario whose every repair is infinite behaves byte-identically
//! to the corresponding permanent scenario everywhere (the availability
//! identity pinned by `tests/timed_model.rs`; DESIGN.md §6).

use ft_platform::ProcId;
use rand::seq::index::sample;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A set of crashed processors with their crash times and, for transient
/// failures, their repair windows.
///
/// Serde is hand-rolled (not derived): the transient fields are omitted
/// when empty and tolerated when missing, so permanent-only scenarios
/// keep the exact pre-transient JSON shape and documents written by the
/// pre-transient code still deserialize.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScenario {
    dead: Vec<ProcId>,
    /// First crash time of `dead[i]`; `0.0` is the adversarial
    /// dead-from-start case. Non-negative and finite.
    times: Vec<f64>,
    /// Repair duration of the first failure epoch of `dead[i]`
    /// (`f64::INFINITY` = permanent). Empty means every crash is
    /// permanent — the historical representation, kept so scenarios built
    /// by the pre-transient constructors compare and serialize unchanged.
    repairs: Vec<f64>,
    /// Failure epochs after the first, as `(proc, crash, repair)` sorted
    /// by processor then crash time. Only transient processors (finite
    /// earlier repairs) can relapse.
    relapses: Vec<(ProcId, f64, f64)>,
}

impl FaultScenario {
    /// No failures.
    pub fn none() -> Self {
        FaultScenario::default()
    }

    /// The given processors fail at time 0 (deduplicated, sorted).
    pub fn procs(procs: &[ProcId]) -> Self {
        let mut dead = procs.to_vec();
        dead.sort_unstable();
        dead.dedup();
        let times = vec![0.0; dead.len()];
        FaultScenario {
            dead,
            times,
            repairs: Vec::new(),
            relapses: Vec::new(),
        }
    }

    /// The given processors fail at the given times (deduplicated keeping
    /// the *earliest* time per processor, sorted by processor).
    ///
    /// # Panics
    /// Panics if a crash time is negative or non-finite.
    pub fn timed(crashes: &[(ProcId, f64)]) -> Self {
        for &(p, t) in crashes {
            assert!(t.is_finite() && t >= 0.0, "bad crash time {t} for {p}");
        }
        let mut sorted = crashes.to_vec();
        sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        sorted.dedup_by_key(|&mut (p, _)| p);
        let (dead, times) = sorted.into_iter().unzip();
        FaultScenario {
            dead,
            times,
            repairs: Vec::new(),
            relapses: Vec::new(),
        }
    }

    /// Transient (rebooting) failures: each `(proc, crash, repair)` entry
    /// is one failure **epoch** — the processor is down during
    /// `(crash, crash + repair)` and up again at the reboot instant
    /// `crash + repair` (crashes take effect strictly after their time,
    /// reboots exactly at theirs). A repair of `f64::INFINITY` makes the
    /// epoch permanent; a scenario whose every repair is infinite is
    /// normalized to the permanent representation, so it compares equal
    /// to the same scenario built with [`FaultScenario::timed`].
    ///
    /// A processor may appear several times (multiple epochs); epochs of
    /// one processor must not overlap.
    ///
    /// # Panics
    /// Panics on negative or non-finite crash times, non-positive or NaN
    /// repairs, overlapping epochs of one processor (an epoch may only
    /// start at or after the previous reboot), or an epoch following a
    /// permanent one.
    pub fn transient(crashes: &[(ProcId, f64, f64)]) -> Self {
        for &(p, t, r) in crashes {
            assert!(t.is_finite() && t >= 0.0, "bad crash time {t} for {p}");
            assert!(r > 0.0 && !r.is_nan(), "bad repair time {r} for {p}");
        }
        let mut sorted = crashes.to_vec();
        sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut dead = Vec::new();
        let mut times = Vec::new();
        let mut repairs = Vec::new();
        let mut relapses = Vec::new();
        for &(p, t, r) in &sorted {
            if dead.last() == Some(&p) {
                let prev_up =
                    if let Some(&(q, pt, pr)) = relapses.last().filter(|&&(q, _, _)| q == p) {
                        debug_assert_eq!(q, p);
                        pt + pr
                    } else {
                        *times.last().unwrap() + *repairs.last().unwrap()
                    };
                assert!(
                    t >= prev_up && prev_up.is_finite(),
                    "overlapping failure epochs for {p}: crash {t} before reboot {prev_up}"
                );
                relapses.push((p, t, r));
            } else {
                dead.push(p);
                times.push(t);
                repairs.push(r);
            }
        }
        if relapses.is_empty() && repairs.iter().all(|r| r.is_infinite()) {
            repairs.clear(); // normalize: all-permanent ≡ the historical form
        }
        FaultScenario {
            dead,
            times,
            repairs,
            relapses,
        }
    }

    /// `k` distinct processors chosen uniformly among `m` (the paper's §6
    /// crash drawing: "processors that fail … are chosen uniformly"),
    /// failing at time 0.
    pub fn random<R: Rng>(m: usize, k: usize, rng: &mut R) -> Self {
        Self::random_timed(m, k, |_| 0.0, rng)
    }

    /// `k` distinct uniformly-chosen processors, with the crash time of
    /// each drawn from `draw_time` (in choice order).
    pub fn random_timed<R: Rng>(
        m: usize,
        k: usize,
        mut draw_time: impl FnMut(&mut R) -> f64,
        rng: &mut R,
    ) -> Self {
        assert!(k <= m, "cannot fail {k} of {m} processors");
        let crashes: Vec<(ProcId, f64)> = sample(rng, m, k)
            .into_iter()
            .map(|i| (ProcId::from_index(i), draw_time(rng)))
            .collect();
        Self::timed(&crashes)
    }

    /// True if `p` fails in this scenario (at any time, in any epoch) —
    /// the static adversarial view.
    #[inline]
    pub fn is_dead(&self, p: ProcId) -> bool {
        self.dead.binary_search(&p).is_ok()
    }

    /// True if `p` is down at time `t` (timed view): inside some failure
    /// epoch's `(crash, crash + repair)` window. Crashes take effect
    /// strictly after their instant — work *finishing* at the crash time
    /// still completes — and reboots exactly at theirs, so `p` is up
    /// again at `crash + repair`.
    #[inline]
    pub fn is_dead_at(&self, p: ProcId, t: f64) -> bool {
        self.epochs_of(p).any(|(c, up)| c < t && t < up)
    }

    /// The **first** crash time of `p`, or `None` if it never fails.
    #[inline]
    pub fn crash_time(&self, p: ProcId) -> Option<f64> {
        self.dead.binary_search(&p).ok().map(|i| self.times[i])
    }

    /// The first crash time of `p` as a deadline: `+∞` for processors
    /// that never fail. This is the deadline of work placed at time 0;
    /// for work placed later on a transient platform see
    /// [`deadline_after`](FaultScenario::deadline_after).
    #[inline]
    pub fn deadline(&self, p: ProcId) -> f64 {
        self.crash_time(p).unwrap_or(f64::INFINITY)
    }

    /// The crash deadline of work placed on `p` at time `t`: the crash
    /// instant of the first failure epoch not already over by `t`
    /// (`crash + repair > t`), or `+∞` when no such epoch exists. Work
    /// placed while `p` is *down* gets the current epoch's (past) crash
    /// instant and can never finish in time — the engine's knowledge
    /// honesty: work optimistically placed on a processor whose crash is
    /// still undetected simply fails. On a permanent-only scenario this
    /// is the first crash time for every `t`, which is how the
    /// availability model degenerates to the historical engine.
    #[inline]
    pub fn deadline_after(&self, p: ProcId, t: f64) -> f64 {
        self.epochs_of(p)
            .find(|&(_, up)| up > t)
            .map_or(f64::INFINITY, |(c, _)| c)
    }

    /// The failure epochs of `p` as `(crash, reboot)` instants in time
    /// order (`reboot = crash + repair`, `+∞` when permanent). Empty for
    /// a processor that never fails.
    pub fn epochs_of(&self, p: ProcId) -> impl Iterator<Item = (f64, f64)> + '_ {
        let first = self
            .dead
            .binary_search(&p)
            .ok()
            .map(|i| {
                let r = self.repairs.get(i).copied().unwrap_or(f64::INFINITY);
                (self.times[i], self.times[i] + r)
            })
            .into_iter();
        let later = self
            .relapses
            .iter()
            .filter(move |&&(q, _, _)| q == p)
            .map(|&(_, c, r)| (c, c + r));
        first.chain(later)
    }

    /// True if any failure epoch has a finite repair (some processor
    /// reboots). Permanent-only scenarios — including everything the
    /// pre-transient constructors build — return false.
    pub fn has_transients(&self) -> bool {
        !self.relapses.is_empty() || self.repairs.iter().any(|r| r.is_finite())
    }

    /// Number of failed processors (distinct, regardless of how many
    /// epochs each has; see
    /// [`num_crash_epochs`](FaultScenario::num_crash_epochs)).
    #[inline]
    pub fn num_failures(&self) -> usize {
        self.dead.len()
    }

    /// Total number of failure epochs across all processors (equals
    /// [`num_failures`](FaultScenario::num_failures) for permanent-only
    /// scenarios).
    #[inline]
    pub fn num_crash_epochs(&self) -> usize {
        self.dead.len() + self.relapses.len()
    }

    /// The failed processors, sorted.
    pub fn dead(&self) -> &[ProcId] {
        &self.dead
    }

    /// `(processor, first crash time)` pairs, sorted by processor.
    pub fn crashes(&self) -> impl Iterator<Item = (ProcId, f64)> + '_ {
        self.dead.iter().copied().zip(self.times.iter().copied())
    }

    /// The earliest crash time, or `None` for a failure-free scenario.
    pub fn earliest_crash(&self) -> Option<f64> {
        self.times.iter().copied().reduce(f64::min)
    }

    /// True if every crash happens at time 0 and is permanent (the
    /// historical adversarial special case; such scenarios behave
    /// identically under static replay and the online engine's `Absorb`
    /// policy).
    pub fn is_static(&self) -> bool {
        self.times.iter().all(|&t| t == 0.0) && !self.has_transients()
    }
}

impl Serialize for FaultScenario {
    fn to_value(&self) -> serde::Value {
        let mut pairs = vec![
            ("dead".to_string(), self.dead.to_value()),
            ("times".to_string(), self.times.to_value()),
        ];
        // Transient fields only when present: permanent-only scenarios
        // keep the pre-transient JSON shape byte-for-byte.
        if !self.repairs.is_empty() {
            pairs.push(("repairs".to_string(), self.repairs.to_value()));
        }
        if !self.relapses.is_empty() {
            pairs.push(("relapses".to_string(), self.relapses.to_value()));
        }
        serde::Value::Map(pairs)
    }
}

impl Deserialize for FaultScenario {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn optional<T: Deserialize>(v: &serde::Value, name: &str) -> Result<Vec<T>, serde::Error> {
            match serde::field(v, name) {
                // Absent (or null) = a pre-transient, permanent-only
                // document.
                Ok(serde::Value::Null) | Err(_) => Ok(Vec::new()),
                Ok(inner) => Deserialize::from_value(inner),
            }
        }
        Ok(FaultScenario {
            dead: Deserialize::from_value(serde::field(v, "dead")?)?,
            times: Deserialize::from_value(serde::field(v, "times")?)?,
            repairs: optional(v, "repairs")?,
            relapses: optional(v, "relapses")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_kills_nobody() {
        let s = FaultScenario::none();
        assert_eq!(s.num_failures(), 0);
        assert!(!s.is_dead(ProcId(0)));
        assert_eq!(s.earliest_crash(), None);
        assert!(s.is_static());
        assert!(!s.has_transients());
    }

    #[test]
    fn procs_dedup_and_sort() {
        let s = FaultScenario::procs(&[ProcId(3), ProcId(1), ProcId(3)]);
        assert_eq!(s.dead(), &[ProcId(1), ProcId(3)]);
        assert!(s.is_dead(ProcId(3)));
        assert!(!s.is_dead(ProcId(2)));
        assert_eq!(s.crash_time(ProcId(3)), Some(0.0));
        assert!(s.is_static());
    }

    #[test]
    fn timed_keeps_earliest_per_proc() {
        let s = FaultScenario::timed(&[(ProcId(2), 7.5), (ProcId(0), 3.0), (ProcId(2), 4.0)]);
        assert_eq!(s.dead(), &[ProcId(0), ProcId(2)]);
        assert_eq!(s.crash_time(ProcId(2)), Some(4.0));
        assert_eq!(s.crash_time(ProcId(1)), None);
        assert_eq!(s.deadline(ProcId(1)), f64::INFINITY);
        assert_eq!(s.earliest_crash(), Some(3.0));
        assert!(!s.is_static());
    }

    #[test]
    fn timed_liveness_is_strict_after_the_crash() {
        let s = FaultScenario::timed(&[(ProcId(1), 5.0)]);
        assert!(
            !s.is_dead_at(ProcId(1), 5.0),
            "work finishing at τ completes"
        );
        assert!(s.is_dead_at(ProcId(1), 5.0 + 1e-9));
        assert!(!s.is_dead_at(ProcId(0), 1e12));
        // The static view still reports the processor as failed.
        assert!(s.is_dead(ProcId(1)));
    }

    #[test]
    fn random_draws_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = FaultScenario::random(10, 3, &mut rng);
            assert_eq!(s.num_failures(), 3);
            assert!(s.dead().windows(2).all(|w| w[0] < w[1]));
            assert!(s.dead().iter().all(|p| p.index() < 10));
            assert!(s.is_static());
        }
    }

    #[test]
    fn random_timed_draws_times() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = FaultScenario::random_timed(8, 4, |r| r.gen_range(1.0..=9.0), &mut rng);
        assert_eq!(s.num_failures(), 4);
        assert!(s.crashes().all(|(_, t)| (1.0..=9.0).contains(&t)));
        assert!(!s.is_static());
    }

    #[test]
    #[should_panic]
    fn cannot_kill_more_than_platform() {
        let mut rng = StdRng::seed_from_u64(1);
        FaultScenario::random(3, 4, &mut rng);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_crash_times() {
        FaultScenario::timed(&[(ProcId(0), -1.0)]);
    }

    #[test]
    fn transient_windows_and_reboot_boundaries() {
        // One processor with two epochs, one permanently dead.
        let s = FaultScenario::transient(&[
            (ProcId(1), 2.0, 3.0),
            (ProcId(1), 10.0, 1.0),
            (ProcId(4), 6.0, f64::INFINITY),
        ]);
        assert!(s.has_transients());
        assert!(!s.is_static());
        assert_eq!(s.num_failures(), 2);
        assert_eq!(s.num_crash_epochs(), 3);
        assert_eq!(s.crash_time(ProcId(1)), Some(2.0));
        assert_eq!(
            s.epochs_of(ProcId(1)).collect::<Vec<_>>(),
            vec![(2.0, 5.0), (10.0, 11.0)]
        );
        assert_eq!(
            s.epochs_of(ProcId(4)).collect::<Vec<_>>(),
            vec![(6.0, f64::INFINITY)]
        );
        assert_eq!(s.epochs_of(ProcId(0)).count(), 0);
        // Down strictly inside the window, up at both boundaries.
        assert!(!s.is_dead_at(ProcId(1), 2.0));
        assert!(s.is_dead_at(ProcId(1), 3.5));
        assert!(!s.is_dead_at(ProcId(1), 5.0), "up again at the reboot");
        assert!(s.is_dead_at(ProcId(1), 10.5));
        assert!(!s.is_dead_at(ProcId(1), 20.0));
        assert!(s.is_dead_at(ProcId(4), 100.0), "permanent stays down");
    }

    #[test]
    fn deadline_after_tracks_epochs() {
        let s = FaultScenario::transient(&[
            (ProcId(1), 2.0, 3.0),
            (ProcId(1), 10.0, 1.0),
            (ProcId(4), 6.0, f64::INFINITY),
        ]);
        // Work placed before the first crash dies at it…
        assert_eq!(s.deadline_after(ProcId(1), 0.0), 2.0);
        // …placed during the down window gets the (past) crash instant…
        assert_eq!(s.deadline_after(ProcId(1), 3.0), 2.0);
        // …placed at or after the reboot gets the next crash…
        assert_eq!(s.deadline_after(ProcId(1), 5.0), 10.0);
        assert_eq!(s.deadline_after(ProcId(1), 10.0), 10.0);
        // …and after the last epoch, never dies again.
        assert_eq!(s.deadline_after(ProcId(1), 11.0), f64::INFINITY);
        // Permanent crashes keep their deadline forever.
        assert_eq!(s.deadline_after(ProcId(4), 0.0), 6.0);
        assert_eq!(s.deadline_after(ProcId(4), 1e9), 6.0);
        // Never-failing processors have none.
        assert_eq!(s.deadline_after(ProcId(0), 0.0), f64::INFINITY);
        // On permanent-only scenarios deadline_after == deadline at any t.
        let perm = FaultScenario::timed(&[(ProcId(2), 4.0)]);
        for t in [0.0, 3.9, 4.0, 100.0] {
            assert_eq!(perm.deadline_after(ProcId(2), t), 4.0);
        }
    }

    #[test]
    fn all_infinite_repairs_normalize_to_permanent() {
        let t = FaultScenario::transient(&[
            (ProcId(0), 1.0, f64::INFINITY),
            (ProcId(3), 2.5, f64::INFINITY),
        ]);
        let p = FaultScenario::timed(&[(ProcId(0), 1.0), (ProcId(3), 2.5)]);
        assert_eq!(t, p, "repair = ∞ is the permanent representation");
        assert!(!t.has_transients());
        // A mixed scenario is not normalized (and not equal).
        let mixed =
            FaultScenario::transient(&[(ProcId(0), 1.0, 2.0), (ProcId(3), 2.5, f64::INFINITY)]);
        assert!(mixed.has_transients());
        assert_eq!(
            mixed.epochs_of(ProcId(0)).collect::<Vec<_>>(),
            vec![(1.0, 3.0)]
        );
    }

    #[test]
    fn permanent_serde_shape_is_unchanged_and_back_compatible() {
        // Permanent-only scenarios serialize exactly as before the
        // transient fields existed…
        let s = FaultScenario::timed(&[(ProcId(0), 1.5), (ProcId(2), 0.0)]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, r#"{"dead":[0,2],"times":[1.5,0]}"#);
        // …and documents written by the pre-transient code (no repairs /
        // relapses keys) still deserialize.
        let back: FaultScenario = serde_json::from_str(r#"{"dead":[1],"times":[2.5]}"#).unwrap();
        assert_eq!(back, FaultScenario::timed(&[(ProcId(1), 2.5)]));
        assert!(!back.has_transients());
    }

    #[test]
    fn transient_serde_round_trips() {
        let s = FaultScenario::transient(&[
            (ProcId(1), 2.0, 3.0),
            (ProcId(1), 10.0, 1.0),
            (ProcId(4), 6.0, f64::INFINITY),
        ]);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic]
    fn rejects_overlapping_epochs() {
        FaultScenario::transient(&[(ProcId(0), 1.0, 5.0), (ProcId(0), 3.0, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_epochs_after_a_permanent_crash() {
        FaultScenario::transient(&[(ProcId(0), 1.0, f64::INFINITY), (ProcId(0), 9.0, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_non_positive_repairs() {
        FaultScenario::transient(&[(ProcId(0), 1.0, 0.0)]);
    }
}
