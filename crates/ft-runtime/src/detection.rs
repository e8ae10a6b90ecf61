//! Failure-detection models: when each survivor learns of a crash.
//!
//! The paper's fail-stop model assumes crashes are *detected*, not
//! observed instantaneously; the engine originally exposed that as one
//! global scalar latency. A [`DetectionModel`] generalizes it to
//! per-survivor **detection instants**: for a crash of processor `p` at
//! time `t`, the model answers "when does survivor `q` know?". The
//! engine uses those instants in two ways (see DESIGN.md §7):
//!
//! * a crash enters the runtime's coordinator view (and triggers the
//!   recovery policy) at the *earliest* detection instant, and again at
//!   every later instant at which more processors learn of it. The
//!   trigger deliberately counts instants of observers that have since
//!   crashed themselves — a heartbeat timeout fires even if its monitor
//!   died in the meantime — which keeps [`Uniform`
//!   ](DetectionModel::Uniform) byte-compatible with the historical
//!   scalar-latency engine in every scenario; what dead observers can
//!   never do is *host repair* (next rule);
//! * repair work — replacement replicas, checkpoint resumes, and the
//!   sub-DAG repair plans of `Reschedule` — is placed **only on
//!   survivors that have already detected every known crash** (the
//!   survivor-knowledge rule: a processor cannot volunteer for a repair
//!   it does not know is needed).
//!
//! The same models also answer the dual question — "when does survivor
//! `q` learn that `p` is *back*?": a reboot propagates exactly like a
//! crash ([`instants_at`](DetectionModel::instants_at) salts gossip
//! streams per availability event), and a rejoined processor only hosts
//! repair work once its rejoin has entered the coordinator view
//! (DESIGN.md §6).
//!
//! [`DetectionModel::Uniform`] reproduces the historical scalar knob
//! exactly: every survivor detects `delay` after the crash, so there is a
//! single instant per crash and every survivor is repair-eligible at it.
//! This equivalence — and `PerProcessor` with constant delays ≡ `Uniform`
//! — is pinned byte-for-byte by `tests/timed_model.rs`.
//!
//! # Example
//!
//! ```
//! use ft_runtime::DetectionModel;
//! use ft_platform::ProcId;
//! use ft_sim::FaultScenario;
//!
//! // Observer-specific heartbeat timeouts: processor 0 is a fast monitor.
//! let model = DetectionModel::PerProcessor(vec![0.5, 2.0, 2.0]);
//! let scenario = FaultScenario::timed(&[(ProcId(1), 10.0)]);
//! let when = model.instants(3, ProcId(1), 10.0, &scenario);
//! assert_eq!(when, vec![10.5, 12.0, 12.0]);
//! assert_eq!(model.name(), "per-processor");
//! ```

use ft_platform::ProcId;
use ft_sim::FaultScenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// When each survivor learns that a processor has crashed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DetectionModel {
    /// Every survivor detects any crash exactly `delay` after it happens
    /// (a platform-wide heartbeat timeout — the historical scalar knob).
    Uniform(f64),
    /// Observer-specific delays: survivor `q` detects any crash
    /// `delays[q]` after it happens (fast monitors next to slow ones).
    /// The vector length must equal the platform size.
    PerProcessor(Vec<f64>),
    /// Epidemic propagation: one seeded-random processor alive at
    /// `crash + period` notices the missed heartbeat first; every
    /// following round (`period` apart) each informed live processor
    /// pushes the rumor to `fanout` uniformly drawn peers. A processor
    /// informed in round `r` detects at `crash + r · period`. Crashed
    /// processors absorb the rumor without forwarding it.
    Gossip {
        /// Time between gossip rounds (positive, finite).
        period: f64,
        /// Peers each informed processor pushes to per round (≥ 1).
        fanout: usize,
        /// Seed of the propagation randomness (per-crash streams are
        /// derived from it, so a run is a pure function of the config).
        seed: u64,
    },
}

impl DetectionModel {
    /// The historical default: every survivor detects 1 time unit after
    /// the crash.
    pub const DEFAULT_UNIFORM: DetectionModel = DetectionModel::Uniform(1.0);

    /// Uniform detection after `delay`.
    ///
    /// # Panics
    /// Panics if `delay` is negative or non-finite.
    pub fn uniform(delay: f64) -> Self {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "bad detection delay {delay}"
        );
        DetectionModel::Uniform(delay)
    }

    /// Heterogeneous heartbeats: per-processor delays evenly spread over
    /// `[0.5, 1.5] · center` across `m` processors (processor 0 is the
    /// fastest monitor; the mean delay matches
    /// [`Uniform`](DetectionModel::Uniform)`(center)`). The shared
    /// constructor behind the `per-proc` CLI axis of the degradation
    /// sweep, the acceptance example and the benches.
    ///
    /// # Panics
    /// Panics if `center` is negative or non-finite, or `m` is 0.
    pub fn per_processor_spread(m: usize, center: f64) -> Self {
        assert!(m > 0, "empty platform");
        assert!(
            center.is_finite() && center >= 0.0,
            "bad detection delay {center}"
        );
        let delays = (0..m)
            .map(|q| {
                let frac = if m > 1 {
                    q as f64 / (m - 1) as f64
                } else {
                    0.5
                };
                center * (0.5 + frac)
            })
            .collect();
        DetectionModel::PerProcessor(delays)
    }

    /// Validates the model against a platform of `m` processors.
    ///
    /// # Panics
    /// Panics on non-finite or negative delays, a `PerProcessor` vector
    /// whose length differs from `m`, a non-positive gossip period, or a
    /// zero gossip fanout.
    pub fn validate(&self, m: usize) {
        match self {
            DetectionModel::Uniform(d) => {
                assert!(d.is_finite() && *d >= 0.0, "bad detection delay {d}");
            }
            DetectionModel::PerProcessor(delays) => {
                assert_eq!(
                    delays.len(),
                    m,
                    "PerProcessor wants one delay per processor ({} != {m})",
                    delays.len()
                );
                for (q, d) in delays.iter().enumerate() {
                    assert!(
                        d.is_finite() && *d >= 0.0,
                        "bad detection delay {d} for processor {q}"
                    );
                }
            }
            DetectionModel::Gossip { period, fanout, .. } => {
                assert!(
                    period.is_finite() && *period > 0.0,
                    "bad gossip period {period}"
                );
                assert!(*fanout >= 1, "gossip fanout must be at least 1");
            }
        }
    }

    /// Short lowercase name for tables and CLI flags (parameter-free; see
    /// [`label`](DetectionModel::label) for the parameterized form).
    pub fn name(&self) -> &'static str {
        match self {
            DetectionModel::Uniform(_) => "uniform",
            DetectionModel::PerProcessor(_) => "per-processor",
            DetectionModel::Gossip { .. } => "gossip",
        }
    }

    /// Table label including the parameters, e.g. `uniform δ=1.00`,
    /// `per-proc δ∈[0.50,2.00]` or `gossip T=0.50 f=2`.
    pub fn label(&self) -> String {
        match self {
            DetectionModel::Uniform(d) => format!("uniform δ={d:.2}"),
            DetectionModel::PerProcessor(delays) => {
                let lo = delays.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = delays.iter().copied().fold(0.0f64, f64::max);
                format!("per-proc δ∈[{lo:.2},{hi:.2}]")
            }
            DetectionModel::Gossip { period, fanout, .. } => {
                format!("gossip T={period:.2} f={fanout}")
            }
        }
    }

    /// Detection instant of the crash of `p` at time `t` for each of the
    /// `m` processors: entry `q` is the wall-clock instant at which `q`
    /// learns of the crash (`f64::INFINITY` = never). The scenario is
    /// consulted so that propagation cannot route through processors that
    /// are down when they would forward (a processor crashing exactly at
    /// a round instant still forwards, and a transient processor forwards
    /// again from its reboot instant on — boundaries follow the engine's
    /// strictly-after crash semantics).
    ///
    /// Pure in all arguments: the same call always returns the same
    /// instants. Equivalent to [`instants_at`](DetectionModel::instants_at)
    /// with salt 0 — the first-crash event of every processor, which keeps
    /// gossip streams byte-compatible with the pre-transient engine.
    pub fn instants(&self, m: usize, p: ProcId, t: f64, scenario: &FaultScenario) -> Vec<f64> {
        self.instants_at(m, p, t, scenario, 0)
    }

    /// [`instants`](DetectionModel::instants) for the `salt`-th
    /// availability event of processor `p`. The timeout models ignore the
    /// salt (their instants are pure delays); [`Gossip`
    /// ](DetectionModel::Gossip) derives an independent rumor stream per
    /// `(processor, salt)` pair, so the crashes and rejoins of a
    /// transient processor's successive epochs propagate along
    /// decorrelated random paths. The engine salts events in temporal
    /// order: `2·k` for the crash of epoch `k`, `2·k + 1` for its rejoin
    /// (salt 0 — the first crash — reproduces the historical stream).
    pub fn instants_at(
        &self,
        m: usize,
        p: ProcId,
        t: f64,
        scenario: &FaultScenario,
        salt: u64,
    ) -> Vec<f64> {
        let mut when = vec![f64::INFINITY; m];
        self.write_instants(p, t, scenario, salt, &mut when);
        when
    }

    /// [`instants_at`](DetectionModel::instants_at) written in place:
    /// entry `q` of `when`, one entry per processor of the platform, is
    /// the instant at which `q` learns of the event. The engine fills its
    /// per-run knowledge table row by row through this, allocating
    /// nothing.
    pub(crate) fn write_instants(
        &self,
        p: ProcId,
        t: f64,
        scenario: &FaultScenario,
        salt: u64,
        when: &mut [f64],
    ) {
        match self {
            DetectionModel::Uniform(d) => when.fill(t + d),
            DetectionModel::PerProcessor(delays) => {
                for (w, d) in when.iter_mut().zip(delays) {
                    *w = t + d;
                }
            }
            DetectionModel::Gossip {
                period,
                fanout,
                seed,
            } => {
                // Per-event stream: independent across crashes, epochs and
                // rejoins (processor indices fit in 32 bits, so `(p, salt)`
                // packs injectively; salt 0 reproduces the pre-transient
                // per-crash stream exactly).
                let rng = StdRng::seed_from_u64(seed ^ splitmix(p.index() as u64 | (salt << 32)));
                gossip(when, p.index(), t, scenario, *period, *fanout, rng);
            }
        }
    }
}

impl std::fmt::Display for DetectionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Rounds of push gossip after which an uninformed processor is written
/// off (a backstop: with `fanout ≥ 1` coverage of a bounded platform is
/// a.s. achieved far earlier).
fn gossip_round_cap(m: usize) -> usize {
    16 * m.max(4)
}

/// Seeded push-gossip propagation of one availability event (crash or
/// rejoin) of `p` at `t`, written into `when`, one entry per processor;
/// see [`DetectionModel::Gossip`] for the model and
/// [`DetectionModel::instants_at`] for the salt convention behind `rng`.
///
/// The row is its own informed set: a finite entry marks an informed
/// processor. A processor reached during a round holds `NEG_INFINITY`
/// until the round ends, so it forwards only from the next round on.
/// When no live processor notices the event, every entry stays
/// `INFINITY`, `p`'s own included: the event is never known.
fn gossip(
    when: &mut [f64],
    p: usize,
    t: f64,
    scenario: &FaultScenario,
    period: f64,
    fanout: usize,
    mut rng: StdRng,
) {
    let m = when.len();
    when.fill(f64::INFINITY);
    // A processor can forward at instant τ iff it is not inside a down
    // window at τ (finishing work at a crash instant still counts, and a
    // transient processor forwards again from its reboot instant on).
    let alive_at = |q: usize, tau: f64| !scenario.is_dead_at(ProcId::from_index(q), tau);

    // Round 1: one live processor notices the missed heartbeat.
    let first = t + period;
    let monitor = |q: &usize| *q != p && alive_at(*q, first);
    let monitors = (0..m).filter(monitor).count();
    let pick = rng.gen_range(0..monitors.max(1));
    let Some(observer) = (0..m).filter(monitor).nth(pick) else {
        return; // nobody left to notice
    };
    when[observer] = first;
    // p's own entry is irrelevant to eligibility; it reads as the
    // event's instant, marks p informed, and p never forwards.
    when[p] = t;

    for round in 2..=gossip_round_cap(m) {
        if when.iter().all(|w| w.is_finite()) {
            break;
        }
        let now = t + round as f64 * period;
        for q in 0..m {
            // Dead processors absorb the rumor but never forward it; the
            // crashed processor p does not gossip about its own death.
            if !when[q].is_finite() || q == p || !alive_at(q, now) {
                continue;
            }
            for _ in 0..fanout {
                let target = rng.gen_range(0..m - 1);
                let target = if target >= q { target + 1 } else { target };
                if when[target] == f64::INFINITY {
                    when[target] = f64::NEG_INFINITY;
                }
            }
        }
        for w in when.iter_mut().filter(|w| **w == f64::NEG_INFINITY) {
            *w = now;
        }
    }
}

/// SplitMix64 finalizer — decorrelates per-crash gossip streams.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The buffered reference form of [`gossip`]: explicit monitor,
    /// informed and newly-informed buffers, its own output vector, and
    /// the crashed processor's entry written last. The in-place rows
    /// must match it bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn gossip_instants(
        m: usize,
        p: ProcId,
        t: f64,
        scenario: &FaultScenario,
        period: f64,
        fanout: usize,
        seed: u64,
        salt: u64,
    ) -> Vec<f64> {
        let mut when = vec![f64::INFINITY; m];
        if m == 0 {
            return when;
        }
        // Per-event stream: independent across crashes, epochs and rejoins
        // (processor indices fit in 32 bits, so `(p, salt)` packs injectively;
        // salt 0 reproduces the pre-transient per-crash stream exactly).
        let mut rng = StdRng::seed_from_u64(seed ^ splitmix(p.index() as u64 | (salt << 32)));
        // A processor can forward at instant τ iff it is not inside a down
        // window at τ (finishing work at a crash instant still counts, and a
        // transient processor forwards again from its reboot instant on).
        let alive_at = |q: usize, tau: f64| !scenario.is_dead_at(ProcId::from_index(q), tau);

        // Round 1: one live processor notices the missed heartbeat.
        let first = t + period;
        let monitors: Vec<usize> = (0..m)
            .filter(|&q| q != p.index() && alive_at(q, first))
            .collect();
        let Some(&observer) = monitors.get(rng.gen_range(0..monitors.len().max(1))) else {
            return when; // nobody left to notice
        };
        when[observer] = first;
        let mut informed = vec![false; m];
        informed[observer] = true;
        informed[p.index()] = true; // p "knows" trivially and never forwards

        for round in 2..=gossip_round_cap(m) {
            if informed.iter().all(|&i| i) {
                break;
            }
            let now = t + round as f64 * period;
            let mut newly: Vec<usize> = Vec::new();
            for q in 0..m {
                // Dead processors absorb the rumor but never forward it; the
                // crashed processor p does not gossip about its own death.
                if !informed[q] || q == p.index() || !alive_at(q, now) {
                    continue;
                }
                for _ in 0..fanout {
                    let target = rng.gen_range(0..m - 1);
                    let target = if target >= q { target + 1 } else { target };
                    if !informed[target] {
                        newly.push(target);
                    }
                }
            }
            newly.sort_unstable();
            newly.dedup();
            for q in newly {
                informed[q] = true;
                when[q] = now;
            }
        }
        // The crashed processor's own entry is irrelevant to eligibility (it
        // is dead); report it as its crash time for completeness.
        when[p.index()] = t;
        when
    }

    #[test]
    fn names_and_labels_are_stable() {
        assert_eq!(DetectionModel::Uniform(1.0).name(), "uniform");
        assert_eq!(DetectionModel::Uniform(1.0).to_string(), "uniform");
        assert_eq!(DetectionModel::Uniform(1.0).label(), "uniform δ=1.00");
        let pp = DetectionModel::PerProcessor(vec![0.5, 2.0]);
        assert_eq!(pp.name(), "per-processor");
        assert_eq!(pp.label(), "per-proc δ∈[0.50,2.00]");
        let g = DetectionModel::Gossip {
            period: 0.5,
            fanout: 2,
            seed: 7,
        };
        assert_eq!(g.name(), "gossip");
        assert_eq!(g.label(), "gossip T=0.50 f=2");
    }

    #[test]
    fn detection_model_serde_round_trips() {
        for model in [
            DetectionModel::Uniform(0.25),
            DetectionModel::PerProcessor(vec![0.1, 0.2, 0.3]),
            DetectionModel::Gossip {
                period: 0.5,
                fanout: 3,
                seed: 11,
            },
        ] {
            let json = serde_json::to_string(&model).unwrap();
            let back: DetectionModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model);
        }
    }

    #[test]
    fn uniform_and_per_processor_instants() {
        let sc = FaultScenario::timed(&[(ProcId(1), 4.0)]);
        let u = DetectionModel::Uniform(0.5).instants(3, ProcId(1), 4.0, &sc);
        assert_eq!(u, vec![4.5, 4.5, 4.5]);
        let pp = DetectionModel::PerProcessor(vec![1.0, 0.0, 2.0]).instants(3, ProcId(1), 4.0, &sc);
        assert_eq!(pp, vec![5.0, 4.0, 6.0]);
    }

    #[test]
    fn gossip_is_deterministic_and_monotone_in_rounds() {
        let model = DetectionModel::Gossip {
            period: 0.5,
            fanout: 1,
            seed: 3,
        };
        let sc = FaultScenario::timed(&[(ProcId(2), 10.0)]);
        let a = model.instants(8, ProcId(2), 10.0, &sc);
        let b = model.instants(8, ProcId(2), 10.0, &sc);
        assert_eq!(a, b, "gossip instants must be a pure function");
        // Every survivor eventually learns, at a positive round multiple.
        for (q, &w) in a.iter().enumerate() {
            if q == 2 {
                assert_eq!(w, 10.0);
                continue;
            }
            assert!(w.is_finite(), "survivor {q} never informed");
            let rounds = (w - 10.0) / 0.5;
            assert!(rounds >= 1.0 && (rounds - rounds.round()).abs() < 1e-9);
        }
        // Exactly one first observer.
        let first = a
            .iter()
            .enumerate()
            .filter(|&(q, &w)| q != 2 && w == 10.5)
            .count();
        assert_eq!(first, 1);
    }

    #[test]
    fn gossip_never_routes_through_the_dead() {
        // Two early-crashed processors cannot be the first observer.
        let sc = FaultScenario::timed(&[(ProcId(0), 1.0), (ProcId(1), 0.0), (ProcId(2), 0.5)]);
        for seed in 0..32 {
            let model = DetectionModel::Gossip {
                period: 2.0,
                fanout: 2,
                seed,
            };
            let when = model.instants(5, ProcId(0), 1.0, &sc);
            // The first round is at t = 3.0; procs 1 and 2 are dead then
            // and can never have been informed before anyone else.
            let earliest = when
                .iter()
                .enumerate()
                .filter(|&(q, _)| q != 0)
                .map(|(_, &w)| w)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(earliest, 3.0);
            assert!(when[1] >= 3.0 || when[1].is_infinite());
            // Without processors 3 and 4 nobody is left to notice: every
            // entry stays infinite, processor 0's own included.
            let nobody = model.instants(3, ProcId(0), 1.0, &sc);
            assert_eq!(nobody, [f64::INFINITY; 3]);
        }
    }

    #[test]
    fn per_processor_spread_brackets_the_center() {
        let DetectionModel::PerProcessor(d) = DetectionModel::per_processor_spread(5, 2.0) else {
            panic!("expected per-processor");
        };
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], 1.0, "fastest monitor at 0.5x the center");
        assert_eq!(d[4], 3.0, "slowest at 1.5x");
        let mean: f64 = d.iter().sum::<f64>() / 5.0;
        assert!((mean - 2.0).abs() < 1e-12, "same mean as Uniform(center)");
        // Degenerate single-processor platform: the midpoint, no division
        // by zero.
        let DetectionModel::PerProcessor(one) = DetectionModel::per_processor_spread(1, 2.0) else {
            panic!("expected per-processor");
        };
        assert_eq!(one, vec![2.0]);
    }

    #[test]
    fn validate_catches_bad_parameters() {
        DetectionModel::Uniform(0.0).validate(4); // ok: instant detection
        let bad = std::panic::catch_unwind(|| DetectionModel::Uniform(-1.0).validate(4));
        assert!(bad.is_err());
        let short =
            std::panic::catch_unwind(|| DetectionModel::PerProcessor(vec![1.0; 3]).validate(4));
        assert!(short.is_err());
        let zero_fanout = std::panic::catch_unwind(|| {
            DetectionModel::Gossip {
                period: 1.0,
                fanout: 0,
                seed: 0,
            }
            .validate(4)
        });
        assert!(zero_fanout.is_err());
    }

    /// A scenario on `m` processors with up to two failure epochs each
    /// (reboots only when `transient`), and its availability events as
    /// `(proc, instant, salt)` under the engine's salt convention.
    fn arb_scenario(
        m: usize,
        transient: bool,
        rng: &mut StdRng,
    ) -> (FaultScenario, Vec<(ProcId, f64, u64)>) {
        let mut epochs = Vec::new();
        for q in 0..m {
            let mut up = 0.0f64;
            for _ in 0..2 {
                if rng.gen_bool(0.4) {
                    break;
                }
                let crash = up + rng.gen_range(0.0..10.0);
                let repair = match transient && rng.gen_bool(0.7) {
                    true => rng.gen_range(0.1..5.0),
                    false => f64::INFINITY,
                };
                epochs.push((ProcId::from_index(q), crash, repair));
                up = crash + repair;
                if up.is_infinite() {
                    break;
                }
            }
        }
        let scenario = FaultScenario::transient(&epochs);
        let mut events = Vec::new();
        for q in (0..m).map(ProcId::from_index) {
            for (k, (crash, up)) in scenario.epochs_of(q).enumerate() {
                events.push((q, crash, 2 * k as u64));
                if up.is_finite() {
                    events.push((q, up, 2 * k as u64 + 1));
                }
            }
        }
        (scenario, events)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place gossip rows are the buffered reference's bit for
        /// bit — same observer, same rounds, same RNG draws — for every
        /// availability event of permanent and transient scenarios,
        /// whatever the row held before.
        #[test]
        fn in_place_gossip_matches_the_buffered_reference(
            m in 1usize..=32,
            fanout in 1usize..=4,
            period in 0.05f64..4.0,
            seed in any::<u64>(),
            salt_base in 0u64..4,
            transient in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (scenario, mut events) = arb_scenario(m, transient, &mut rng);
            // An event the scenario does not list still has a stream.
            events.push((ProcId::from_index(m - 1), rng.gen_range(0.0..20.0), salt_base));
            let model = DetectionModel::Gossip { period, fanout, seed };
            let mut row = vec![7.0; m];
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (p, t, salt) in events {
                let want = gossip_instants(m, p, t, &scenario, period, fanout, seed, salt);
                model.write_instants(p, t, &scenario, salt, &mut row);
                prop_assert_eq!(bits(&row), bits(&want));
                prop_assert_eq!(bits(&model.instants_at(m, p, t, &scenario, salt)), bits(&want));
            }
            // Every other processor is down for good from t = 0, so no live
            // processor notices: the whole row stays infinite.
            let others: Vec<ProcId> = (0..m - 1).map(ProcId::from_index).collect();
            let alone = FaultScenario::procs(&others);
            let (p, t) = (ProcId::from_index(m - 1), rng.gen_range(0.0..20.0));
            model.write_instants(p, t, &alone, salt_base, &mut row);
            let want = gossip_instants(m, p, t, &alone, period, fanout, seed, salt_base);
            prop_assert_eq!(bits(&row), bits(&want));
            prop_assert!(row.iter().all(|w| *w == f64::INFINITY));
        }
    }
}
