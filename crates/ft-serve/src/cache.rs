//! The keyed artifact cache: warm instances and schedules shared across
//! jobs.
//!
//! Building a workload has two ε-independent-to-ε-dependent levels —
//! the **instance** (graph + platform; independent of ε) and the **CAFT
//! schedule** (per ε) — and both are pure functions of the
//! [`WorkloadSpec`] fields, so they are cached under content-derived
//! keys (every spec field that feeds the build, with float knobs keyed
//! by their bit patterns). Each level is independently LRU-bounded:
//! a grid of ε variants over one workload shares a single cached
//! instance, and a repeat job skips scheduling entirely — the cache-hit
//! fast path the `serve/` bench group pins.
//!
//! The cache adds zero science: [`WorkloadSpec::build`] is
//! deterministic, so a cached artifact is byte-identical to a rebuilt
//! one (pinned by `cached_artifacts_are_byte_identical` below).

use ft_experiments::WorkloadSpec;
use ft_model::FtSchedule;
use ft_platform::Instance;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Content key of an instance: every [`WorkloadSpec`] field the
/// instance build reads (ε excluded — it only feeds the schedule).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct InstanceKey {
    tasks: usize,
    procs: usize,
    granularity_bits: u64,
    seed: u64,
}

impl InstanceKey {
    fn of(spec: &WorkloadSpec) -> Self {
        InstanceKey {
            tasks: spec.tasks,
            procs: spec.procs,
            granularity_bits: spec.granularity.to_bits(),
            seed: spec.seed,
        }
    }
}

/// Content key of a schedule: the instance key plus ε.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ScheduleKey {
    inst: InstanceKey,
    eps: usize,
}

/// One LRU-bounded key → `Arc<V>` map (least-recently-*used* eviction:
/// hits refresh recency).
struct LruMap<K: std::hash::Hash + Eq + Clone, V> {
    map: HashMap<K, Arc<V>>,
    order: VecDeque<K>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V> LruMap<K, V> {
    fn new(cap: usize) -> Self {
        LruMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, key: &K) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key.clone());
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let hit = self.map.get(key).cloned();
        match hit {
            Some(v) => {
                self.hits += 1;
                self.touch(key);
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: Arc<V>) {
        while self.map.len() >= self.cap {
            let Some(evict) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&evict);
        }
        self.map.insert(key.clone(), value);
        self.touch(&key);
    }
}

/// Whether a job's workload resolution was served from the cache —
/// recorded on every [`FinalRecord`](crate::FinalRecord) so clients (and
/// the CI acceptance drill) can assert the warm path was actually taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolveOutcome {
    /// The instance (graph + platform) was already cached.
    pub instance_hit: bool,
    /// The CAFT schedule was already cached (implies the job skipped
    /// scheduling entirely).
    pub schedule_hit: bool,
}

/// Cumulative cache counters (process lifetime).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Instance-level hits.
    pub instance_hits: u64,
    /// Instance-level misses (builds).
    pub instance_misses: u64,
    /// Schedule-level hits.
    pub schedule_hits: u64,
    /// Schedule-level misses (CAFT runs).
    pub schedule_misses: u64,
    /// Instances currently resident.
    pub instance_entries: usize,
    /// Schedules currently resident.
    pub schedule_entries: usize,
}

/// A workload resolved through the cache: shared artifacts plus whether
/// each level was warm.
pub struct ResolvedJob {
    /// The (possibly shared) instance.
    pub inst: Arc<Instance>,
    /// The (possibly shared) schedule.
    pub sched: Arc<FtSchedule>,
    /// Which levels were cache hits.
    pub outcome: ResolveOutcome,
}

/// The two-level artifact cache. Thread-safe: workers resolve
/// concurrently; the interior lock is held across a miss's build so two
/// workers racing on the same cold key build it once (jobs with
/// *different* keys briefly serialize their builds — an accepted
/// simplicity trade at the current build costs, revisit if profiles say
/// otherwise).
pub struct ArtifactCache {
    inner: Mutex<Inner>,
}

struct Inner {
    instances: LruMap<InstanceKey, Instance>,
    schedules: LruMap<ScheduleKey, FtSchedule>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::with_capacity(32, 64)
    }
}

impl ArtifactCache {
    /// A cache bounded to `instances` resident instances and `schedules`
    /// resident schedules (each at least 1).
    pub fn with_capacity(instances: usize, schedules: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(Inner {
                instances: LruMap::new(instances),
                schedules: LruMap::new(schedules),
            }),
        }
    }

    /// The cache maps. A build that panics (a workload validation let
    /// through) poisons the lock it ran under, yet the maps are only
    /// written after a build returns, so they are consistent and the
    /// poison is safe to ignore: one failed job must not fail every
    /// later one.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves a workload: cached artifacts when warm, built (and
    /// cached) when cold.
    pub fn resolve(&self, spec: &WorkloadSpec) -> ResolvedJob {
        let mut inner = self.lock();
        let ikey = InstanceKey::of(spec);
        let (inst, instance_hit) = match inner.instances.get(&ikey) {
            Some(inst) => (inst, true),
            None => {
                let inst = Arc::new(spec.build_instance());
                inner.instances.insert(ikey.clone(), inst.clone());
                (inst, false)
            }
        };
        let skey = ScheduleKey {
            inst: ikey,
            eps: spec.eps,
        };
        let (sched, schedule_hit) = match inner.schedules.get(&skey) {
            Some(sched) => (sched, true),
            None => {
                let sched = Arc::new(spec.schedule(&inst));
                inner.schedules.insert(skey, sched.clone());
                (sched, false)
            }
        };
        ResolvedJob {
            inst,
            sched,
            outcome: ResolveOutcome {
                instance_hit,
                schedule_hit,
            },
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            instance_hits: inner.instances.hits,
            instance_misses: inner.instances.misses,
            schedule_hits: inner.schedules.hits,
            schedule_misses: inner.schedules.misses,
            instance_entries: inner.instances.map.len(),
            schedule_entries: inner.schedules.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64, eps: usize) -> WorkloadSpec {
        WorkloadSpec {
            tasks: 20,
            procs: 5,
            eps,
            granularity: 1.0,
            seed,
        }
    }

    #[test]
    fn repeat_resolution_is_warm_at_both_levels() {
        let cache = ArtifactCache::default();
        let cold = cache.resolve(&spec(1, 1));
        assert!(!cold.outcome.instance_hit && !cold.outcome.schedule_hit);
        let warm = cache.resolve(&spec(1, 1));
        assert!(warm.outcome.instance_hit && warm.outcome.schedule_hit);
        assert!(
            Arc::ptr_eq(&cold.inst, &warm.inst),
            "same resident artifact"
        );
        assert!(Arc::ptr_eq(&cold.sched, &warm.sched));
        let stats = cache.stats();
        assert_eq!((stats.instance_hits, stats.instance_misses), (1, 1));
        assert_eq!((stats.schedule_hits, stats.schedule_misses), (1, 1));
    }

    #[test]
    fn eps_variants_share_the_instance_level() {
        let cache = ArtifactCache::default();
        cache.resolve(&spec(1, 1));
        let r = cache.resolve(&spec(1, 2));
        assert!(r.outcome.instance_hit, "ε doesn't feed the instance");
        assert!(!r.outcome.schedule_hit, "ε does feed the schedule");
    }

    #[test]
    fn cached_artifacts_are_byte_identical_to_rebuilt_ones() {
        let cache = ArtifactCache::default();
        cache.resolve(&spec(7, 1));
        let warm = cache.resolve(&spec(7, 1));
        let (inst, sched) = spec(7, 1).build();
        assert_eq!(
            warm.inst.mean_task_cost().to_bits(),
            inst.mean_task_cost().to_bits()
        );
        assert_eq!(warm.sched.latency().to_bits(), sched.latency().to_bits());
    }

    #[test]
    fn a_panicking_build_leaves_the_cache_usable() {
        let cache = ArtifactCache::default();
        let mut bad = spec(1, 1);
        bad.eps = bad.procs; // CAFT needs ε + 1 processors: the schedule build panics
        let build = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.resolve(&bad)));
        assert!(build.is_err());
        let r = cache.resolve(&spec(1, 1));
        assert!(
            r.outcome.instance_hit,
            "the instance built first stays cached"
        );
        assert!(!r.outcome.schedule_hit);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_key() {
        let cache = ArtifactCache::with_capacity(2, 2);
        cache.resolve(&spec(1, 1));
        cache.resolve(&spec(2, 1));
        cache.resolve(&spec(1, 1)); // refresh 1: 2 is now the LRU
        cache.resolve(&spec(3, 1)); // evicts 2
        assert!(cache.resolve(&spec(1, 1)).outcome.instance_hit);
        assert!(
            !cache.resolve(&spec(2, 1)).outcome.instance_hit,
            "2 was evicted"
        );
    }
}
