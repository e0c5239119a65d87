//! # laser — tiered key-value store with batch-load pipelines
//!
//! Reproduction of the Laser store from §4 of *Holistic Configuration
//! Management at Facebook* (SOSP 2015): "A special `laser()` restraint
//! invokes `get("$project-$user_id")` on a key-value store called Laser.
//! ... Laser stores data on flash or in memory for fast access. It has
//! automated data pipelines to load data from the output of a stream
//! processing system or a MapReduce job."
//!
//! The store keeps every dataset on a simulated flash tier and serves hot
//! keys from a bounded in-memory cache; reads are cost-accounted so the
//! Gatekeeper optimizer can treat `laser()` as an expensive restraint.
//! Datasets load atomically: a batch pipeline (the stand-in for a MapReduce
//! or stream job) replaces a whole generation at once, so readers never see
//! a half-loaded dataset.
//!
//! [`Laser`] is the single-node store. The rest of the crate turns it into
//! a distributed serving tier on `simnet`: [`route::ShardMap`] partitions
//! the key space over replica groups, [`server::LaserShardServer`] hosts
//! one shard replica per node (ingesting committed stream writes from the
//! Zeus observer feed and bulk loads via PackageVessel), and
//! [`client::LaserClient`] routes reads with a read-through cache, hedged
//! requests, and stale-cache degradation. Gatekeeper evaluates `laser()`
//! restraints against any [`LaserBackend`], so the same rules run against
//! the in-process store or values resolved through the client.

use std::collections::{HashMap, VecDeque};

pub mod client;
pub mod deploy;
pub mod feed;
pub mod metrics;
pub mod msg;
pub mod route;
pub mod server;

/// Read-cost units (arbitrary but fixed, used by the Gatekeeper optimizer
/// and by cost accounting in experiments).
pub mod cost {
    /// Cost of a memory-tier hit.
    pub const MEMORY_HIT: u64 = 1;
    /// Cost of a flash-tier read.
    pub const FLASH_READ: u64 = 25;
    /// Cost of a miss (key absent — still pays a flash probe).
    pub const MISS: u64 = 25;
}

/// Cumulative read statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaserStats {
    /// Reads served from the memory tier.
    pub memory_hits: u64,
    /// Reads served from the flash tier.
    pub flash_reads: u64,
    /// Reads for absent keys.
    pub misses: u64,
    /// Total cost units spent.
    pub cost_units: u64,
}

/// One generation of a named dataset.
#[derive(Debug, Clone, Default)]
struct Dataset {
    generation: u64,
    entries: HashMap<String, f64>,
    /// This dataset's share of the bounded memory tier: key →
    /// (generation, value). Kept beside the entries so one dataset lookup
    /// serves both tiers and a read looks up by borrowed `&str`s.
    memory: HashMap<String, (u64, f64)>,
}

/// The Laser store.
///
/// # Examples
///
/// ```
/// use laser::Laser;
///
/// let mut laser = Laser::new(2);
/// laser.load_dataset("trending", vec![("proj-42".into(), 0.9)]);
/// assert_eq!(laser.get("trending", "proj-42"), Some(0.9));
/// assert_eq!(laser.get("trending", "proj-7"), None);
/// ```
#[derive(Debug, Clone)]
pub struct Laser {
    datasets: HashMap<String, Dataset>,
    /// Capacity of the memory tier, summed over every dataset's share.
    memory_cap: usize,
    /// Insertion order for FIFO eviction of the memory tier: one
    /// (dataset, key) per resident entry, so its length is the tier's size.
    memory_order: VecDeque<(String, String)>,
    stats: LaserStats,
}

impl Laser {
    /// Creates a store whose memory tier holds up to `memory_cap` entries.
    pub fn new(memory_cap: usize) -> Laser {
        Laser {
            datasets: HashMap::new(),
            memory_cap,
            memory_order: VecDeque::new(),
            stats: LaserStats::default(),
        }
    }

    /// Atomically replaces the contents of `dataset` with `entries` (a
    /// batch-pipeline load). The dataset's generation increments; stale
    /// memory-tier entries from the previous generation are ignored on
    /// read.
    pub fn load_dataset(&mut self, dataset: &str, entries: Vec<(String, f64)>) {
        let d = self.datasets.entry(dataset.to_string()).or_default();
        d.generation += 1;
        d.entries = entries.into_iter().collect();
    }

    /// Incrementally upserts entries (a stream-pipeline load). Unlike
    /// [`Laser::load_dataset`], existing keys not mentioned are kept. The
    /// generation still increments so cached values refresh.
    pub fn stream_upsert(&mut self, dataset: &str, entries: Vec<(String, f64)>) {
        let d = self.datasets.entry(dataset.to_string()).or_default();
        d.generation += 1;
        for (k, v) in entries {
            d.entries.insert(k, v);
        }
    }

    /// Reads `key` from `dataset`, paying the tier-appropriate cost.
    pub fn get(&mut self, dataset: &str, key: &str) -> Option<f64> {
        let d = self.datasets.get(dataset)?;
        let generation = d.generation;
        if let Some(&(gen_cached, v)) = d.memory.get(key) {
            if gen_cached == generation {
                self.stats.memory_hits += 1;
                self.stats.cost_units += cost::MEMORY_HIT;
                return Some(v);
            }
        }
        match d.entries.get(key).copied() {
            Some(v) => {
                self.stats.flash_reads += 1;
                self.stats.cost_units += cost::FLASH_READ;
                self.memory_insert(dataset, key, generation, v);
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                self.stats.cost_units += cost::MISS;
                None
            }
        }
    }

    /// Convenience for the Gatekeeper restraint: `get` on the conventional
    /// `"$project-$user_id"` key (§4).
    pub fn get_project_user(&mut self, dataset: &str, project: &str, user_id: u64) -> Option<f64> {
        with_project_user_key(project, user_id, |key| self.get(dataset, key))
    }

    /// Reads `key` from `dataset` without touching the memory tier or the
    /// statistics. For invariant checks and introspection; serving reads go
    /// through [`Laser::get`].
    pub fn peek(&self, dataset: &str, key: &str) -> Option<f64> {
        self.datasets.get(dataset)?.entries.get(key).copied()
    }

    /// Number of entries currently resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.memory_order.len()
    }

    /// Number of keys in `dataset`.
    pub fn dataset_len(&self, dataset: &str) -> usize {
        self.datasets
            .get(dataset)
            .map(|d| d.entries.len())
            .unwrap_or(0)
    }

    /// Current generation of `dataset` (0 if absent).
    pub fn generation(&self, dataset: &str) -> u64 {
        self.datasets
            .get(dataset)
            .map(|d| d.generation)
            .unwrap_or(0)
    }

    /// Read statistics so far.
    pub fn stats(&self) -> LaserStats {
        self.stats
    }

    fn memory_insert(&mut self, dataset: &str, key: &str, generation: u64, v: f64) {
        if self.memory_cap == 0 {
            return;
        }
        let Some(d) = self.datasets.get_mut(dataset) else {
            return;
        };
        if let Some(slot) = d.memory.get_mut(key) {
            *slot = (generation, v);
            return;
        }
        d.memory.insert(key.to_string(), (generation, v));
        self.memory_order
            .push_back((dataset.to_string(), key.to_string()));
        if self.memory_order.len() > self.memory_cap {
            // FIFO eviction keeps the implementation simple and
            // deterministic; hit-rate subtleties are not the point here.
            // The oldest entry is never the one just inserted: the cap is
            // at least 1, so the order holds at least two.
            if let Some((d, k)) = self.memory_order.pop_front() {
                if let Some(evicted) = self.datasets.get_mut(&d) {
                    evicted.memory.remove(&k);
                }
            }
        }
    }
}

/// Anything a `laser()` restraint can read through.
///
/// Gatekeeper evaluates against this trait rather than the concrete
/// [`Laser`] store, so restraints run identically against the in-process
/// store (unit tests, microbenchmarks) and against values resolved through
/// the distributed [`client::LaserClient`] (a [`ResolvedBackend`]).
pub trait LaserBackend {
    /// Reads `key` from `dataset`.
    fn get(&mut self, dataset: &str, key: &str) -> Option<f64>;

    /// Reads the conventional `"$project-$user_id"` key (§4).
    fn get_project_user(&mut self, dataset: &str, project: &str, user_id: u64) -> Option<f64> {
        with_project_user_key(project, user_id, |key| self.get(dataset, key))
    }
}

/// Calls `f` with the conventional `"$project-$user_id"` key (§4), built on
/// the stack: a `laser()` restraint reads once per check, so the key must
/// not cost a heap allocation. Project names longer than the buffer fall
/// back to a heap key.
fn with_project_user_key<R>(project: &str, user_id: u64, f: impl FnOnce(&str) -> R) -> R {
    use std::io::Write;
    const CAP: usize = 128;
    let mut buf = [0u8; CAP];
    let mut rest = &mut buf[..];
    if write!(rest, "{project}-{user_id}").is_err() {
        return f(&format!("{project}-{user_id}"));
    }
    let len = CAP - rest.len();
    f(std::str::from_utf8(&buf[..len]).expect("formatted from a str and an integer"))
}

impl LaserBackend for Laser {
    fn get(&mut self, dataset: &str, key: &str) -> Option<f64> {
        Laser::get(self, dataset, key)
    }
}

/// A [`LaserBackend`] answering from values resolved ahead of evaluation.
///
/// A frontend prefetches the keys a check needs through the
/// [`client::LaserClient`] (fresh, cached, or stale-degraded), deposits them
/// here, and evaluates the Gatekeeper project against this backend — the
/// restraint evaluation itself stays synchronous even though the store is
/// remote. `None` deposits record "the key was resolved and is absent",
/// which is distinct from a read nobody resolved (counted in
/// [`ResolvedBackend::unresolved`]).
#[derive(Debug, Clone, Default)]
pub struct ResolvedBackend {
    /// dataset → key → deposited value, nested like [`Laser`]'s tiers so a
    /// read looks up by borrowed `&str`s.
    values: HashMap<String, HashMap<String, Option<f64>>>,
    /// Reads for keys nobody deposited (a routing bug or a failed query
    /// with no stale cover).
    pub unresolved: u64,
}

impl ResolvedBackend {
    /// Creates an empty backend.
    pub fn new() -> ResolvedBackend {
        ResolvedBackend::default()
    }

    /// Deposits the resolved value for `(dataset, key)`.
    pub fn set(&mut self, dataset: &str, key: &str, value: Option<f64>) {
        self.values
            .entry(dataset.to_string())
            .or_default()
            .insert(key.to_string(), value);
    }

    /// Clears all deposited values (between checks).
    pub fn clear(&mut self) {
        self.values.clear();
    }
}

impl LaserBackend for ResolvedBackend {
    fn get(&mut self, dataset: &str, key: &str) -> Option<f64> {
        match self.values.get(dataset).and_then(|keys| keys.get(key)) {
            Some(v) => *v,
            None => {
                self.unresolved += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_hits_flash_then_memory() {
        let mut l = Laser::new(10);
        l.load_dataset("d", vec![("k".into(), 1.5)]);
        assert_eq!(l.get("d", "k"), Some(1.5));
        assert_eq!(l.get("d", "k"), Some(1.5));
        let s = l.stats();
        assert_eq!(s.flash_reads, 1);
        assert_eq!(s.memory_hits, 1);
        assert_eq!(s.cost_units, cost::FLASH_READ + cost::MEMORY_HIT);
    }

    #[test]
    fn miss_costs_a_probe() {
        let mut l = Laser::new(10);
        l.load_dataset("d", vec![]);
        assert_eq!(l.get("d", "nope"), None);
        assert_eq!(l.stats().misses, 1);
        // Unknown dataset is a cheap None (no probe — dataset routing is
        // in-memory metadata).
        assert_eq!(l.get("ghost", "k"), None);
        assert_eq!(l.stats().misses, 1);
    }

    #[test]
    fn batch_reload_replaces_atomically_and_invalidates_cache() {
        let mut l = Laser::new(10);
        l.load_dataset("d", vec![("a".into(), 1.0), ("b".into(), 2.0)]);
        assert_eq!(l.get("d", "a"), Some(1.0)); // cached now
        l.load_dataset("d", vec![("a".into(), 9.0)]);
        assert_eq!(l.get("d", "a"), Some(9.0), "stale cache must not serve");
        assert_eq!(l.get("d", "b"), None, "removed by batch reload");
        assert_eq!(l.generation("d"), 2);
    }

    #[test]
    fn stream_upsert_keeps_existing_keys() {
        let mut l = Laser::new(10);
        l.load_dataset("d", vec![("a".into(), 1.0)]);
        l.stream_upsert("d", vec![("b".into(), 2.0)]);
        assert_eq!(l.get("d", "a"), Some(1.0));
        assert_eq!(l.get("d", "b"), Some(2.0));
    }

    #[test]
    fn memory_tier_is_bounded() {
        let mut l = Laser::new(2);
        l.load_dataset(
            "d",
            vec![("a".into(), 1.0), ("b".into(), 2.0), ("c".into(), 3.0)],
        );
        l.get("d", "a");
        l.get("d", "b");
        l.get("d", "c"); // evicts "a"
        l.get("d", "a"); // flash again
        let s = l.stats();
        assert_eq!(s.flash_reads, 4);
        assert_eq!(s.memory_hits, 0);
    }

    #[test]
    fn project_user_key_convention() {
        let mut l = Laser::new(10);
        l.load_dataset("trending", vec![("ProjX-7".into(), 0.8)]);
        assert_eq!(l.get_project_user("trending", "ProjX", 7), Some(0.8));
        assert_eq!(l.get_project_user("trending", "ProjX", 8), None);
    }

    #[test]
    fn project_user_key_of_any_length() {
        // 126 + 1 + 1 bytes fill the stack buffer exactly; one more byte
        // takes the heap fallback.
        let fits = "F".repeat(126);
        let spills = "S".repeat(127);
        for (project, user) in [("P", 0), ("P", u64::MAX), (&fits[..], 5), (&spills[..], 5)] {
            assert_eq!(
                with_project_user_key(project, user, str::to_string),
                format!("{project}-{user}")
            );
        }
    }

    #[test]
    fn zero_capacity_memory_tier() {
        let mut l = Laser::new(0);
        l.load_dataset("d", vec![("a".into(), 1.0)]);
        l.get("d", "a");
        l.get("d", "a");
        assert_eq!(l.stats().flash_reads, 2);
        assert_eq!(l.memory_len(), 0);
    }

    #[test]
    fn eviction_at_exact_cap_boundary() {
        let mut l = Laser::new(2);
        l.load_dataset(
            "d",
            vec![("a".into(), 1.0), ("b".into(), 2.0), ("c".into(), 3.0)],
        );
        // Filling to exactly the cap evicts nothing.
        l.get("d", "a");
        l.get("d", "b");
        assert_eq!(l.memory_len(), 2);
        assert_eq!(l.get("d", "a"), Some(1.0));
        assert_eq!(l.get("d", "b"), Some(2.0));
        assert_eq!(l.stats().memory_hits, 2);
        // The cap+1-th distinct key evicts the oldest ("a"), specifically —
        // "b" must survive.
        l.get("d", "c");
        assert_eq!(l.memory_len(), 2);
        let before = l.stats();
        assert_eq!(l.get("d", "b"), Some(2.0));
        assert_eq!(l.get("d", "c"), Some(3.0));
        assert_eq!(l.stats().memory_hits, before.memory_hits + 2);
        assert_eq!(l.get("d", "a"), Some(1.0), "evicted key re-reads flash");
        assert_eq!(l.stats().flash_reads, before.flash_reads + 1);
    }

    #[test]
    fn refresh_of_resident_key_does_not_evict_or_duplicate() {
        let mut l = Laser::new(2);
        l.load_dataset("d", vec![("a".into(), 1.0), ("b".into(), 2.0)]);
        l.get("d", "a");
        l.get("d", "b");
        // A stale-generation re-read of a resident key refreshes it in
        // place: it pays a flash read, but must not evict its neighbor or
        // grow the FIFO order (which would double-evict "a" later).
        l.stream_upsert("d", vec![("a".into(), 9.0)]);
        assert_eq!(l.get("d", "a"), Some(9.0));
        assert_eq!(l.memory_len(), 2);
        assert_eq!(l.stats().flash_reads, 3);
        // "b" was untouched by the refresh; generation advanced though, so
        // its cached value is stale and promotion happens again.
        assert_eq!(l.get("d", "b"), Some(2.0));
        assert_eq!(l.stats().flash_reads, 4);
        // Both now hit memory at the current generation.
        l.get("d", "a");
        l.get("d", "b");
        let s = l.stats();
        assert_eq!(s.memory_hits, 2);
        assert_eq!(s.misses, 0);
        assert_eq!(s.cost_units, 4 * cost::FLASH_READ + 2 * cost::MEMORY_HIT);
    }

    #[test]
    fn fifo_eviction_spans_datasets() {
        let mut l = Laser::new(2);
        l.load_dataset("d1", vec![("a".into(), 1.0), ("c".into(), 3.0)]);
        l.load_dataset("d2", vec![("b".into(), 2.0)]);
        l.get("d1", "a");
        l.get("d2", "b");
        l.get("d1", "c"); // evicts d1's "a", the oldest across both
        assert_eq!(l.memory_len(), 2);
        l.get("d2", "b");
        l.get("d1", "c");
        assert_eq!(l.stats().memory_hits, 2);
        l.get("d1", "a");
        assert_eq!(l.stats().flash_reads, 4, "evicted key re-reads flash");
    }

    #[test]
    fn promotion_accounting_across_generations() {
        let mut l = Laser::new(4);
        l.load_dataset("d", vec![("k".into(), 1.0)]);
        l.get("d", "k"); // flash + promote
        l.get("d", "k"); // memory
        l.load_dataset("d", vec![("k".into(), 2.0)]);
        l.get("d", "k"); // stale cache → flash + re-promote
        l.get("d", "k"); // memory
        let s = l.stats();
        assert_eq!((s.flash_reads, s.memory_hits, s.misses), (2, 2, 0));
        assert_eq!(l.memory_len(), 1, "re-promotion reuses the slot");
    }

    #[test]
    fn resolved_backend_distinguishes_absent_from_unresolved() {
        let mut b = ResolvedBackend::new();
        b.set("d", "proj-1", Some(0.9));
        b.set("d", "proj-2", None);
        assert_eq!(b.get("d", "proj-1"), Some(0.9));
        assert_eq!(b.get("d", "proj-2"), None);
        assert_eq!(b.unresolved, 0);
        assert_eq!(b.get_project_user("d", "proj", 3), None);
        assert_eq!(b.unresolved, 1);
        b.clear();
        b.get("d", "proj-1");
        assert_eq!(b.unresolved, 2);
    }

    #[test]
    fn laser_implements_backend() {
        let mut l = Laser::new(4);
        l.load_dataset("t", vec![("P-7".into(), 0.8)]);
        let b: &mut dyn LaserBackend = &mut l;
        assert_eq!(b.get_project_user("t", "P", 7), Some(0.8));
    }
}
