//! Sharded LRU cache of execution results keyed by `(db_id, normalized
//! SQL)`.
//!
//! NL2SQL methods predict the same SQL for repeated (and paraphrased)
//! questions, so a serving layer re-executes identical queries constantly.
//! `minidb` execution is deterministic, which makes the cache
//! outcome-neutral: a hit returns byte-identical results to a fresh
//! execution, so EX/EM outcomes cannot depend on cache state or timing.
//!
//! Sharding bounds contention: a key hashes to one shard, each shard is an
//! independent mutex around a small map with last-used ticks. Eviction
//! scans the shard for the coldest entry — O(shard size), fine for the
//! few-hundred-entry shards a service uses.

use crate::hash::shard_index;
use minidb::ResultSet;
use nl2sql360::ExecFailureKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cached outcome of executing one normalized query on one database: the
/// full result set, kept for gold comparison, or the failure kind — what
/// [`nl2sql360::EvalContext::judge`] scores.
pub type ExecOutcome = Result<ResultSet, ExecFailureKind>;

type Key = (String, String);

struct Shard {
    map: HashMap<Key, (Arc<ExecOutcome>, u64)>,
    tick: u64,
}

/// Sharded LRU mapping `(db_id, normalized SQL)` to execution outcomes.
pub struct ExecCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ExecCache {
    /// A cache with `shards` independent shards holding up to
    /// `per_shard_capacity` entries each. Both are clamped to at least 1.
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        ExecCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), tick: 0 }))
                .collect(),
            per_shard_capacity: per_shard_capacity.max(1),
        }
    }

    // Shards by the shared FNV-1a key hash (`crate::hash`), not
    // `DefaultHasher`: the same `(db_id, sql)` lands on the same shard in
    // every process, so a cluster scheduler that places requests with the
    // same hash can reason about which worker owns a key's hot cache set.
    fn shard_for(&self, key: &Key) -> &Mutex<Shard> {
        &self.shards[shard_index(&key.0, &key.1, self.shards.len())]
    }

    /// Look up a key, refreshing its recency on hit.
    pub fn get(&self, key: &Key) -> Option<Arc<ExecOutcome>> {
        let mut shard = self.shard_for(key).lock().expect("cache shard lock poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.get_mut(key).map(|(v, last)| {
            *last = tick;
            v.clone()
        })
    }

    /// Insert a key, evicting the coldest entry if the shard is full.
    /// Concurrent inserts of the same key are harmless: execution is
    /// deterministic, so both writers carry the same value.
    pub fn insert(&self, key: Key, value: Arc<ExecOutcome>) {
        let mut shard = self.shard_for(&key).lock().expect("cache shard lock poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if shard.map.len() >= self.per_shard_capacity && !shard.map.contains_key(&key) {
            if let Some(coldest) =
                shard.map.iter().min_by_key(|(_, (_, last))| *last).map(|(k, _)| k.clone())
            {
                shard.map.remove(&coldest);
            }
        }
        shard.map.insert(key, (value, tick));
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard lock poisoned").map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tag: u64) -> Arc<ExecOutcome> {
        Arc::new(Ok(ResultSet {
            columns: vec!["c".into()],
            rows: vec![],
            ordered: false,
            work: tag,
        }))
    }

    fn key(s: &str) -> Key {
        ("db".to_string(), s.to_string())
    }

    #[test]
    fn get_after_insert_hits() {
        let c = ExecCache::new(4, 8);
        assert!(c.get(&key("SELECT 1")).is_none());
        c.insert(key("SELECT 1"), outcome(7));
        match &*c.get(&key("SELECT 1")).unwrap() {
            Ok(rs) => assert_eq!(rs.work, 7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lru_evicts_cold_entries_first() {
        // single shard to make eviction order observable
        let c = ExecCache::new(1, 2);
        c.insert(key("a"), outcome(1));
        c.insert(key("b"), outcome(2));
        c.get(&key("a")); // refresh a; b is now coldest
        c.insert(key("c"), outcome(3));
        assert!(c.get(&key("a")).is_some());
        assert!(c.get(&key("b")).is_none());
        assert!(c.get(&key("c")).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shard_placement_follows_the_shared_key_hash() {
        // Keys that `hash::shard_index` maps to the same shard must evict
        // each other; a key on another shard must be untouched. This pins
        // that the cache's internal sharding *is* the shared hash, so the
        // cluster ring and the cache agree on key ownership.
        let shards = 4;
        let cap = 2;
        let c = ExecCache::new(shards, cap);
        let mut by_shard: Vec<Vec<String>> = vec![Vec::new(); shards];
        for i in 0..64 {
            let sql = format!("SELECT {i}");
            by_shard[shard_index("db", &sql, shards)].push(sql);
        }
        let crowded = by_shard.iter().position(|v| v.len() > cap).expect("64 keys fill a shard");
        let lonely = (0..shards).find(|&s| s != crowded && !by_shard[s].is_empty()).unwrap();
        let survivor = ("db".to_string(), by_shard[lonely][0].clone());
        c.insert(survivor.clone(), outcome(99));
        for sql in &by_shard[crowded] {
            c.insert(("db".to_string(), sql.clone()), outcome(1));
        }
        // the crowded shard evicted down to its capacity...
        let crowded_alive = by_shard[crowded]
            .iter()
            .filter(|sql| c.get(&("db".to_string(), (*sql).clone())).is_some())
            .count();
        assert_eq!(crowded_alive, cap);
        // ...without disturbing the key the shared hash put elsewhere
        assert!(c.get(&survivor).is_some());
    }

    #[test]
    fn capacity_bounds_hold_per_shard() {
        let c = ExecCache::new(2, 4);
        for i in 0..100 {
            c.insert(key(&format!("q{i}")), outcome(i));
        }
        assert!(c.len() <= 8, "len {} exceeds shards*cap", c.len());
        assert!(!c.is_empty());
    }
}
