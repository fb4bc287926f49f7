//! Client-side caches.
//!
//! §5.3: "The agent caches file and directory data as well as information
//! specific to the client/server protocol such as NFS file handles and
//! server information."

use std::collections::HashMap;
use std::hash::Hash;

/// A cache whose entries each carry a stamp, and are served only while
/// the stamp passes the reader's check: an expiry for TTL-bounded
/// attributes and name bindings (the classic NFS attribute cache), a
/// version pair for whole-file data (the version pair doubles as NFS's
/// change attribute).
#[derive(Debug)]
pub struct Cache<K, V, S> {
    entries: HashMap<K, (V, S)>,
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to go to the server.
    pub misses: u64,
}

impl<K, V, S> Default for Cache<K, V, S> {
    fn default() -> Self {
        Cache { entries: HashMap::new(), hits: 0, misses: 0 }
    }
}

impl<K: Eq + Hash, V: Clone, S> Cache<K, V, S> {
    /// The entry for `key`, if its stamp passes `valid`.
    pub fn get(&mut self, key: &K, valid: impl FnOnce(&S) -> bool) -> Option<V> {
        match self.entries.get(key) {
            Some((value, stamp)) if valid(stamp) => {
                self.hits += 1;
                Some(value.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `value` under `key`, stamped.
    pub fn put(&mut self, key: K, value: V, stamp: S) {
        self.entries.insert(key, (value, stamp));
    }

    /// Drops one entry (after a write or remove), returning its value.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(value, _)| value)
    }

    /// Drops everything (after failover, when server state is suspect).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deceit_core::VersionPair;
    use deceit_sim::{SimDuration, SimTime};

    /// A reader's check of an expiry stamp at `now`.
    fn at(now: SimTime) -> impl FnOnce(&SimTime) -> bool {
        move |expiry| *expiry > now
    }

    #[test]
    fn attr_cache_ttl() {
        let mut c = Cache::default();
        let t0 = SimTime::ZERO;
        c.put(1, "attr", t0 + SimDuration::from_secs(1));
        assert_eq!(c.get(&1, at(t0 + SimDuration::from_millis(500))), Some("attr"));
        assert_eq!(c.get(&1, at(t0 + SimDuration::from_secs(2))), None, "expired");
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn attr_cache_invalidate() {
        let mut c = Cache::default();
        c.put(1, "attr", SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(c.invalidate(&1), Some("attr"));
        assert_eq!(c.get(&1, at(SimTime::ZERO)), None);
    }

    #[test]
    fn data_cache_version_validation() {
        let mut c = Cache::default();
        let v1 = VersionPair { major: 0, sub: 1 };
        let v2 = VersionPair { major: 0, sub: 2 };
        c.put(2, "old", v1);
        assert_eq!(c.get(&2, |v| *v == v1), Some("old"));
        assert_eq!(c.get(&2, |v| *v == v2), None, "stale data never served");
        assert_eq!((c.hits, c.misses), (1, 1));
    }
}
