//! The durable/volatile two-level store.
//!
//! Every key has a *volatile* value (what reads see) and a *durable* one
//! (what a crash reverts to); a write names which of the two it reaches.
//! Three ways to write: replace the value ([`Disk::put_sync`] /
//! [`Disk::put_async`]), remove it ([`Disk::delete_sync`] /
//! [`Disk::delete_async`]), or change it where it lies
//! ([`Disk::update_sync`] / [`Disk::update_async`], or [`Disk::update_with`]
//! when the change itself decides whether anything is written) — one lookup, no copy
//! of the value out and back. An update is observationally a `get`, a
//! change to the copy, and the `put_*` of the same durability: same
//! values, same dirty set, same counters, same cost. It exists because
//! the values here (a replica record, a token and its holder set) are
//! large next to the two fields a protocol step changes in them.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use deceit_sim::SimDuration;

/// Sizes a value for disk-latency purposes.
pub trait StoredSize {
    /// Approximate on-disk footprint in bytes.
    fn stored_size(&self) -> usize;
}

impl StoredSize for Vec<u8> {
    fn stored_size(&self) -> usize {
        self.len()
    }
}

impl StoredSize for bytes::Bytes {
    fn stored_size(&self) -> usize {
        self.len()
    }
}

impl StoredSize for String {
    fn stored_size(&self) -> usize {
        self.len()
    }
}

/// Disk timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Fixed cost per synchronous write (seek + rotation).
    pub seek: SimDuration,
    /// Additional cost per kilobyte written.
    pub per_kb: SimDuration,
}

impl DiskConfig {
    /// A late-1980s workstation disk: ~20 ms seek, ~1 ms per KB.
    pub fn workstation() -> Self {
        DiskConfig { seek: SimDuration::from_millis(20), per_kb: SimDuration::from_millis(1) }
    }

    /// A fast dedicated file-server disk.
    pub fn server() -> Self {
        DiskConfig { seek: SimDuration::from_millis(12), per_kb: SimDuration::from_micros(500) }
    }

    /// Cost of one synchronous write of `bytes`.
    pub fn write_cost(&self, bytes: usize) -> SimDuration {
        self.seek + SimDuration::from_micros(self.per_kb.as_micros() * bytes as u64 / 1024)
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::workstation()
    }
}

/// How far a write reaches before the call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Write-through: durable on return (counted in `sync_writes`).
    Sync,
    /// Write-behind: visible at once, durable after a flush (counted in
    /// `async_writes`, key marked dirty).
    Async,
}

/// A keyed store with explicit durable/volatile separation.
///
/// Reads always observe the newest write (volatile view). Durability is a
/// separate dimension: [`Disk::put_sync`] is durable on return,
/// [`Disk::put_async`] becomes durable only when flushed. A [`Disk::crash`]
/// reverts the store to its durable contents, losing unflushed writes and
/// resurrecting unflushed deletions — exactly the exposure a write safety
/// level of 0 accepts (§4).
#[derive(Debug, Clone)]
pub struct Disk<K: Ord + Clone, V: Clone + StoredSize> {
    cfg: DiskConfig,
    durable: BTreeMap<K, V>,
    volatile: BTreeMap<K, V>,
    dirty: BTreeSet<K>,
    /// Total synchronous writes performed.
    pub sync_writes: u64,
    /// Total asynchronous writes performed.
    pub async_writes: u64,
    /// Writes lost to crashes (unflushed at crash time).
    pub lost_writes: u64,
}

impl<K: Ord + Clone, V: Clone + StoredSize> Disk<K, V> {
    /// An empty disk with the given timing profile.
    pub fn new(cfg: DiskConfig) -> Self {
        Disk {
            cfg,
            durable: BTreeMap::new(),
            volatile: BTreeMap::new(),
            dirty: BTreeSet::new(),
            sync_writes: 0,
            async_writes: 0,
            lost_writes: 0,
        }
    }

    /// Reads the newest value for `k` (volatile view).
    pub fn get(&self, k: &K) -> Option<&V> {
        self.volatile.get(k)
    }

    /// Whether `k` currently exists (volatile view).
    pub fn contains(&self, k: &K) -> bool {
        self.volatile.contains_key(k)
    }

    /// All current keys (volatile view).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.volatile.keys()
    }

    /// Keys in `[lo, hi]`, in order (volatile view) — lets composite-key
    /// callers enumerate one prefix group in `O(log n + matches)`
    /// instead of scanning every key.
    pub fn keys_in_range(&self, lo: &K, hi: &K) -> impl Iterator<Item = &K> {
        self.volatile.range(lo.clone()..=hi.clone()).map(|(k, _)| k)
    }

    /// Number of live entries (volatile view).
    pub fn len(&self) -> usize {
        self.volatile.len()
    }

    /// Whether the store is empty (volatile view).
    pub fn is_empty(&self) -> bool {
        self.volatile.is_empty()
    }

    /// Write-through: durable when this returns. Returns the disk time
    /// consumed.
    pub fn put_sync(&mut self, k: K, v: V) -> SimDuration {
        let cost = self.cfg.write_cost(v.stored_size());
        self.durable.insert(k.clone(), v.clone());
        self.volatile.insert(k.clone(), v);
        self.dirty.remove(&k);
        self.sync_writes += 1;
        cost
    }

    /// Write-behind: visible immediately, durable only after a flush.
    pub fn put_async(&mut self, k: K, v: V) {
        self.volatile.insert(k.clone(), v);
        self.dirty.insert(k);
        self.async_writes += 1;
    }

    /// Changes the value of `k` where it lies: `f` sees the volatile
    /// value and says how far the change reaches — or `None` for "left
    /// as it was", in which case nothing is written or counted (so `f`
    /// must not have changed anything). Returns `f`'s result and the
    /// disk time consumed, or `None` when `k` is absent.
    pub fn update_with<R>(
        &mut self,
        k: &K,
        f: impl FnOnce(&mut V) -> (R, Option<Durability>),
    ) -> Option<(R, SimDuration)> {
        let v = self.volatile.get_mut(k)?;
        let (out, reach) = f(v);
        let cost = match reach {
            Some(Durability::Sync) => {
                if let Some(d) = self.durable.get_mut(k) {
                    d.clone_from(v);
                } else {
                    self.durable.insert(k.clone(), v.clone());
                }
                self.dirty.remove(k);
                self.sync_writes += 1;
                self.cfg.write_cost(v.stored_size())
            }
            Some(Durability::Async) => {
                self.dirty.insert(k.clone());
                self.async_writes += 1;
                SimDuration::ZERO
            }
            None => SimDuration::ZERO,
        };
        Some((out, cost))
    }

    /// [`Disk::get`], change, [`Disk::put_sync`] — in place. Returns
    /// `f`'s result and the disk time consumed; `None` (and no write)
    /// when `k` is absent.
    pub fn update_sync<R>(
        &mut self,
        k: &K,
        f: impl FnOnce(&mut V) -> R,
    ) -> Option<(R, SimDuration)> {
        self.update_with(k, |v| (f(v), Some(Durability::Sync)))
    }

    /// [`Disk::get`], change, [`Disk::put_async`] — in place. `None` (and
    /// no write) when `k` is absent.
    pub fn update_async<R>(&mut self, k: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        self.update_with(k, |v| (f(v), Some(Durability::Async))).map(|(out, _)| out)
    }

    /// Durable removal. Returns the disk time consumed.
    pub fn delete_sync(&mut self, k: &K) -> SimDuration {
        self.durable.remove(k);
        self.volatile.remove(k);
        self.dirty.remove(k);
        self.sync_writes += 1;
        self.cfg.write_cost(0)
    }

    /// Removal visible immediately, durable only after a flush.
    pub fn delete_async(&mut self, k: &K) {
        self.volatile.remove(k);
        self.dirty.insert(k.clone());
        self.async_writes += 1;
    }

    /// Makes one key durable (applying a pending write or deletion).
    /// Returns the disk time consumed, or zero if the key was clean.
    pub fn flush_key(&mut self, k: &K) -> SimDuration {
        if !self.dirty.remove(k) {
            return SimDuration::ZERO;
        }
        match self.volatile.get(k) {
            Some(v) => {
                let cost = self.cfg.write_cost(v.stored_size());
                self.durable.insert(k.clone(), v.clone());
                cost
            }
            None => {
                self.durable.remove(k);
                self.cfg.write_cost(0)
            }
        }
    }

    /// Makes every pending write durable. Returns total disk time.
    pub fn flush_all(&mut self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        while let Some(k) = self.dirty.first().cloned() {
            total += self.flush_key(&k);
        }
        total
    }

    /// Keys with unflushed writes or deletions.
    pub fn dirty_keys(&self) -> impl Iterator<Item = &K> {
        self.dirty.iter()
    }

    /// Whether any write is pending.
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Simulates a machine crash: the volatile view reverts to durable
    /// state; unflushed writes are lost.
    pub fn crash(&mut self) {
        self.lost_writes += self.dirty.len() as u64;
        self.volatile = self.durable.clone();
        self.dirty.clear();
    }

    /// Total durable bytes (for capacity accounting).
    pub fn durable_bytes(&self) -> usize {
        self.durable.values().map(StoredSize::stored_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk<u32, Vec<u8>> {
        Disk::new(DiskConfig::workstation())
    }

    #[test]
    fn sync_write_survives_crash() {
        let mut d = disk();
        let cost = d.put_sync(1, vec![0u8; 2048]);
        assert!(cost >= SimDuration::from_millis(20), "cost {cost}");
        d.crash();
        assert_eq!(d.get(&1).map(Vec::len), Some(2048));
        assert_eq!(d.lost_writes, 0);
    }

    #[test]
    fn async_write_lost_on_crash_unless_flushed() {
        let mut d = disk();
        d.put_async(1, vec![1]);
        assert!(d.contains(&1), "visible immediately");
        assert!(d.has_dirty());
        d.crash();
        assert!(!d.contains(&1), "lost");
        assert_eq!(d.lost_writes, 1);

        d.put_async(2, vec![2]);
        let cost = d.flush_key(&2);
        assert!(cost > SimDuration::ZERO);
        d.crash();
        assert!(d.contains(&2), "flushed write survives");
    }

    #[test]
    fn async_overwrite_reverts_to_old_value() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        d.put_async(1, vec![2]);
        assert_eq!(d.get(&1), Some(&vec![2]));
        d.crash();
        assert_eq!(d.get(&1), Some(&vec![1]), "reverts to durable value");
    }

    #[test]
    fn async_delete_resurrects_on_crash() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        d.delete_async(&1);
        assert!(!d.contains(&1));
        d.crash();
        assert!(d.contains(&1), "unflushed deletion undone by crash");
    }

    #[test]
    fn sync_delete_is_durable() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        d.delete_sync(&1);
        d.crash();
        assert!(!d.contains(&1));
    }

    #[test]
    fn flush_all_cleans_everything() {
        let mut d = disk();
        for i in 0..10 {
            d.put_async(i, vec![i as u8]);
        }
        assert_eq!(d.dirty_keys().count(), 10);
        let cost = d.flush_all();
        assert!(cost >= SimDuration::from_millis(200), "10 seeks, cost {cost}");
        assert!(!d.has_dirty());
        d.crash();
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn flush_clean_key_is_free() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        assert_eq!(d.flush_key(&1), SimDuration::ZERO);
    }

    #[test]
    fn write_cost_scales_with_size() {
        let cfg = DiskConfig::workstation();
        // 1 MiB ≈ 1044 ms vs 1 KiB ≈ 21 ms: dominated by per-byte cost.
        assert!(cfg.write_cost(1 << 20) > cfg.write_cost(1024) * 40);
    }

    #[test]
    fn durable_bytes_counts_only_flushed() {
        let mut d = disk();
        d.put_sync(1, vec![0; 100]);
        d.put_async(2, vec![0; 900]);
        assert_eq!(d.durable_bytes(), 100);
        d.flush_all();
        assert_eq!(d.durable_bytes(), 1000);
    }

    #[test]
    fn update_changes_in_place_with_put_accounting() {
        let mut d = disk();
        assert_eq!(d.update_sync(&1, |v| v.push(9)), None, "absent key: nothing written");
        assert_eq!((d.sync_writes, d.async_writes), (0, 0));
        d.put_sync(1, vec![1]);
        let (len, cost) = d.update_sync(&1, |v| (v.push(2), v.len()).1).unwrap();
        assert_eq!((len, cost), (2, DiskConfig::workstation().write_cost(2)));
        assert_eq!(d.update_async(&1, |v| v.push(3)), Some(()));
        assert_eq!(d.get(&1), Some(&vec![1, 2, 3]));
        assert!(d.has_dirty());
        assert_eq!((d.sync_writes, d.async_writes), (2, 1));
        // "Left as it was": no write, no count, not dirty.
        d.flush_all();
        assert_eq!(d.update_with(&1, |v| (v.len(), None)), Some((3, SimDuration::ZERO)));
        assert!(!d.has_dirty());
        assert_eq!((d.sync_writes, d.async_writes), (2, 1));
        d.update_async(&1, |v| v.push(4));
        d.crash();
        assert_eq!(d.get(&1), Some(&vec![1, 2, 3]), "write-behind update lost, write-through kept");
    }

    #[test]
    fn counters_track_operations() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        d.put_async(2, vec![2]);
        d.delete_async(&1);
        assert_eq!(d.sync_writes, 1);
        assert_eq!(d.async_writes, 2);
    }
}
