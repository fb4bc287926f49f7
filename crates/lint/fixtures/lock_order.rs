//! Planted violations for `lock-order`, linted as if this file were
//! `crates/runtime/src/shard.rs` (the ring-order checks only apply
//! there). Never compiled — read as text by `tests/fixtures.rs`.

impl Engine {
    fn cell_inside_ring(&self) {
        let batch = self.lock_slots(class);
        let cell = self.cell.read(); // VIOLATION: cell after ring
        drop((batch, cell));
    }

    fn raw_ring_indexing(&self) {
        let guard = self.shards[3].lock(); // VIOLATION: only lock_slots proves ascending order
        drop(guard);
    }

    fn lock_slots(&self, class: OpClass) -> Vec<Guard> {
        // Allowed: this *is* the seam that proves ascending order.
        class.slots().map(|s| self.shards[s].lock()).collect()
    }

    fn compliant(&self) {
        let cell = self.cell.read(); // cell first is the documented order
        let batch = self.lock_slots(class);
        drop((cell, batch));
    }
}
