//! Planted *interprocedural* violation for `lock-order`: the cell
//! lock is acquired two calls below a ring batch held in `top`. The
//! lock-set dataflow must carry the ring class through `middle` into
//! `deep` and name the witness chain. Linted as if this file were
//! `crates/runtime/src/shard.rs`. Never compiled — read as text by
//! `tests/fixtures.rs`.

impl Engine {
    fn top(&self) {
        let batch = self.lock_slots(class);
        self.middle();
        drop(batch);
    }

    fn middle(&self) {
        self.deep();
    }

    fn deep(&self) {
        let cell = self.cell.read(); // VIOLATION: cell under the ring batch held in `top`
        drop(cell);
    }

    fn lock_slots(&self, class: OpClass) -> Vec<Guard> {
        class.slots().map(|s| self.shards[s].lock()).collect()
    }
}
