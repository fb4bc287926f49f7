//! Planted violations for `ordering-audit`, linted as if this file
//! were `crates/core/src/cluster.rs` (in scope, not a counter-module
//! file). The rule resolves each receiver to its *declaring field*,
//! so renaming a binding cannot dodge the audit. Never compiled —
//! read as text by `tests/fixtures.rs`.

pub struct Flags {
    ready: AtomicBool,
    done: AtomicBool,
}

pub struct Tally {
    served: AtomicU64,
}

impl Flags {
    fn publish(&self) {
        self.ready.store(true, Ordering::Relaxed); // VIOLATION: published flag (needs Release)
        self.done.store(true, Ordering::Release); // fine: Release publication
    }

    fn spin(&self) -> bool {
        self.ready.load(Ordering::Relaxed) // VIOLATION: flag read (needs Acquire)
    }

    fn sneak(&self) {
        let renamed = &self.ready;
        renamed.store(true, Ordering::Relaxed); // VIOLATION: the rename still resolves to Flags::ready
    }

    fn waived(&self) {
        // lint: allow(ordering-audit): fixture waiver — proves suppression for a justified Relaxed flag
        self.done.store(false, Ordering::Relaxed);
    }
}

impl Tally {
    fn bump(&self) {
        self.served.fetch_add(1, Ordering::Relaxed); // fine: allowlisted counter declaration (Tally::served)
        self.served.fetch_add(compute(1, 2), Ordering::Relaxed); // fine: nested call args
    }
}
