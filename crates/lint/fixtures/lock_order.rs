//! Planted violations for `lock-order`'s leaf half, linted as if this
//! file were `crates/core/src/proto/fixture.rs` (any `core` file but
//! `hot.rs`). Never compiled — read as text by `tests/fixtures.rs`. The
//! negative cases double as lexer checks.

impl Cluster {
    fn raw_leaf_lock(&self) -> usize {
        self.inner.lock().len() // VIOLATION: a leaf lock outside the hot.rs seam
    }

    fn visit_reaches_back(&self, via: NodeId, k: ReplicaKey) {
        self.server(via).visit(k.0, |s| {
            s.leases.remove(&k);
            self.server(via).tokens.contains(&k) // VIOLATION: `self` under a slot lock
        });
    }

    fn negative_cases(&self, via: NodeId, k: ReplicaKey) -> bool {
        let s = "strings may say .lock() and self freely";
        let raw = r#"raw string with "quotes" and .lock() inside"#;
        let deep = r##"raw string with "# inside, still one token"##;
        /* block comments too: .lock() /* nested .visit(|s| self) */ all comment */
        // line comment: self.inner.lock()
        let net = &self.net;
        let _ = (s, raw, deep);
        self.server(via).visit(k.0, |s| net.reachable(via, s.home))
    }

    fn waived(&self) -> usize {
        // lint: allow(lock-order): fixture waiver — proves suppression and waiver-usage accounting
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let m = std::sync::Mutex::new(0);
        *m.lock().unwrap() += 1;
    }
}
