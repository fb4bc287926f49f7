//! Planted violations for `lock-order`, linted as if this file were
//! `crates/core/src/proto/fixture.rs` (any `core` file but `hot.rs`).
//! Never compiled — read as text by `tests/fixtures.rs`. The negative
//! cases double as lexer checks.

impl Cluster {
    fn visit_reaches_back(&self, via: NodeId, k: ReplicaKey) {
        self.server(via).visit(k.0, |s| {
            s.leases.remove(&k);
            self.server(via).tokens.contains(&k) // VIOLATION: `self` under a slot lock
        });
    }

    fn negative_cases(&self, via: NodeId, k: ReplicaKey) -> bool {
        let s = "strings may say .visit(|s| self) freely";
        let raw = r#"raw string with "quotes" and .visit(|s| self) inside"#;
        let deep = r##"raw string with "# inside, still one token"##;
        /* block comments too: /* nested .visit(|s| self) */ all comment */
        // line comment: self.server(via).visit(k.0, |s| self.n)
        let net = &self.net;
        let _ = (s, raw, deep);
        self.server(via).visit(k.0, |s| net.reachable(via, s.home))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let c = cell();
        c.server(via).visit(k.0, |s| c.n + self.n);
    }
}
