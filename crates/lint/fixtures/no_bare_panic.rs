//! Planted violations for `no-bare-panic`, linted as if this file were
//! `crates/core/src/proto/fixture.rs` or `crates/nfs/src/fixture.rs`.
//! Never compiled — read as text by `tests/fixtures.rs`. The negative cases double as lexer checks.

fn planted_unwrap(v: Option<u32>) -> u32 {
    v.unwrap() // VIOLATION
}

fn planted_expect(v: Option<u32>) -> u32 {
    v.expect("planted") // VIOLATION
}

fn planted_panic(v: Option<u32>) -> u32 {
    match v {
        Some(x) => x,
        None => panic!("planted"), // VIOLATION
    }
}

fn planted_unreachable(v: u32) -> u32 {
    match v {
        0 => 1,
        _ => unreachable!(), // VIOLATION
    }
}

fn negative_cases(v: Option<u32>) -> u32 {
    let s = "strings may say .unwrap() and panic! freely";
    let raw = r#"raw string with "quotes" and .unwrap() inside"#;
    let deep = r##"raw string with "# inside, still one token"##;
    /* block comments too: .unwrap() /* nested .expect( */ all comment */
    // line comment: .unwrap()
    let _ = (s, raw, deep);
    v.unwrap_or(0) + v.map(|x| x).unwrap_or_else(|| 0)
}

fn waived(v: Option<u32>) -> u32 {
    // lint: allow(no-bare-panic): fixture waiver — proves suppression and waiver-usage accounting
    v.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_test_code_is_exempt() {
        let v: Option<u32> = Some(1);
        v.unwrap();
        v.expect("fine in tests");
        panic!("also fine in tests");
    }
}
