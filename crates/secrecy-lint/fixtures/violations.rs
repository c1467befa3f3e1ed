//! Seeded violations for `cargo xtask lint --self-test`.
//!
//! This file is NOT compiled into any crate — it exists so CI can verify
//! the lint still detects every rule class. Each function below contains
//! exactly the kind of secret-dependent behavior the pass must flag.

/// secret-branch: control flow keyed on a share value.
fn seeded_branch(x: &AShare) -> u64 {
    let v = x.as_tensor().get(0);
    if v > 7 { // expect: secret-branch
        1
    } else {
        0
    }
}

/// secret-index: table lookup keyed on a share value.
fn seeded_index(x: AShare, table: &[u64]) -> u64 {
    let i = x.into_tensor().get(0) as usize;
    table[i] // expect: secret-index
}

/// secret-alloc: buffer sized from a share value.
fn seeded_alloc(x: AShare) -> Vec<u64> {
    let n = x.into_tensor().get(0) as usize;
    let mut buf = Vec::with_capacity(n); // expect: secret-alloc
    buf.push(0);
    buf
}

/// secret-sink: share value reaches a format sink (both arg and inline
/// capture forms).
fn seeded_sink(x: AShare) {
    let w = x.into_tensor().get(0);
    println!("observed {w}"); // expect: secret-sink
}

/// secret-compare: raw equality on shares instead of `ct::eq`.
fn seeded_compare(x: AShare, y: u64) -> bool {
    let b = x.into_tensor().get(0) == y; // expect: secret-compare
    b
}

/// unused-allow: annotation that suppresses nothing must itself fire.
// secrecy: allow(secret-branch, "seeded unused annotation for the self-test") // expect: unused-allow
fn seeded_unused_allow() -> u64 {
    42
}

/// secret-branch through an out-parameter: a fill-style helper writes
/// share-derived words into `&mut out`, and the caller branches on them.
fn seeded_fill(x: &AShare, out: &mut Vec<u64>) {
    out.push(x.as_tensor().get(0));
}
fn seeded_out_param_branch(x: &AShare) -> u64 {
    let mut out = Vec::new();
    seeded_fill(x, &mut out);
    if out[0] > 7 { // expect: secret-branch
        1
    } else {
        0
    }
}
