//! Bit grouping for arithmetic-to-binary share conversion (A2BM).
//!
//! Paper Sec. 4.3.2: an ℓ-bit value is split with `||` into groups — for
//! INT8, `x ← x7 || x6 || x5x4 || x3x2 || x1x0`. The two most significant
//! groups carry one bit each (they feed ABReLU's quadrant detection and use
//! `(1,2)`-OT); the remaining bits form 2-bit groups (`(1,4)`-OT). A group
//! of `w` bits is compared through a `(1, 2^w)`-OT in the OT-flow.
//!
//! For even ℓ this yields the paper's `U = ⌊ℓ/2⌋ + 1` groups; for odd ℓ the
//! least-significant group degrades to 1 bit.

use aq2pnn_ring::Ring;

/// One bit group of a decomposed value, MSB-first ordering.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitGroup {
    /// Width of the group in bits (1 or 2).
    pub width: u32,
    /// The group's value (`< 2^width`).
    pub value: u8,
}

impl std::fmt::Debug for BitGroup {
    /// Redacts the group value: groups are slices of a secret share.
    /// Use [`BitGroup::fmt_revealed`] to opt into printing it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitGroup {{ width: {}, value: <redacted> }}", self.width)
    }
}

impl BitGroup {
    /// Debug rendering *including* the secret group value — explicit
    /// opt-in for tests and offline debugging.
    #[must_use]
    pub fn fmt_revealed(&self) -> String {
        // secrecy: allow(secret-sink, "explicit opt-in reveal; the redacted Debug impl is the default")
        format!("BitGroup {{ width: {}, value: {} }}", self.width, self.value)
    }
}

/// Widths of the groups an `bits`-bit value splits into, MSB-first:
/// `[1, 1, 2, 2, …]` with a trailing 1-bit group when `bits` is odd.
///
/// # Panics
///
/// Panics if `bits < 2` (ABReLU needs at least the two quadrant bits).
#[must_use]
pub fn group_widths(bits: u32) -> Vec<u32> {
    assert!(bits >= 2, "bit grouping requires at least 2 bits, got {bits}");
    let mut widths = vec![1, 1];
    let mut remaining = bits - 2;
    while remaining >= 2 {
        widths.push(2);
        remaining -= 2;
    }
    if remaining == 1 {
        widths.push(1);
    }
    widths
}

/// Number of groups (`U` in the paper): `⌊ℓ/2⌋ + 1` for even ℓ.
#[must_use]
pub fn group_count(bits: u32) -> usize {
    group_widths(bits).len()
}

/// Splits `x` (an element of `ring`) into MSB-first bit groups.
///
/// # Panics
///
/// Panics if the ring has fewer than 2 bits.
#[must_use]
pub fn split_groups(ring: Ring, x: u64) -> Vec<BitGroup> {
    let widths = group_widths(ring.bits());
    let mut groups = Vec::with_capacity(widths.len());
    let mut consumed = 0u32;
    for w in widths {
        consumed += w;
        let shift = ring.bits() - consumed;
        let value = ((x >> shift) & ((1u64 << w) - 1)) as u8;
        groups.push(BitGroup { width: w, value });
    }
    groups
}

/// Splits every element of `xs` into its MSB-first group *values*, written
/// as one flat row-major `xs.len() × widths.len()` buffer into `out`
/// (reusing its allocation) — the allocation-lean A2BM entry point of the
/// batched nonlinear engine. `widths` must be `group_widths(ring.bits())`
/// (passed in so callers amortize it across rounds).
///
/// Equivalent to `split_groups(ring, xs[v])[g].value` at `out[v * U + g]`,
/// without the two per-element `Vec`s.
///
/// # Panics
///
/// Panics if `widths` does not sum to the ring's bit-length.
pub fn split_groups_into(ring: Ring, xs: &[u64], widths: &[u32], out: &mut Vec<u8>) {
    let total: u32 = widths.iter().sum();
    assert_eq!(total, ring.bits(), "group widths must sum to the ring width");
    let u = widths.len();
    // Per-group shift/mask, precomputed once per batch.
    let mut shifts = [0u32; 64];
    let mut masks = [0u8; 64];
    let mut consumed = 0u32;
    for (g, &w) in widths.iter().enumerate() {
        consumed += w;
        shifts[g] = ring.bits() - consumed;
        masks[g] = ((1u16 << w) - 1) as u8;
    }
    out.clear();
    out.resize(xs.len() * u, 0);
    for (row, &x) in out.chunks_exact_mut(u).zip(xs) {
        for (g, slot) in row.iter_mut().enumerate() {
            *slot = ((x >> shifts[g]) as u8) & masks[g];
        }
    }
}

/// Reassembles groups produced by [`split_groups`] back into a ring element.
///
/// # Panics
///
/// Panics if the group widths do not sum to the ring's bit-length.
#[must_use]
pub fn join_groups(ring: Ring, groups: &[BitGroup]) -> u64 {
    let total: u32 = groups.iter().map(|g| g.width).sum();
    assert_eq!(total, ring.bits(), "group widths must sum to the ring width");
    let mut x = 0u64;
    for g in groups {
        x = (x << g.width) | u64::from(g.value);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_paper_int8() {
        // INT8: x7 || x6 || x5x4 || x3x2 || x1x0 → U = 5.
        assert_eq!(group_widths(8), vec![1, 1, 2, 2, 2]);
        assert_eq!(group_count(8), 5);
    }

    #[test]
    fn widths_even_matches_formula() {
        for bits in (2..=64).step_by(2) {
            assert_eq!(group_count(bits as u32), bits / 2 + 1, "bits={bits}");
        }
    }

    #[test]
    fn widths_odd_has_trailing_single_bit() {
        assert_eq!(group_widths(13), vec![1, 1, 2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn paper_example_minus_74() {
        // Fig. 6: INT8(-74) = 1011_0110 → 1 || 0 || 11 || 01 || 10.
        let q = Ring::new(8);
        let x = q.encode_signed(-74);
        let g = split_groups(q, x);
        let values: Vec<u8> = g.iter().map(|g| g.value).collect();
        assert_eq!(values, vec![1, 0, 0b11, 0b01, 0b10]);
        assert_eq!(join_groups(q, &g), x);
    }

    #[test]
    fn paper_example_abrelu_shares() {
        // Sec. 4.4: (-x_i, x_j) = (-125, 7) splits as
        // 1||0||00||00||11 and 0||0||00||01||11.
        let q = Ring::new(8);
        let gi = split_groups(q, q.encode_signed(-125));
        let gj = split_groups(q, q.encode_signed(7));
        let vi: Vec<u8> = gi.iter().map(|g| g.value).collect();
        let vj: Vec<u8> = gj.iter().map(|g| g.value).collect();
        assert_eq!(vi, vec![1, 0, 0b00, 0b00, 0b11]);
        assert_eq!(vj, vec![0, 0, 0b00, 0b01, 0b11]);
    }

    #[test]
    fn split_join_roundtrip_all_widths() {
        for bits in 2..=16u32 {
            let q = Ring::new(bits);
            for x in [0u64, 1, (1 << bits) - 1, 1 << (bits - 1), 0x5a5a & q.mask()] {
                assert_eq!(join_groups(q, &split_groups(q, x)), x, "bits={bits} x={x}");
            }
        }
    }

    #[test]
    fn flat_split_matches_per_element_split() {
        for bits in [2u32, 6, 8, 13, 16] {
            let q = Ring::new(bits);
            let xs: Vec<u64> = (0..997u64).map(|i| (i * 2654435761) & q.mask()).collect();
            let widths = group_widths(bits);
            let mut flat = Vec::new();
            split_groups_into(q, &xs, &widths, &mut flat);
            assert_eq!(flat.len(), xs.len() * widths.len());
            for (v, &x) in xs.iter().enumerate() {
                let expect: Vec<u8> = split_groups(q, x).iter().map(|g| g.value).collect();
                assert_eq!(
                    &flat[v * widths.len()..(v + 1) * widths.len()],
                    &expect[..],
                    "bits={bits} v={v}"
                );
            }
        }
    }

    #[test]
    fn flat_split_reuses_buffer() {
        let q = Ring::new(8);
        let widths = group_widths(8);
        let mut buf = vec![7u8; 1000];
        split_groups_into(q, &[0x5a, 0xff], &widths, &mut buf);
        assert_eq!(buf.len(), 2 * widths.len());
        assert_eq!(
            join_groups(
                q,
                &buf[..widths.len()]
                    .iter()
                    .zip(&widths)
                    .map(|(&value, &width)| BitGroup { width, value })
                    .collect::<Vec<_>>()
            ),
            0x5a
        );
    }

    #[test]
    fn lexicographic_group_order_matches_numeric_unsigned() {
        // Comparing group vectors MSB-first lexicographically must agree
        // with unsigned comparison — the invariant SCM relies on.
        let q = Ring::new(8);
        for a in (0..256u64).step_by(7) {
            for b in (0..256u64).step_by(11) {
                let ga: Vec<u8> = split_groups(q, a).iter().map(|g| g.value).collect();
                let gb: Vec<u8> = split_groups(q, b).iter().map(|g| g.value).collect();
                assert_eq!(ga.cmp(&gb), a.cmp(&b), "a={a} b={b}");
            }
        }
    }
}
