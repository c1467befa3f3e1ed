//! Bit-packing of ring elements into the wire format.
//!
//! `n` elements of an `ℓ`-bit ring occupy `⌈n·ℓ/8⌉` bytes on the wire —
//! the fine-grained bit-width reconfigurability that the paper gets from the
//! FPGA fabric and that CPU/GPU frameworks (fixed 32/64-bit lanes) cannot
//! exploit. Elements are laid down LSB-first in a little-endian bit stream.
//!
//! The hot widths (sub-byte comparison codes and the paper rings ℓ = 12/20)
//! route through width-specialized group kernels: const-generic SWAR over
//! one `u128`, safe scalar Rust picked by width alone. They replaced hand
//! AVX2 sub-byte kernels that did not pay for their `unsafe`
//! (EXPERIMENTS.md, "Kernel tiers pruned"). The wire format is
//! kernel-independent: every specialized path is property-tested
//! byte-identical to the generic bit loop.

/// Number of bytes `count` elements of `bits`-bit width occupy on the wire.
///
/// # Panics
///
/// Panics if `bits` is not in `1..=64`.
#[must_use]
pub fn packed_len(bits: u32, count: usize) -> usize {
    assert!((1..=64).contains(&bits), "element width must be 1..=64 bits");
    (count * bits as usize).div_ceil(8)
}

/// Packs `elems`, each truncated to its low `bits` bits, into a dense
/// little-endian bit stream.
///
/// Widths that are a whole number of bytes (8/16/24/…/64 bits) take a fast
/// path: each element is a straight copy of its low `bits/8` little-endian
/// bytes, with no bit shifting. Widths with a specialized kernel fill
/// whole-byte chunks of 8 (at 20 bits, 4) elements, so chunk boundaries
/// are byte-aligned; the rest use the generic bit loop.
///
/// # Panics
///
/// Panics if `bits` is not in `1..=64`.
///
/// # Example
///
/// ```
/// use aq2pnn_transport::{pack_bits, unpack_bits};
///
/// let elems = [0x3ffu64, 0x001, 0x2aa];
/// let bytes = pack_bits(&elems, 10);
/// assert_eq!(bytes.len(), 4); // ceil(30 / 8)
/// assert_eq!(unpack_bits(&bytes, 10, 3), elems);
/// ```
#[must_use]
#[allow(clippy::cast_possible_truncation)] // low-byte truncation is the packing operation itself
pub fn pack_bits(elems: &[u64], bits: u32) -> Vec<u8> {
    assert!((1..=64).contains(&bits), "element width must be 1..=64 bits");
    let mut out = vec![0u8; packed_len(bits, elems.len())];
    if bits.is_multiple_of(8) {
        // Byte-aligned fast path: the LSB-first bit stream of a whole-byte
        // width is exactly the element's low bytes in little-endian order.
        // Common widths get const-size copies (a variable-length
        // `copy_from_slice` per element would cost a `memcpy` call each).
        let width = bits as usize / 8;
        match width {
            1 => {
                for (o, &e) in out.iter_mut().zip(elems) {
                    *o = e as u8;
                }
            }
            2 => {
                for (chunk, &e) in out.chunks_exact_mut(2).zip(elems) {
                    chunk.copy_from_slice(&(e as u16).to_le_bytes());
                }
            }
            4 => {
                for (chunk, &e) in out.chunks_exact_mut(4).zip(elems) {
                    chunk.copy_from_slice(&(e as u32).to_le_bytes());
                }
            }
            8 => {
                for (chunk, &e) in out.chunks_exact_mut(8).zip(elems) {
                    chunk.copy_from_slice(&e.to_le_bytes());
                }
            }
            _ => {
                for (chunk, &e) in out.chunks_exact_mut(width).zip(elems) {
                    for (i, o) in chunk.iter_mut().enumerate() {
                        *o = (e >> (8 * i)) as u8;
                    }
                }
            }
        }
        return out;
    }
    match pack_group_fn(bits) {
        Some(pack) => pack(elems, &mut out),
        None => pack_into(elems, bits, &mut out),
    }
    out
}

/// A group packer: `elems` into a zeroed `out` of [`packed_len`] bytes.
type GroupPack = fn(&[u64], &mut [u8]);
/// A group unpacker: `out.len()` elements from `bytes`.
type GroupUnpack = fn(&[u8], &mut [u64]);

/// The width-specialized group packer for `bits`, if that width has one:
/// the 1/2/4-bit codes and bitmaps and the paper's 12- and 20-bit rings.
/// Every other width takes the generic bit loop.
pub(crate) fn pack_group_fn(bits: u32) -> Option<GroupPack> {
    Some(match bits {
        1 => pack_grouped::<1>,
        2 => pack_grouped::<2>,
        4 => pack_grouped::<4>,
        12 => pack_grouped::<12>,
        20 => pack_grouped::<20>,
        _ => return None,
    })
}

/// The inverse of [`pack_group_fn`]: the group unpacker for `bits`, at
/// exactly the same widths.
pub(crate) fn unpack_group_fn(bits: u32) -> Option<GroupUnpack> {
    Some(match bits {
        1 => unpack_grouped::<1>,
        2 => unpack_grouped::<2>,
        4 => unpack_grouped::<4>,
        12 => unpack_grouped::<12>,
        20 => unpack_grouped::<20>,
        _ => return None,
    })
}

/// Packs `elems` at one of the widths the adaptive ℓ-profiles put on the
/// wire (1/2/4-bit codes and bitmaps, the paper's 12- and 20-bit rings)
/// chunk by chunk through one `u128` accumulator, monomorphized so the
/// shifts, the mask and the copy lengths are compile-time constants; the
/// remainder takes the bit loop. A chunk is a whole 8-element group
/// (`BITS` bytes) up to 16 bits and 4 elements (`BITS/2` bytes) for even
/// `BITS ≤ 32`: whole bytes either way, so no bit straddles a chunk.
fn pack_grouped<const BITS: u32>(elems: &[u64], out: &mut [u8]) {
    let per = if BITS <= 16 { 8 } else { 4 };
    let chunk_bytes = per * BITS as usize / 8;
    let mask = (1u128 << BITS) - 1;
    let full = elems.len() / per * per;
    for (buf, src) in out.chunks_exact_mut(chunk_bytes).zip(elems[..full].chunks_exact(per)) {
        let mut acc = 0u128;
        for (j, &e) in src.iter().enumerate() {
            acc |= (u128::from(e) & mask) << (BITS as usize * j);
        }
        buf.copy_from_slice(&acc.to_le_bytes()[..chunk_bytes]);
    }
    pack_into(&elems[full..], BITS, &mut out[full / per * chunk_bytes..]);
}

/// Inverse of [`pack_grouped`]: one `u128` load per chunk, constant
/// shift-and-mask extracts.
fn unpack_grouped<const BITS: u32>(bytes: &[u8], out: &mut [u64]) {
    let per = if BITS <= 16 { 8 } else { 4 };
    let chunk_bytes = per * BITS as usize / 8;
    let mask = (1u128 << BITS) - 1;
    let full = out.len() / per * per;
    let (head, tail) = out.split_at_mut(full);
    for (dst, src) in head.chunks_exact_mut(per).zip(bytes.chunks_exact(chunk_bytes)) {
        let mut buf = [0u8; 16];
        buf[..chunk_bytes].copy_from_slice(src);
        let acc = u128::from_le_bytes(buf);
        #[allow(clippy::cast_possible_truncation)] // masked to BITS ≤ 32 bits
        for (j, slot) in dst.iter_mut().enumerate() {
            *slot = ((acc >> (BITS as usize * j)) & mask) as u64;
        }
    }
    unpack_into(&bytes[full / per * chunk_bytes..], BITS, tail);
}

/// Packs a run of elements LSB-first starting at bit 0 of `out`.
#[inline(always)]
fn pack_into(elems: &[u64], bits: u32, out: &mut [u8]) {
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let mut bitpos = 0usize;
    for &e in elems {
        let mut remaining = bits as usize;
        let mut val = e & mask;
        let mut pos = bitpos;
        while remaining > 0 {
            let byte = pos / 8;
            let off = pos % 8;
            let take = (8 - off).min(remaining);
            out[byte] |= ((val & ((1u64 << take) - 1)) as u8) << off;
            val >>= take;
            remaining -= take;
            pos += take;
        }
        bitpos += bits as usize;
    }
}

/// Unpacks `count` elements of `bits`-bit width from a dense bit stream
/// produced by [`pack_bits`].
///
/// Mirrors the [`pack_bits`] structure: whole-byte widths are straight
/// little-endian byte reads, specialized widths decode byte-aligned
/// chunks, the rest use the generic bit loop.
///
/// # Panics
///
/// Panics if `bits` is not in `1..=64` or if `bytes` is too short to hold
/// `count` elements.
#[must_use]
pub fn unpack_bits(bytes: &[u8], bits: u32, count: usize) -> Vec<u64> {
    assert!((1..=64).contains(&bits), "element width must be 1..=64 bits");
    assert!(
        bytes.len() >= packed_len(bits, count),
        "buffer of {} bytes too short for {count} x {bits}-bit elements",
        bytes.len()
    );
    if bits.is_multiple_of(8) {
        let width = bits as usize / 8;
        let data = &bytes[..count * width];
        return match width {
            1 => data.iter().map(|&b| u64::from(b)).collect(),
            2 => {
                data.chunks_exact(2).map(|c| u64::from(u16::from_le_bytes([c[0], c[1]]))).collect()
            }
            4 => data
                .chunks_exact(4)
                .map(|c| u64::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                .collect(),
            8 => data
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect(),
            _ => data
                .chunks_exact(width)
                .map(|c| c.iter().rev().fold(0u64, |acc, &b| (acc << 8) | u64::from(b)))
                .collect(),
        };
    }
    let mut out = vec![0u64; count];
    match unpack_group_fn(bits) {
        Some(unpack) => unpack(bytes, &mut out),
        None => unpack_into(bytes, bits, &mut out),
    }
    out
}

/// Unpacks `out.len()` elements LSB-first starting at bit 0 of `bytes`.
#[inline(always)]
fn unpack_into(bytes: &[u8], bits: u32, out: &mut [u64]) {
    let mut bitpos = 0usize;
    for slot in out {
        let mut val = 0u64;
        let mut got = 0usize;
        let mut pos = bitpos;
        while got < bits as usize {
            let byte = pos / 8;
            let off = pos % 8;
            let take = (8 - off).min(bits as usize - got);
            let chunk = u64::from(bytes[byte] >> off) & ((1u64 << take) - 1);
            val |= chunk << got;
            got += take;
            pos += take;
        }
        *slot = val;
        bitpos += bits as usize;
    }
}

/// Extracts the single element at position `index` from a bit stream
/// produced by [`pack_bits`], without unpacking the rest.
///
/// This is the OT receiver's obliviousness dividend: of the `Σ n_k`
/// encrypted slots on the wire it decrypts exactly one per item, so
/// unpacking all of them is wasted work proportional to the *sender's*
/// batch size.
///
/// # Panics
///
/// Panics if `bits` is not in `1..=64` or the stream is too short to
/// contain element `index`.
#[must_use]
pub fn unpack_bits_at(bytes: &[u8], bits: u32, index: usize) -> u64 {
    assert!((1..=64).contains(&bits), "element width must be 1..=64 bits");
    assert!(
        bytes.len() >= packed_len(bits, index + 1),
        "buffer of {} bytes too short for the requested element at {bits} bits",
        bytes.len()
    );
    let mut val = 0u64;
    let mut got = 0usize;
    let mut pos = index * bits as usize;
    // secrecy: allow(secret-branch, "chosen-slot extraction is receiver-local by design: the OT receiver owns the secret index and reads only its own slot from the packed wire bytes")
    // secrecy: allow(secret-compare, "bit-offset arithmetic on the receiver-owned index, same locality argument")
    // secrecy: allow(secret-index, "the byte offset follows the receiver-owned index; no cross-party observable depends on it")
    while got < bits as usize {
        let byte = pos / 8;
        let off = pos % 8;
        let take = (8 - off).min(bits as usize - got);
        let chunk = u64::from(bytes[byte] >> off) & ((1u64 << take) - 1);
        val |= chunk << got;
        got += take;
        pos += take;
    }
    val
}

/// Reference scalar packer: the generic per-element bit loop with no fast
/// paths or parallelism. Ground truth for property tests and benches.
///
/// # Panics
///
/// Panics if `bits` is not in `1..=64`.
#[must_use]
pub fn pack_bits_reference(elems: &[u64], bits: u32) -> Vec<u8> {
    assert!((1..=64).contains(&bits), "element width must be 1..=64 bits");
    let mut out = vec![0u8; packed_len(bits, elems.len())];
    pack_into(elems, bits, &mut out);
    out
}

/// Reference scalar unpacker matching [`pack_bits_reference`].
///
/// # Panics
///
/// Panics if `bits` is not in `1..=64` or if `bytes` is too short to hold
/// `count` elements.
#[must_use]
pub fn unpack_bits_reference(bytes: &[u8], bits: u32, count: usize) -> Vec<u64> {
    assert!((1..=64).contains(&bits), "element width must be 1..=64 bits");
    assert!(
        bytes.len() >= packed_len(bits, count),
        "buffer of {} bytes too short for {count} x {bits}-bit elements",
        bytes.len()
    );
    let mut out = vec![0u64; count];
    unpack_into(bytes, bits, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_len_rounding() {
        assert_eq!(packed_len(1, 8), 1);
        assert_eq!(packed_len(1, 9), 2);
        assert_eq!(packed_len(12, 2), 3);
        assert_eq!(packed_len(16, 1000), 2000);
        assert_eq!(packed_len(14, 1000), 1750);
        assert_eq!(packed_len(64, 3), 24);
        assert_eq!(packed_len(8, 0), 0);
    }

    #[test]
    fn roundtrip_byte_aligned() {
        let elems = [0u64, 1, 127, 128, 255];
        assert_eq!(unpack_bits(&pack_bits(&elems, 8), 8, 5), elems);
    }

    #[test]
    fn roundtrip_odd_widths() {
        for bits in [1u32, 3, 7, 12, 13, 14, 16, 24, 33, 63, 64] {
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let elems: Vec<u64> =
                (0..17).map(|i| (0x9e3779b97f4a7c15u64.wrapping_mul(i + 1)) & mask).collect();
            let packed = pack_bits(&elems, bits);
            assert_eq!(packed.len(), packed_len(bits, elems.len()));
            assert_eq!(unpack_bits(&packed, bits, elems.len()), elems, "bits={bits}");
        }
    }

    #[test]
    fn every_isa_matches_reference_bytes_on_every_width() {
        // The wire format does not depend on the host ISA: each width has
        // one packer, and its bytes and decoded elements must equal the
        // generic bit-loop reference. Widths cover the grouped set
        // (1/2/4/12/20), the boundaries around it (11/13/21), and
        // unspecialized odd widths. Inputs carry high bits above the
        // width, which every path must truncate the same way.
        for bits in [1u32, 2, 3, 4, 5, 11, 12, 13, 16, 20, 21, 31, 32, 33, 63, 64] {
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            for count in [0usize, 1, 3, 4, 7, 8, 9, 16, 61] {
                let elems: Vec<u64> = (0..count as u64)
                    .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 11))
                    .collect();
                let packed = pack_bits(&elems, bits);
                assert_eq!(
                    packed,
                    pack_bits_reference(&elems, bits),
                    "pack bits={bits} count={count}"
                );
                let masked: Vec<u64> = elems.iter().map(|&e| e & mask).collect();
                assert_eq!(unpack_bits(&packed, bits, count), masked, "unpack bits={bits}");
            }
        }
    }

    #[test]
    fn fast_paths_match_reference() {
        // 61 elements: 7 full 8-element groups plus a 5-element remainder,
        // so both the grouped and tail code paths are exercised.
        for bits in [1u32, 2, 5, 8, 11, 14, 16, 23, 24, 31, 32, 40, 48, 56, 63, 64] {
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let elems: Vec<u64> =
                (0..61).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 7) & mask).collect();
            let fast = pack_bits(&elems, bits);
            assert_eq!(fast, pack_bits_reference(&elems, bits), "pack bits={bits}");
            assert_eq!(
                unpack_bits(&fast, bits, elems.len()),
                unpack_bits_reference(&fast, bits, elems.len()),
                "unpack bits={bits}"
            );
        }
    }

    #[test]
    fn unpack_at_matches_full_unpack() {
        for bits in [1u32, 2, 3, 4, 7, 12, 13, 16, 33, 63, 64] {
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let elems: Vec<u64> =
                (0..23).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 3) & mask).collect();
            let packed = pack_bits(&elems, bits);
            for (i, &e) in elems.iter().enumerate() {
                assert_eq!(unpack_bits_at(&packed, bits, i), e, "bits={bits} index={i}");
            }
        }
    }

    #[test]
    fn truncates_high_bits() {
        let bytes = pack_bits(&[0xffff], 4);
        assert_eq!(unpack_bits(&bytes, 4, 1), vec![0xf]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_short_buffer_panics() {
        let _ = unpack_bits(&[0u8], 16, 1);
    }

    #[test]
    fn fourteen_bit_saves_exactly_an_eighth_vs_sixteen() {
        // The Table 7/8 mechanism: 14-bit wire format is 14/16 of 16-bit.
        let n = 4096;
        let l16 = packed_len(16, n);
        let l14 = packed_len(14, n);
        assert_eq!(l14 * 16, l16 * 14);
    }
}
