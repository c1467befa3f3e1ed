//! Identity tests of the width-specialized group kernels behind
//! [`crate::pack_bits`] / [`crate::unpack_bits`]: SWAR (SIMD within one
//! `u128` register) in safe Rust, checked against the generic bit loop.

#[cfg(test)]
mod tests {
    use crate::packing::{pack_group_fn, unpack_group_fn};
    use crate::{pack_bits_reference, packed_len};

    fn rng_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s = s.wrapping_mul(0xd129_42e4_9c58_05c5).wrapping_add(0xb5);
            s
        }
    }

    /// Every group kernel writes the bytes of the bit-loop reference and
    /// unpacks them back to the masked inputs, at whole-group lengths and
    /// with a bit-loop tail.
    #[test]
    fn pack_group_fns_match_scalar_and_roundtrip() {
        let mut next = rng_stream(0x1234_5678_9abc_def1);
        for bits in [1u32, 2, 4, 12, 20] {
            let mask = (1u64 << bits) - 1;
            let pack = pack_group_fn(bits).expect("specialized width");
            let unpack = unpack_group_fn(bits).expect("specialized width");
            for trial in 0..64usize {
                let count = [8, 16, 5, 13][trial % 4];
                // Unmasked inputs check the kernels truncate like the
                // generic packer does.
                let elems: Vec<u64> = (0..count)
                    .map(|_| if trial % 2 == 0 { next() & mask } else { next() })
                    .collect();
                let mut got = vec![0u8; packed_len(bits, count)];
                pack(&elems, &mut got);
                assert_eq!(got, pack_bits_reference(&elems, bits), "pack bits={bits} n={count}");
                let mut back = vec![0u64; count];
                unpack(&got, &mut back);
                let masked: Vec<u64> = elems.iter().map(|&e| e & mask).collect();
                assert_eq!(back, masked, "roundtrip bits={bits} n={count}");
            }
        }
    }

    #[test]
    fn unspecialized_widths_have_no_group_fn() {
        for bits in [3u32, 5, 8, 11, 13, 16, 21, 31, 32, 33, 64] {
            assert!(pack_group_fn(bits).is_none(), "bits={bits}");
            assert!(unpack_group_fn(bits).is_none(), "bits={bits}");
        }
        for bits in [1u32, 2, 4, 12, 20] {
            assert!(pack_group_fn(bits).is_some(), "bits={bits}");
            assert!(unpack_group_fn(bits).is_some(), "bits={bits}");
        }
    }
}
