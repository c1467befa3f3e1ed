//! Identity tests of the A2BM per-item code-fill kernels in
//! [`crate::abrelu`]: each monomorphized group count and the runtime-`U`
//! fill against the generic per-item copy.

#[cfg(test)]
mod tests {
    use crate::abrelu::{fill_codes_item_dyn, fill_codes_item_fn};

    fn rng_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s = s.wrapping_mul(0xd129_42e4_9c58_05c5).wrapping_add(0xb5);
            s
        }
    }

    #[test]
    #[allow(clippy::cast_possible_truncation)] // group values are masked to 2 bits
    fn fill_codes_fns_match_scalar_reference() {
        let mut next = rng_stream(0xfeed_f00d_dead_beef);
        // The 4×4 row table: arbitrary distinct words so copies are visible.
        let mut rows = [0u64; 16];
        for (i, r) in rows.iter_mut().enumerate() {
            *r = 0x1000 + i as u64;
        }
        for u_cnt in [2usize, 3, 7, 9, 11, 17, 33] {
            let f = fill_codes_item_fn(u_cnt);
            let items = 5;
            let stride = 4 * (u_cnt - 1);
            let mut got = vec![0u64; items * stride];
            let mut want = vec![0u64; items * stride];
            let u_flat: Vec<u8> = (0..items * u_cnt)
                .map(|i| {
                    // Groups 0/1 are 1-bit, the rest 2-bit wide.
                    let w = if i % u_cnt < 2 { 1 } else { 2 };
                    (next() & ((1 << w) - 1)) as u8
                })
                .collect();
            for item in 0..items {
                let u = &u_flat[item * u_cnt..(item + 1) * u_cnt];
                f(u, &rows, &mut got[item * stride..(item + 1) * stride]);
                fill_codes_item_dyn(u, &rows, &mut want[item * stride..(item + 1) * stride]);
            }
            assert_eq!(got, want, "fill_codes u_cnt={u_cnt}");
        }
        // The standard pattern needs both quadrant groups: one group has
        // no fill.
        let single = std::panic::catch_unwind(|| fill_codes_item_fn(1)(&[0], &rows, &mut []));
        assert!(single.is_err());
    }
}
