//! Per-ISA checks of the GEMM kernels [`crate::beaver::ring_matmul_with`]
//! selects: the hand-written u32/u64 `axpy` tiers of
//! [`aq2pnn_ring::simd`] and the scalar u16 accumulator.

#[cfg(test)]
mod tests {
    use crate::beaver::{ring_matmul_reference, ring_matmul_with};
    use aq2pnn_ring::{simd, IsaLevel, Ring, RingTensor};

    #[test]
    fn every_available_isa_builds_a_working_table() {
        for isa in IsaLevel::available() {
            let mut row = [1u32, 2, 3];
            simd::axpy_u32_for(isa)(&mut row, 2, &[10, 20, 30]);
            assert_eq!(row, [21, 42, 63], "isa={isa}");
            let mut row64 = [u64::MAX, 0];
            simd::axpy_u64_for(isa)(&mut row64, 1, &[1, 5]);
            assert_eq!(row64, [0, 5], "isa={isa}");
            // Every accumulator width (u16 up to 16 bits, u32 up to 32,
            // u64 above) through the matmul entry point.
            for bits in [8u32, 16, 20, 32, 40, 64] {
                let ring = Ring::new(bits);
                let a = RingTensor::from_signed(ring, vec![2, 2], &[1, 2, 3, -4]).unwrap();
                let b = RingTensor::from_signed(ring, vec![2, 2], &[5, 6, 7, 8]).unwrap();
                let want = RingTensor::from_signed(ring, vec![2, 2], &[19, 22, -13, -14]).unwrap();
                let got = ring_matmul_with(isa, &a, &b).unwrap();
                assert_eq!(got, want, "bits={bits} isa={isa}");
                assert_eq!(got, ring_matmul_reference(&a, &b).unwrap(), "bits={bits} isa={isa}");
            }
        }
    }
}
