//! Beaver multiplication triples — the pre-computed AS-CST buffer contents.
//!
//! Ciphertext-ciphertext multiplication (paper Sec. 4.1.2) consumes a triple
//! `⟦Z⟧ = ⟦A⟧ · ⟦B⟧`: the parties open masked values `E = IN − A` and
//! `F = W − B` and evaluate paper Eq. 1 locally. Triples are classically
//! generated offline with HE or OT; this crate's [`crate::dealer`] plays the
//! trusted-dealer role (explicitly an idealized offline phase — the online
//! protocol is unchanged).

use aq2pnn_ring::simd::{self, scalar};
use aq2pnn_ring::{IsaLevel, Ring, RingTensor, ShapeError};
use std::borrow::Cow;
use std::fmt;

/// One party's share of a Beaver triple `(⟦A⟧, ⟦B⟧, ⟦Z⟧)` with
/// `Z = A ⊗ B` (matrix product) or `Z = A ⊙ B` (elementwise), depending on
/// which dealer method produced it.
#[derive(Clone, PartialEq, Eq)]
pub struct TripleShare {
    /// Share of the input mask `A` (same shape as the left operand).
    pub a: RingTensor,
    /// Share of the weight mask `B` (same shape as the right operand).
    pub b: RingTensor,
    /// Share of the product `Z` (shape of the output).
    pub z: RingTensor,
}

/// `Debug` redacts the triple words: leaking a party's `A`/`B` share lets
/// the peer unmask the opened `E = IN − A` / `F = W − B` values and recover
/// the plaintext operands. Shapes and the ring are public geometry.
impl fmt::Debug for TripleShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TripleShare")
            .field("ring_bits", &self.a.ring().bits())
            .field("a_shape", &self.a.shape())
            .field("b_shape", &self.b.shape())
            .field("z_shape", &self.z.shape())
            .field("values", &"<redacted>")
            .finish()
    }
}

impl TripleShare {
    /// The ring all three components live in.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.a.ring()
    }

    /// Formats the triple *including its secret mask words* — test-only
    /// opt-in counterpart of the redacted `Debug` impl.
    #[must_use]
    pub fn fmt_revealed(&self) -> String {
        // secrecy: allow(secret-sink, "explicit opt-in reveal for tests; the redacted Debug impl is the default")
        format!("TripleShare {{ a: {:?}, b: {:?}, z: {:?} }}", self.a, self.b, self.z)
    }
}

/// Plaintext matrix multiplication over a ring: `C[m,n] = A[m,k] ⊗ B[k,n]`,
/// on the kernels of [`IsaLevel::active`].
///
/// The dealer's `Z` product and the plaintext references use it; the
/// online GEMM evaluating paper Eq. 1 holds its session-constant right
/// operands as [`MatRhs`] instead, which runs the same kernel without
/// demoting `b` per call. See [`MatRhs`] for the kernel structure.
///
/// # Errors
///
/// Returns [`ShapeError::ShapeMismatch`] if the operands are not rank-2
/// with an agreeing inner dimension, or live on different rings.
pub fn ring_matmul(a: &RingTensor, b: &RingTensor) -> Result<RingTensor, ShapeError> {
    ring_matmul_with(IsaLevel::active(), a, b)
}

/// [`ring_matmul`] on an explicit ISA level — the entry point per-ISA
/// property tests use: `MatRhs::new(b)` followed by
/// [`MatRhs::matmul_with`].
///
/// # Errors
///
/// Returns [`ShapeError::ShapeMismatch`] if the operands are not rank-2
/// with an agreeing inner dimension, or live on different rings.
pub fn ring_matmul_with(
    isa: IsaLevel,
    a: &RingTensor,
    b: &RingTensor,
) -> Result<RingTensor, ShapeError> {
    MatRhs::new(b)
        .and_then(|rhs| rhs.matmul_with(isa, a))
        .map_err(|_| ShapeError::ShapeMismatch { lhs: a.shape().to_vec(), rhs: b.shape().to_vec() })
}

/// The right operand `B[k,n]` of a ring GEMM, demoted once to the
/// accumulator width its ring needs: `u16` for ℓ ≤ 16, `u32` for ℓ ≤ 32
/// (every paper configuration), else `u64`, borrowed from the tensor
/// without a copy.
///
/// The GEMM's right operand is session-constant where it is hottest —
/// the opened weight mask `F`, a weight share `W_i`, a lane's `B` — so a
/// prepared model builds each one once and multiplies many left
/// operands against it. [`ring_matmul`] is this type used once.
///
/// The kernel is cache-blocked with **deferred masking**: because the
/// ring modulus `2^ℓ` divides the accumulator modulus, the inner loops
/// accumulate with plain `wrapping_mul`/`wrapping_add` and the ring mask
/// is applied exactly once per output element at write-out —
/// bit-identical to reducing after every MAC (DESIGN.md §7.1). The
/// narrow accumulators double/quadruple SIMD lane counts. Output rows are
/// processed in register-blocked quads (one pass over each pair of `B`
/// rows updates four `C` rows through the `axpy2` kernels) on the
/// caller's thread. The u16 accumulator always runs the autovectorized
/// scalar kernels; `isa` picks the hand-written u32/u64 kernels from
/// [`aq2pnn_ring::simd`], which only moves *when* the answer is ready,
/// never *what* it is. [`ring_matmul_reference`] keeps the scalar triple
/// loop for cross-checking.
#[derive(Clone)]
pub struct MatRhs<'a> {
    ring: Ring,
    k: usize,
    n: usize,
    words: RhsWords<'a>,
}

#[derive(Clone)]
enum RhsWords<'a> {
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Cow<'a, [u64]>),
}

/// `Debug` redacts the operand words: a `MatRhs` holds a weight share or
/// a triple's `B`. The ring and shape are public geometry.
impl fmt::Debug for MatRhs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatRhs")
            .field("ring_bits", &self.ring.bits())
            .field("shape", &[self.k, self.n])
            .field("values", &"<redacted>")
            .finish()
    }
}

impl<'a> MatRhs<'a> {
    /// Demotes the rank-2 tensor `b` to its accumulator width. On a ring
    /// wider than 32 bits the words are borrowed, not copied.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if `b` is not rank-2.
    #[allow(clippy::cast_possible_truncation)] // ring values fit the accumulator by the width guard
    pub fn new(b: &'a RingTensor) -> Result<Self, ShapeError> {
        let &[k, n] = b.shape() else {
            return Err(ShapeError::ShapeMismatch { lhs: b.shape().to_vec(), rhs: vec![0, 0] });
        };
        let ring = b.ring();
        let db = b.as_slice();
        let words = if ring.bits() <= 16 {
            RhsWords::U16(db.iter().map(|&v| v as u16).collect())
        } else if ring.bits() <= 32 {
            RhsWords::U32(db.iter().map(|&v| v as u32).collect())
        } else {
            RhsWords::U64(Cow::Borrowed(db))
        };
        Ok(MatRhs { ring, k, n, words })
    }

    /// Detaches the operand from the tensor it was built from (copies the
    /// words once on a ring wider than 32 bits).
    #[must_use]
    pub fn into_owned(self) -> MatRhs<'static> {
        let words = match self.words {
            RhsWords::U16(w) => RhsWords::U16(w),
            RhsWords::U32(w) => RhsWords::U32(w),
            RhsWords::U64(w) => RhsWords::U64(Cow::Owned(w.into_owned())),
        };
        MatRhs { ring: self.ring, k: self.k, n: self.n, words }
    }

    /// The ring the operand lives in.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// `[k, n]`.
    #[must_use]
    pub fn shape(&self) -> [usize; 2] {
        [self.k, self.n]
    }

    /// `self − b` on the ring, widened back to ring elements: a weight
    /// share minus a lane's `B` share is the `F` share a party opens.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if `b` is not `[k, n]` on
    /// this operand's ring.
    pub fn sub(&self, b: &RingTensor) -> Result<RingTensor, ShapeError> {
        let ring = self.ring;
        if b.ring() != ring || b.shape() != [self.k, self.n] {
            return Err(ShapeError::ShapeMismatch {
                lhs: vec![self.k, self.n],
                rhs: b.shape().to_vec(),
            });
        }
        let db = b.as_slice();
        let out = match &self.words {
            RhsWords::U16(w) => w.iter().zip(db).map(|(&x, &y)| ring.sub(x.into(), y)).collect(),
            RhsWords::U32(w) => w.iter().zip(db).map(|(&x, &y)| ring.sub(x.into(), y)).collect(),
            RhsWords::U64(w) => w.iter().zip(db).map(|(&x, &y)| ring.sub(x, y)).collect(),
        };
        RingTensor::from_raw(ring, vec![self.k, self.n], out)
    }

    /// `a ⊗ self` on the kernels of [`IsaLevel::active`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if `a` is not `[m, k]` on
    /// this operand's ring.
    pub fn matmul(&self, a: &RingTensor) -> Result<RingTensor, ShapeError> {
        self.matmul_with(IsaLevel::active(), a)
    }

    /// [`MatRhs::matmul`] on an explicit ISA level. The left operand is
    /// demoted per call (it is the per-inference side); the right one
    /// never is.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if `a` is not `[m, k]` on
    /// this operand's ring.
    #[allow(clippy::cast_possible_truncation)] // ring values fit the accumulator by the width guard
    pub fn matmul_with(&self, isa: IsaLevel, a: &RingTensor) -> Result<RingTensor, ShapeError> {
        let ring = self.ring;
        if a.ring() != ring || a.shape().len() != 2 || a.shape()[1] != self.k {
            return Err(ShapeError::ShapeMismatch {
                lhs: a.shape().to_vec(),
                rhs: vec![self.k, self.n],
            });
        }
        let (m, k, n) = (a.shape()[0], self.k, self.n);
        let da = a.as_slice();
        let out = match &self.words {
            RhsWords::U16(db) => {
                let an: Vec<u16> = da.iter().map(|&v| v as u16).collect();
                let kernels = (scalar::axpy_u16 as AxpyFn<u16>, scalar::axpy2_u16 as Axpy2Fn<u16>);
                matmul_u16(kernels, ring, m, k, n, &an, db)
            }
            RhsWords::U32(db) => {
                let an: Vec<u32> = da.iter().map(|&v| v as u32).collect();
                let kernels = (simd::axpy_u32_for(isa), simd::axpy2_u32_for(isa));
                matmul_u32(kernels, ring, m, k, n, &an, db)
            }
            RhsWords::U64(db) => {
                let kernels = (simd::axpy_u64_for(isa), simd::axpy2_u64_for(isa));
                matmul_u64(kernels, ring, m, k, n, da, db)
            }
        };
        RingTensor::from_raw(ring, vec![m, n], out)
    }
}

type AxpyFn<T> = fn(&mut [T], T, &[T]);
type Axpy2Fn<T> = fn(&mut [T], T, &[T], T, &[T]);

/// Generates the matmul for one accumulator width: the `O(mkn)`
/// accumulation runs wrapping mod the accumulator width through the given
/// `axpy`/`axpy2` kernels over operands already at that width, and the
/// ring mask is applied at write-out — bit-identical to the reference
/// because `2^ℓ` divides the accumulator modulus.
macro_rules! width_matmul {
    ($name:ident, $row_fn:ident, $quad_fn:ident, $t:ty) => {
        fn $name(
            (axpy, axpy2): (AxpyFn<$t>, Axpy2Fn<$t>),
            ring: Ring,
            m: usize,
            k: usize,
            n: usize,
            an: &[$t],
            bn: &[$t],
        ) -> Vec<u64> {
            // The mask fits the accumulator by the width guard.
            #[allow(clippy::cast_possible_truncation)]
            let mask = ring.mask() as $t;
            let mut out = vec![0 as $t; m * n];
            let mut rows: Vec<&mut [$t]> = out.chunks_mut(n.max(1)).collect();
            for (q, quad) in rows.chunks_mut(4).enumerate() {
                let i0 = q * 4;
                if let [r0, r1, r2, r3] = quad {
                    $quad_fn(
                        axpy,
                        axpy2,
                        [r0, r1, r2, r3],
                        [
                            &an[i0 * k..][..k],
                            &an[(i0 + 1) * k..][..k],
                            &an[(i0 + 2) * k..][..k],
                            &an[(i0 + 3) * k..][..k],
                        ],
                        bn,
                        n,
                    );
                } else {
                    for (t, row) in quad.iter_mut().enumerate() {
                        $row_fn(axpy, row, &an[(i0 + t) * k..][..k], bn, n);
                    }
                }
            }
            // Deferred masking: one reduction per element, at write-out.
            out.into_iter().map(|v| u64::from(v & mask)).collect()
        }

        /// Accumulates `A[i,:] ⊗ B` into one unreduced output row.
        fn $row_fn(axpy: AxpyFn<$t>, row: &mut [$t], a_row: &[$t], db: &[$t], n: usize) {
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0 {
                    continue;
                }
                axpy(row, av, &db[p * n..p * n + n]);
            }
        }

        /// Quad kernel: one streaming pass over each pair of `B` rows feeds
        /// four unreduced output rows through the 2-step-unrolled `axpy2`,
        /// halving the dominant row load/store traffic versus one `k` step
        /// at a time and reusing each loaded `B` lane four times.
        fn $quad_fn(
            axpy: AxpyFn<$t>,
            axpy2: Axpy2Fn<$t>,
            rows: [&mut &mut [$t]; 4],
            a_rows: [&[$t]; 4],
            db: &[$t],
            n: usize,
        ) {
            let [r0, r1, r2, r3] = rows;
            let (r0, r1, r2, r3) = (&mut r0[..n], &mut r1[..n], &mut r2[..n], &mut r3[..n]);
            let [a0, a1, a2, a3] = a_rows;
            let k = a0.len();
            let mut p = 0;
            while p + 2 <= k {
                let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
                let (w0, w1, w2, w3) = (a0[p + 1], a1[p + 1], a2[p + 1], a3[p + 1]);
                if v0 | v1 | v2 | v3 | w0 | w1 | w2 | w3 == 0 {
                    p += 2;
                    continue;
                }
                let bp = &db[p * n..p * n + n];
                let bq = &db[(p + 1) * n..(p + 1) * n + n];
                axpy2(r0, v0, bp, w0, bq);
                axpy2(r1, v1, bp, w1, bq);
                axpy2(r2, v2, bp, w2, bq);
                axpy2(r3, v3, bp, w3, bq);
                p += 2;
            }
            while p < k {
                let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
                if v0 | v1 | v2 | v3 != 0 {
                    let bp = &db[p * n..p * n + n];
                    axpy(r0, v0, bp);
                    axpy(r1, v1, bp);
                    axpy(r2, v2, bp);
                    axpy(r3, v3, bp);
                }
                p += 1;
            }
        }
    };
}

width_matmul!(matmul_u16, accumulate_row_u16, accumulate_quad_u16, u16);
width_matmul!(matmul_u32, accumulate_row_u32, accumulate_quad_u32, u32);
width_matmul!(matmul_u64, accumulate_row_u64, accumulate_quad_u64, u64);

/// Scalar reference matrix multiplication: the original triple loop with a
/// full ring reduction after every multiply-accumulate.
///
/// Kept as the ground truth the blocked [`ring_matmul`] is property-tested
/// and benchmarked against; not used on the protocol hot path.
///
/// # Errors
///
/// Returns [`ShapeError::ShapeMismatch`] if the operands are not rank-2
/// with an agreeing inner dimension, or live on different rings.
pub fn ring_matmul_reference(a: &RingTensor, b: &RingTensor) -> Result<RingTensor, ShapeError> {
    let (ra, rb) = (a.ring(), b.ring());
    if ra != rb || a.shape().len() != 2 || b.shape().len() != 2 || a.shape()[1] != b.shape()[0] {
        return Err(ShapeError::ShapeMismatch { lhs: a.shape().to_vec(), rhs: b.shape().to_vec() });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0u64; m * n];
    let (da, db) = (a.as_slice(), b.as_slice());
    for i in 0..m {
        for p in 0..k {
            let av = da[i * k + p];
            for j in 0..n {
                out[i * n + j] = ra.add(out[i * n + j], ra.mul(av, db[p * n + j]));
            }
        }
    }
    RingTensor::from_raw(ra, vec![m, n], out)
}

/// Plaintext elementwise (Hadamard) product over a ring.
///
/// # Errors
///
/// Returns [`ShapeError::ShapeMismatch`] if shapes differ.
pub fn ring_hadamard(a: &RingTensor, b: &RingTensor) -> Result<RingTensor, ShapeError> {
    let ring = a.ring();
    a.zip_with(b, |x, y| ring.mul(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `MatRhs::sub` equals `RingTensor::sub` on every accumulator width
    /// and rejects a `B` of another shape or ring.
    #[test]
    fn sub_matches_ring_tensor_sub() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for bits in [8, 16, 17, 32, 33, 64] {
            let q = Ring::new(bits);
            let w = RingTensor::random(q, vec![5, 3], &mut rng);
            let b = RingTensor::random(q, vec![5, 3], &mut rng);
            let rhs = MatRhs::new(&w).unwrap();
            assert_eq!(rhs.sub(&b).unwrap(), w.sub(&b).unwrap(), "bits={bits}");
            assert!(rhs.sub(&RingTensor::zeros(q, vec![3, 5])).is_err());
            assert!(rhs.sub(&RingTensor::zeros(Ring::new(bits % 64 + 1), vec![5, 3])).is_err());
        }
    }

    #[test]
    fn matmul_identity() {
        let q = Ring::new(16);
        let a = RingTensor::from_signed(q, vec![2, 2], &[1, 2, 3, 4]).unwrap();
        let id = RingTensor::from_signed(q, vec![2, 2], &[1, 0, 0, 1]).unwrap();
        assert_eq!(ring_matmul(&a, &id).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let q = Ring::new(16);
        let a = RingTensor::from_signed(q, vec![2, 3], &[1, -2, 3, 0, 5, -1]).unwrap();
        let b = RingTensor::from_signed(q, vec![3, 2], &[2, 1, 0, -1, 4, 4]).unwrap();
        let c = ring_matmul(&a, &b).unwrap();
        assert_eq!(c.to_signed(), vec![14, 15, -4, -9]);
    }

    #[test]
    fn matmul_wraps_on_ring() {
        let q = Ring::new(8);
        let a = RingTensor::from_signed(q, vec![1, 1], &[100]).unwrap();
        let b = RingTensor::from_signed(q, vec![1, 1], &[3]).unwrap();
        // 300 mod 256 = 44
        assert_eq!(ring_matmul(&a, &b).unwrap().to_signed(), vec![44]);
    }

    #[test]
    fn matmul_shape_checks() {
        let q = Ring::new(8);
        let a = RingTensor::zeros(q, vec![2, 3]);
        let b = RingTensor::zeros(q, vec![2, 3]);
        assert!(matches!(ring_matmul(&a, &b), Err(ShapeError::ShapeMismatch { .. })));
    }

    #[test]
    fn blocked_matches_reference_awkward_shapes() {
        // Exercises the quad kernel, the 1..3-row remainder path, and odd
        // inner/outer dimensions against the scalar reference.
        for &(m, k, n, bits) in
            &[(1, 1, 1, 8), (5, 3, 7, 16), (4, 9, 4, 31), (7, 2, 1, 64), (9, 17, 5, 24)]
        {
            let q = Ring::new(bits);
            let mut s = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = || {
                s = s.wrapping_mul(0xd129_42e4_9c58_05c5).wrapping_add(0xb5);
                s
            };
            let a = RingTensor::from_raw(
                q,
                vec![m, k],
                (0..m * k).map(|_| next() & q.mask()).collect(),
            )
            .unwrap();
            let b = RingTensor::from_raw(
                q,
                vec![k, n],
                (0..k * n).map(|_| next() & q.mask()).collect(),
            )
            .unwrap();
            assert_eq!(
                ring_matmul(&a, &b).unwrap(),
                ring_matmul_reference(&a, &b).unwrap(),
                "shape {m}x{k}x{n} @ {bits} bits"
            );
        }
    }

    #[test]
    fn reference_and_blocked_agree_on_shape_errors() {
        let q = Ring::new(8);
        let a = RingTensor::zeros(q, vec![2, 3]);
        let b = RingTensor::zeros(q, vec![2, 3]);
        assert!(matches!(ring_matmul_reference(&a, &b), Err(ShapeError::ShapeMismatch { .. })));
    }

    #[test]
    fn hadamard_known() {
        let q = Ring::new(16);
        let a = RingTensor::from_signed(q, vec![3], &[2, -3, 4]).unwrap();
        let b = RingTensor::from_signed(q, vec![3], &[5, 6, -7]).unwrap();
        assert_eq!(ring_hadamard(&a, &b).unwrap().to_signed(), vec![10, -18, -28]);
    }
}
