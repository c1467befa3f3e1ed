//! Shaped containers of ring elements.

use crate::{Ring, ShapeError};
use rand::Rng;

/// A shaped tensor of elements of one [`Ring`].
///
/// `RingTensor` is the unit of data held in the accelerator's buffers
/// (AS-INP, AS-WGT, AS-OUP, …) and moved between parties. It is
/// deliberately simple: row-major storage, explicit shape, elementwise
/// helpers. The heavy lifting (GEMM, convolution lowering) lives in the
/// protocol crate.
///
/// # Example
///
/// ```
/// use aq2pnn_ring::{Ring, RingTensor};
///
/// let q = Ring::new(8);
/// let t = RingTensor::from_signed(q, vec![2, 2], &[1, -2, 3, -4])?;
/// let doubled = t.map(|x| q.mul(x, 2));
/// assert_eq!(doubled.to_signed(), vec![2, -4, 6, -8]);
/// # Ok::<(), aq2pnn_ring::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingTensor {
    ring: Ring,
    shape: Vec<usize>,
    data: Vec<u64>,
}

impl RingTensor {
    /// Creates a tensor from raw ring elements.
    ///
    /// Values are reduced into the ring, so any `u64` data is accepted.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::LengthMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_raw(ring: Ring, shape: Vec<usize>, data: Vec<u64>) -> Result<Self, ShapeError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(ShapeError::LengthMismatch { expected, actual: data.len() });
        }
        let data = data.into_iter().map(|x| ring.reduce(x)).collect();
        Ok(RingTensor { ring, shape, data })
    }

    /// Creates a tensor by two's-complement-encoding signed values.
    ///
    /// Values outside the signed range wrap (hardware overflow semantics).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::LengthMismatch`] if `values.len()` differs from
    /// the product of `shape`.
    pub fn from_signed(ring: Ring, shape: Vec<usize>, values: &[i64]) -> Result<Self, ShapeError> {
        let data = values.iter().map(|&v| ring.encode_signed_wrapping(v)).collect();
        Self::from_raw(ring, shape, data)
    }

    /// Creates an all-zero tensor.
    #[must_use]
    pub fn zeros(ring: Ring, shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        RingTensor { ring, shape, data: vec![0; len] }
    }

    /// Creates a tensor of uniformly random ring elements — the mask /
    /// share-randomness generator.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(ring: Ring, shape: Vec<usize>, rng: &mut R) -> Self {
        let len: usize = shape.iter().product();
        let mut data = vec![0; len];
        rng.fill_u64(&mut data);
        let mask = ring.mask();
        for v in &mut data {
            *v &= mask;
        }
        RingTensor { ring, shape, data }
    }

    /// The ring the elements live in.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// The tensor shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw element slice (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.data
    }

    /// Mutable raw element slice (row-major). Callers must keep elements
    /// reduced; use [`Ring::reduce`] after arbitrary writes.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its raw storage.
    #[must_use]
    pub fn into_raw(self) -> Vec<u64> {
        self.data
    }

    /// Element at flat index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        self.data[i]
    }

    /// Sets element at flat index `i` (reduced into the ring).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, v: u64) {
        self.data[i] = self.ring.reduce(v);
    }

    /// Decodes every element to its signed interpretation.
    #[must_use]
    pub fn to_signed(&self) -> Vec<i64> {
        self.data.iter().map(|&x| self.ring.decode_signed(x)).collect()
    }

    /// Applies `f` elementwise, producing a tensor on the same ring.
    #[must_use]
    pub fn map<F: FnMut(u64) -> u64>(&self, mut f: F) -> Self {
        let data = self.data.iter().map(|&x| self.ring.reduce(f(x))).collect();
        RingTensor { ring: self.ring, shape: self.shape.clone(), data }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if shapes differ.
    pub fn zip_with<F: FnMut(u64, u64) -> u64>(
        &self,
        other: &Self,
        mut f: F,
    ) -> Result<Self, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let data =
            self.data.iter().zip(&other.data).map(|(&a, &b)| self.ring.reduce(f(a, b))).collect();
        Ok(RingTensor { ring: self.ring, shape: self.shape.clone(), data })
    }

    /// Elementwise ring addition (the AS-ALU C-C addition applied to whole
    /// buffers).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, ShapeError> {
        let ring = self.ring;
        self.zip_with(other, |a, b| ring.add(a, b))
    }

    /// Elementwise ring subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, ShapeError> {
        let ring = self.ring;
        self.zip_with(other, |a, b| ring.sub(a, b))
    }

    /// Moves the tensor to another ring by reinterpreting each element with
    /// local sign extension / truncation of the two's-complement value.
    ///
    /// Extension uses the paper's sign-extension (see [`crate::extend`] for
    /// its probabilistic behaviour on *shares*; on plaintext it is exact as
    /// long as values fit). Narrowing simply wraps.
    #[must_use]
    pub fn recast(&self, target: Ring) -> Self {
        let data =
            self.data.iter().map(|&x| crate::extend::sign_extend(self.ring, target, x)).collect();
        RingTensor { ring: target, shape: self.shape.clone(), data }
    }

    /// Reshapes in place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::LengthMismatch`] if the new shape's element
    /// count differs.
    pub fn reshape(&mut self, shape: Vec<usize>) -> Result<(), ShapeError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(ShapeError::LengthMismatch { expected, actual: self.data.len() });
        }
        self.shape = shape;
        Ok(())
    }

    /// Iterates over raw elements.
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring8() -> Ring {
        Ring::new(8)
    }

    #[test]
    fn from_raw_validates_len() {
        let err = RingTensor::from_raw(ring8(), vec![2, 3], vec![0; 5]).unwrap_err();
        assert_eq!(err, ShapeError::LengthMismatch { expected: 6, actual: 5 });
    }

    #[test]
    fn from_raw_reduces() {
        let t = RingTensor::from_raw(ring8(), vec![2], vec![0x1ff, 0x100]).unwrap();
        assert_eq!(t.as_slice(), &[0xff, 0x00]);
    }

    #[test]
    fn signed_roundtrip() {
        let t = RingTensor::from_signed(ring8(), vec![4], &[-128, -1, 0, 127]).unwrap();
        assert_eq!(t.to_signed(), vec![-128, -1, 0, 127]);
    }

    #[test]
    fn add_sub_inverse() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = RingTensor::random(ring8(), vec![3, 3], &mut rng);
        let b = RingTensor::random(ring8(), vec![3, 3], &mut rng);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.sub(&b).unwrap(), a);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = RingTensor::zeros(ring8(), vec![2, 2]);
        let b = RingTensor::zeros(ring8(), vec![4]);
        assert!(matches!(a.add(&b), Err(ShapeError::ShapeMismatch { .. })));
    }

    #[test]
    fn recast_widens_signed_values() {
        let q12 = Ring::new(12);
        let q16 = Ring::new(16);
        let t = RingTensor::from_signed(q12, vec![3], &[-147, 0, 2000]).unwrap();
        let wide = t.recast(q16);
        assert_eq!(wide.ring(), q16);
        assert_eq!(wide.to_signed(), vec![-147, 0, 2000]);
    }

    #[test]
    fn recast_narrow_wraps() {
        let q16 = Ring::new(16);
        let q8 = Ring::new(8);
        let t = RingTensor::from_signed(q16, vec![1], &[300]).unwrap();
        // 300 mod 256 = 44
        assert_eq!(t.recast(q8).to_signed(), vec![44]);
    }

    #[test]
    fn reshape_checks_len() {
        let mut t = RingTensor::zeros(ring8(), vec![2, 3]);
        assert!(t.reshape(vec![3, 2]).is_ok());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn paper_fig8_ring_extension_example() {
        // Fig. 8: 12-bit 1111_0110_1101 becomes 16-bit 1111_1111_0110_1101.
        let q12 = Ring::new(12);
        let q16 = Ring::new(16);
        let t = RingTensor::from_raw(q12, vec![1], vec![0b1111_0110_1101]).unwrap();
        assert_eq!(t.recast(q16).get(0), 0b1111_1111_0110_1101);
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv(words: &[u64]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Two tensors drawn back to back (the second starts mid-buffer), then
    /// one more raw word: pins what `random` draws from a generator and
    /// where it leaves the stream.
    fn random_fingerprint<R: rand::RngCore>(bits: u32, mut rng: R) -> u64 {
        let q = Ring::new(bits);
        let first = RingTensor::random(q, vec![3, 37], &mut rng);
        let second = RingTensor::random(q, vec![7], &mut rng);
        assert!(first.as_slice().iter().chain(second.as_slice()).all(|&v| q.contains(v)));
        let mut words = first.into_raw();
        words.extend(second.into_raw());
        words.push(u64::from(rng.next_u32()));
        fnv(&words)
    }

    #[test]
    fn random_streams_are_pinned() {
        use rand_chacha::ChaCha20Rng;
        // Captured before `random` drew through `fill_u64`.
        for (bits, std_fp, chacha_fp) in [
            (16, 0x93a8_307c_58b3_2e48, 0xd557_9e07_dfd3_bc02),
            (32, 0xf627_c54a_f2cc_cf11, 0x46c7_0b6f_b13c_e7ca),
            (64, 0xfd20_9377_b996_14dc, 0xa297_c86f_108e_bb95),
        ] {
            let got_std = random_fingerprint(bits, StdRng::seed_from_u64(5));
            let got_chacha = random_fingerprint(bits, ChaCha20Rng::seed_from_u64(5));
            assert_eq!(got_std, std_fp, "StdRng stream moved at l = {bits}");
            assert_eq!(got_chacha, chacha_fp, "ChaCha20Rng stream moved at l = {bits}");
        }
    }
}
