//! Minimal f32 tensor in CHW layout (single image; batching is a loop).

/// A dense f32 tensor with an explicit shape, row-major.
///
/// The float training stack works on single examples in CHW layout; the
/// quantized and 2PC engines consume flattened views.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from shape and data.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree.
    #[must_use]
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape {shape:?} implies {n} elements, got {}", data.len());
        Tensor { shape, data }
    }

    /// All-zero tensor.
    #[must_use]
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// The shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only data slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable data slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor into its raw storage.
    #[must_use]
    pub fn into_raw(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes (same element count).
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    #[must_use]
    pub fn reshaped(mut self, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape to {shape:?} changes element count");
        self.shape = shape;
        self
    }

    /// Largest-value index (argmax) — classification decision.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    #[must_use]
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }
}

/// Argmax over a plain slice (shared by the integer engines).
///
/// # Panics
///
/// Panics if the slice is empty.
#[must_use]
pub fn argmax_i64(xs: &[i64]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_reshape() {
        let t = Tensor::new(vec![2, 3], vec![0.0; 6]);
        assert_eq!(t.shape(), &[2, 3]);
        let t = t.reshaped(vec![3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "implies")]
    fn bad_length_panics() {
        let _ = Tensor::new(vec![2, 2], vec![0.0; 3]);
    }

    #[test]
    fn argmax_picks_first_max() {
        let t = Tensor::new(vec![4], vec![1.0, 5.0, 5.0, 2.0]);
        assert_eq!(t.argmax(), 1);
        assert_eq!(argmax_i64(&[3, -1, 9, 9]), 2);
    }
}
