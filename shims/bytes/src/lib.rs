//! Offline stand-in for the `bytes` crate: an immutable, cheaply-clonable
//! byte buffer covering the subset the transport layer uses (`from`,
//! `from_static`, `slice`, `Deref<Target = [u8]>`).

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable byte buffer; clones and slices share the underlying
/// storage, and a `Vec<u8>` becomes one without a copy.
#[derive(Clone)]
pub struct Bytes {
    store: Store,
    /// The window `store[start..end]` this handle shows.
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum Store {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// Wraps a static byte slice without copying.
    #[must_use]
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { store: Store::Static(bytes), start: 0, end: bytes.len() }
    }

    /// Number of bytes in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes in `range` (relative to this buffer) as a new handle on
    /// the same storage; nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or ends past [`Self::len`].
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let begin = match range.start_bound() {
            Bound::Included(&b) => b,
            Bound::Excluded(&b) => b.checked_add(1).expect("range start overflows"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e.checked_add(1).expect("range end overflows"),
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(begin <= end, "slice range starts at {begin} but ends at {end}");
        assert!(end <= self.len(), "slice range ends at {end} past length {}", self.len());
        Bytes { store: self.store.clone(), start: self.start + begin, end: self.start + end }
    }

    fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.store {
            Store::Static(s) => s,
            Store::Shared(v) => v,
        };
        &all[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { store: Store::Shared(Arc::new(v)), start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_clone_share() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.as_ptr(), c.as_ptr());
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v: Vec<u8> = (0..=255).collect();
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 256);
    }

    #[test]
    fn slices_share_storage_and_respect_bounds() {
        let b = Bytes::from((0..10).collect::<Vec<u8>>());
        let mid = b.slice(2..7);
        assert_eq!(&mid[..], &[2, 3, 4, 5, 6]);
        assert_eq!(mid.as_ptr(), b[2..].as_ptr());
        let inner = mid.slice(1..=2);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(inner.as_ptr(), b[3..].as_ptr());
        assert_eq!(b.slice(..), b);
        assert_eq!(b.slice(10..), Bytes::from_static(b""));
        assert!(b.slice(4..4).is_empty());
        assert_eq!(&Bytes::from_static(b"hello").slice(1..3)[..], b"el");
    }

    #[test]
    #[should_panic(expected = "past length")]
    fn slice_past_the_end_panics() {
        let _ = Bytes::from(vec![1u8, 2, 3]).slice(1..4);
    }

    #[test]
    #[should_panic(expected = "past length")]
    fn slice_of_a_slice_is_bounded_by_the_slice() {
        let _ = Bytes::from(vec![0u8; 8]).slice(2..4).slice(..3);
    }

    #[test]
    #[should_panic(expected = "starts at")]
    fn decreasing_slice_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = Bytes::from(vec![0u8; 8]).slice(5..3);
    }

    #[test]
    fn static_variant() {
        let b = Bytes::from_static(b"hey");
        assert_eq!(&b[..], b"hey");
    }
}
