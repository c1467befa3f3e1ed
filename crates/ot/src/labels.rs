//! The `e2l(·)` label list.
//!
//! During initialization the two parties "share the modulus (Q), group
//! number (g), and a non-repeating randomly generated element *label* list
//! of length L, on which the inquiry is an injective non-surjective
//! function `e2l(·): x ↦ label(x)`" (paper Sec. 4.3.1). Labels are distinct
//! random exponents; message/choice indices are mapped through the table
//! before being used in the Diffie–Hellman masking, so indices never appear
//! directly in exponents.

use crate::OtGroup;
use rand::Rng;
use std::fmt;

/// A shared, per-session injective map from slot indices to random group
/// exponents.
#[derive(Clone, PartialEq, Eq)]
pub struct LabelTable {
    labels: Vec<u64>,
}

/// `Debug` redacts the exponent list. The table is shared setup between
/// the two parties, but it must stay unknown to *third* parties (a
/// transcript observer who learns `e2l` can test candidate choices), so it
/// is treated like every other secret-carrying type: length only.
impl fmt::Debug for LabelTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelTable")
            .field("len", &self.labels.len())
            .field("labels", &"<redacted>")
            .finish()
    }
}

impl LabelTable {
    /// Formats the table *including its exponents* — test-only opt-in
    /// counterpart of the redacted `Debug` impl.
    #[must_use]
    pub fn fmt_revealed(&self) -> String {
        // secrecy: allow(secret-sink, "explicit opt-in reveal for tests; the redacted Debug impl is the default")
        format!("LabelTable({:?})", self.labels)
    }
    /// Generates `len` distinct random exponents valid for `group`.
    ///
    /// Both parties must call this with identically-seeded RNGs (the table
    /// is public shared setup).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds the group order (distinctness
    /// would be impossible).
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(len: usize, group: &OtGroup, rng: &mut R) -> Self {
        assert!(len > 0, "label table must be non-empty");
        assert!(
            (len as u64) <= group.order(),
            "cannot pick {len} distinct labels from a group of order {}",
            group.order()
        );
        let mut labels = Vec::with_capacity(len);
        let mut seen = std::collections::HashSet::with_capacity(len);
        while labels.len() < len {
            let l = group.sample_exponent(rng);
            if seen.insert(l) {
                labels.push(l);
            }
        }
        LabelTable { labels }
    }

    /// The inquiry `e2l(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the table.
    #[must_use]
    pub fn e2l(&self, x: usize) -> u64 {
        self.labels[x]
    }

    /// Number of labels `L`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the table is empty (never true for a generated table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels_distinct_and_in_range() {
        let g = OtGroup::power_of_two(8);
        let t = LabelTable::generate(16, &g, &mut StdRng::seed_from_u64(1));
        let mut seen = std::collections::HashSet::new();
        for i in 0..t.len() {
            let l = t.e2l(i);
            assert!(l < g.order());
            assert!(seen.insert(l), "duplicate label");
        }
    }

    #[test]
    fn same_seed_same_table() {
        let g = OtGroup::power_of_two(12);
        let a = LabelTable::generate(4, &g, &mut StdRng::seed_from_u64(9));
        let b = LabelTable::generate(4, &g, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "distinct labels")]
    fn too_many_labels_panics() {
        let g = OtGroup::power_of_two(3); // order 2
        let _ = LabelTable::generate(3, &g, &mut StdRng::seed_from_u64(1));
    }
}
