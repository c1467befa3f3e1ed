//! Party identities in the 2PC setup.

use std::fmt;

/// One of the two parties (paper Definition 3: `i, j ∈ {0, 1}`, `i ≠ j`).
///
/// By convention in this reproduction, [`PartyId::User`] (index 0) supplies
/// the input feature map and [`PartyId::ModelProvider`] (index 1) supplies
/// the weights — but every protocol works symmetrically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartyId {
    /// Party 0 — the customer holding the private input.
    User,
    /// Party 1 — the vendor holding the private model.
    ModelProvider,
}

impl PartyId {
    /// Numeric index `i ∈ {0, 1}` used in protocol formulas (e.g. the
    /// `−i·E⊗F` term of paper Eq. 1).
    #[must_use]
    pub fn index(self) -> u64 {
        match self {
            PartyId::User => 0,
            PartyId::ModelProvider => 1,
        }
    }

    /// The opposite party.
    #[must_use]
    pub fn other(self) -> PartyId {
        match self {
            PartyId::User => PartyId::ModelProvider,
            PartyId::ModelProvider => PartyId::User,
        }
    }

    /// Party from a numeric index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 1`.
    #[must_use]
    pub fn from_index(index: u64) -> PartyId {
        match index {
            0 => PartyId::User,
            1 => PartyId::ModelProvider,
            _ => panic!("party index must be 0 or 1, got {index}"),
        }
    }

    /// Both parties, in index order.
    #[must_use]
    pub fn both() -> [PartyId; 2] {
        [PartyId::User, PartyId::ModelProvider]
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartyId::User => write!(f, "party 0 (user)"),
            PartyId::ModelProvider => write!(f, "party 1 (model provider)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_and_other() {
        assert_eq!(PartyId::User.index(), 0);
        assert_eq!(PartyId::ModelProvider.index(), 1);
        assert_eq!(PartyId::User.other(), PartyId::ModelProvider);
        assert_eq!(PartyId::ModelProvider.other(), PartyId::User);
        for p in PartyId::both() {
            assert_eq!(PartyId::from_index(p.index()), p);
        }
    }

    #[test]
    #[should_panic(expected = "party index")]
    fn bad_index_panics() {
        let _ = PartyId::from_index(2);
    }
}
