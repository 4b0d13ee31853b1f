//! [`Slot`]: a query element that is either filled or a placeholder.
//!
//! Partial queries (paper Definition 3.1) replace query elements — clauses,
//! expressions, column references, aggregate functions, constants — with
//! placeholders. `Slot<T>` is the generic building block for that.

/// A query element that may still be a placeholder (`Hole`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Slot<T> {
    /// The element has not been decided yet (rendered as `?`).
    #[default]
    Hole,
    /// The element has been filled with a concrete value.
    Filled(T),
}

impl<T> Slot<T> {
    /// Whether the slot is filled.
    pub fn is_filled(&self) -> bool {
        matches!(self, Slot::Filled(_))
    }

    /// Whether the slot is still a hole.
    pub fn is_hole(&self) -> bool {
        matches!(self, Slot::Hole)
    }

    /// Reference to the filled value, if any.
    pub fn as_ref(&self) -> Option<&T> {
        match self {
            Slot::Filled(v) => Some(v),
            Slot::Hole => None,
        }
    }

    /// Consume the slot, returning the filled value, if any.
    pub fn into_option(self) -> Option<T> {
        match self {
            Slot::Filled(v) => Some(v),
            Slot::Hole => None,
        }
    }

    /// Map the filled value.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Slot<U> {
        match self {
            Slot::Filled(v) => Slot::Filled(f(v)),
            Slot::Hole => Slot::Hole,
        }
    }
}

impl<T> From<T> for Slot<T> {
    fn from(v: T) -> Self {
        Slot::Filled(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_hole() {
        let s: Slot<u32> = Slot::default();
        assert!(s.is_hole());
        assert!(!s.is_filled());
        assert_eq!(s.as_ref(), None);
    }

    #[test]
    fn filled_accessors() {
        let s = Slot::Filled(7);
        assert!(s.is_filled());
        assert_eq!(s.as_ref(), Some(&7));
        assert_eq!(s.into_option(), Some(7));
    }

    #[test]
    fn map_and_from() {
        let s: Slot<u32> = 3.into();
        assert_eq!(s.map(|v| v * 2), Slot::Filled(6));
        let h: Slot<u32> = Slot::Hole;
        assert_eq!(h.map(|v| v * 2), Slot::Hole);
    }
}
