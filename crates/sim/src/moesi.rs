//! MOESI coherence states, maintained per 32-byte L2 subblock (paper §4.1:
//! "Coherence is maintained at the subblock level using a MOESI protocol").
//!
//! `Moesi` doubles as the shared state universe for every protocol (see
//! [`crate::protocol`]): MESI uses the subset without
//! `Owned`, MSI additionally drops `Exclusive`. The state-query helpers
//! here (`is_dirty`, `is_writable`, …) are protocol-independent facts
//! about a state; protocol-*dependent* transitions are methods of
//! [`ProtocolKind`](crate::protocol::ProtocolKind).

use std::fmt;

/// Per-subblock MOESI state.
///
/// * `Modified` — sole, dirty copy; must supply data and write back.
/// * `Owned` — dirty copy shared with `Shared` copies elsewhere; this node
///   supplies data and is responsible for the eventual writeback.
/// * `Exclusive` — sole, clean copy; silently upgradable to `Modified`.
/// * `Shared` — clean copy, possibly one of many.
/// * `Invalid` — not present.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Moesi {
    /// Sole dirty copy.
    Modified,
    /// Dirty copy with sharers.
    Owned,
    /// Sole clean copy.
    Exclusive,
    /// Clean copy, possibly shared.
    Shared,
    /// Not present.
    #[default]
    Invalid,
}

impl Moesi {
    /// `true` for any state other than `Invalid`.
    pub fn is_valid(self) -> bool {
        self != Moesi::Invalid
    }

    /// `true` when this copy is dirty with respect to memory (`M` or `O`)
    /// and must be written back on eviction.
    pub fn is_dirty(self) -> bool {
        matches!(self, Moesi::Modified | Moesi::Owned)
    }

    /// `true` when this node must supply data for a bus read (`M` or `O`;
    /// clean copies let memory respond).
    pub fn supplies_data(self) -> bool {
        self.is_dirty()
    }

    /// `true` when a local store may proceed without a bus transaction
    /// (`M` or `E`).
    pub fn is_writable(self) -> bool {
        matches!(self, Moesi::Modified | Moesi::Exclusive)
    }

    /// State after observing a remote bus read while holding this state.
    ///
    /// `M -> O`, `E -> S`; `O` and `S` are unchanged. Must not be called on
    /// `Invalid` (a snoop miss has no transition).
    ///
    /// # Panics
    ///
    /// Panics when called on `Invalid`.
    pub fn after_remote_read(self) -> Moesi {
        match self {
            Moesi::Modified => Moesi::Owned,
            Moesi::Exclusive => Moesi::Shared,
            Moesi::Owned => Moesi::Owned,
            Moesi::Shared => Moesi::Shared,
            Moesi::Invalid => panic!("snoop-miss has no read transition"),
        }
    }
}

impl fmt::Display for Moesi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Moesi::Modified => 'M',
            Moesi::Owned => 'O',
            Moesi::Exclusive => 'E',
            Moesi::Shared => 'S',
            Moesi::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity() {
        assert!(Moesi::Modified.is_valid());
        assert!(Moesi::Owned.is_valid());
        assert!(Moesi::Exclusive.is_valid());
        assert!(Moesi::Shared.is_valid());
        assert!(!Moesi::Invalid.is_valid());
    }

    #[test]
    fn dirtiness_and_supply() {
        assert!(Moesi::Modified.is_dirty());
        assert!(Moesi::Owned.is_dirty());
        assert!(!Moesi::Exclusive.is_dirty());
        assert!(!Moesi::Shared.is_dirty());
        assert_eq!(Moesi::Modified.supplies_data(), Moesi::Modified.is_dirty());
    }

    #[test]
    fn writability() {
        assert!(Moesi::Modified.is_writable());
        assert!(Moesi::Exclusive.is_writable());
        assert!(!Moesi::Owned.is_writable());
        assert!(!Moesi::Shared.is_writable());
        assert!(!Moesi::Invalid.is_writable());
    }

    #[test]
    fn remote_read_transitions() {
        assert_eq!(Moesi::Modified.after_remote_read(), Moesi::Owned);
        assert_eq!(Moesi::Exclusive.after_remote_read(), Moesi::Shared);
        assert_eq!(Moesi::Owned.after_remote_read(), Moesi::Owned);
        assert_eq!(Moesi::Shared.after_remote_read(), Moesi::Shared);
    }

    #[test]
    #[should_panic(expected = "no read transition")]
    fn invalid_has_no_read_transition() {
        let _ = Moesi::Invalid.after_remote_read();
    }

    #[test]
    fn default_is_invalid() {
        assert_eq!(Moesi::default(), Moesi::Invalid);
    }

    #[test]
    fn display() {
        assert_eq!(Moesi::Modified.to_string(), "M");
        assert_eq!(Moesi::Invalid.to_string(), "I");
    }
}
