//! Coherence protocols: MOESI (the paper's platform), MESI and MSI over the
//! same atomic snoopy bus.
//!
//! The paper evaluates JETTY on one fixed platform — MOESI at subblock
//! grain (§4.1) — but snoop-filter coverage is a function of the protocol:
//! without an `Owned` state, dirty sharing forces memory writebacks and
//! changes the would-miss profile every filter is scored against.
//! [`ProtocolKind`] answers every decision in which the three protocols
//! differ, so the protocol is a sweepable configuration axis instead of
//! logic inlined through the local and bus paths.
//!
//! # State universe
//!
//! All three protocols share [`Moesi`] as their state representation:
//! MESI is MOESI minus `Owned`, MSI is MOESI minus `Owned` and
//! `Exclusive`. A protocol never *produces* a state outside its subset
//! ([`ProtocolKind::allows`]), and the full-check invariant pass asserts
//! that at runtime, so the shared representation costs nothing in safety
//! while keeping the caches, writeback buffers and statistics completely
//! protocol-agnostic. Decisions that follow from the state alone are the
//! same for every protocol and live at their call sites: a write-miss
//! fill installs `M`, a copy evicted dirty (`M`/`O`) is written back, and
//! only an `O` eviction may leave sharers behind.
//!
//! # What actually differs
//!
//! | Decision | MOESI | MESI | MSI |
//! |---|---|---|---|
//! | State subset | `M O E S I` | `M E S I` | `M S I` |
//! | Read-miss fill, no sharers | `E` | `E` | `S` |
//! | Read-miss fill, sharers | `S` | `S` | `S` |
//! | Remote `BusRd` snoops `M` | `M → O`, cache supplies, memory stays stale | `M → S`, cache supplies **and memory is updated** | same as MESI |
//! | Remote `BusRd` snoops `O` | `O → O`, cache supplies | — | — |
//! | Remote `BusRd` snoops `E` | `E → S`, memory supplies | `E → S`, memory supplies | — |
//! | Remote `BusRd` snoops `S` | `S → S`, memory supplies | same | same |
//! | Writeback forwarded back, entry had sharers | `O` | — | — |
//! | Writeback forwarded back, sole copy | `M` | `M` | `M` |
//! | Dirty sharing | `O` keeps ownership on-chip | impossible — every shared copy is clean | impossible |
//! | Silent store upgrade | `E → M` | `E → M` | never (no `E`) |
//!
//! The MESI/MSI memory update on a dirty supply is the protocol-dependent
//! memory traffic the `protocols` exhibit prices: it is counted in
//! [`NodeStats::snoop_memory_writebacks`](crate::NodeStats::snoop_memory_writebacks).

use std::fmt;

use crate::moesi::Moesi;
use crate::wb::WbEntry;

/// Which coherence protocol a [`System`](crate::System) runs.
///
/// This is the value that travels through configuration, cache keys and
/// CLI flags, and its methods are the protocol: each answers one row of
/// the module-level decision table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The paper's platform (§4.1): dirty sharing via the `Owned` state.
    #[default]
    Moesi,
    /// Illinois-style MESI: dirty supplies also update memory.
    Mesi,
    /// Basic MSI: no silent-upgradable `Exclusive` state either.
    Msi,
}

impl ProtocolKind {
    /// All supported protocols, in sweep order (paper's platform first).
    pub const ALL: [ProtocolKind; 3] = [ProtocolKind::Moesi, ProtocolKind::Mesi, ProtocolKind::Msi];

    /// Parses a protocol name ("moesi", "mesi", "msi"; case insensitive) —
    /// for config files and CLI surfaces that select a single protocol.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "moesi" => Some(ProtocolKind::Moesi),
            "mesi" => Some(ProtocolKind::Mesi),
            "msi" => Some(ProtocolKind::Msi),
            _ => None,
        }
    }

    /// Display name ("MOESI", "MESI", "MSI").
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Moesi => "MOESI",
            ProtocolKind::Mesi => "MESI",
            ProtocolKind::Msi => "MSI",
        }
    }

    /// The states this protocol may produce (checker support).
    pub fn states(self) -> &'static [Moesi] {
        match self {
            ProtocolKind::Moesi => {
                &[Moesi::Modified, Moesi::Owned, Moesi::Exclusive, Moesi::Shared, Moesi::Invalid]
            }
            ProtocolKind::Mesi => {
                &[Moesi::Modified, Moesi::Exclusive, Moesi::Shared, Moesi::Invalid]
            }
            ProtocolKind::Msi => &[Moesi::Modified, Moesi::Shared, Moesi::Invalid],
        }
    }

    /// `true` when `state` belongs to this protocol's subset.
    #[inline]
    pub fn allows(self, state: Moesi) -> bool {
        self.states().contains(&state)
    }

    /// State installed by a read-miss fill, given whether any remote cache
    /// still holds a copy after the snoop.
    #[inline]
    pub fn read_fill_state(self, shared: bool) -> Moesi {
        match self {
            ProtocolKind::Moesi | ProtocolKind::Mesi if !shared => Moesi::Exclusive,
            _ => Moesi::Shared,
        }
    }

    /// Reaction of a valid remote copy (`state`) to a bus read.
    ///
    /// # Panics
    ///
    /// Panics on `Invalid` (a snoop miss has no read transition) and on a
    /// state outside this protocol's subset.
    #[inline]
    pub fn remote_read_reaction(self, state: Moesi) -> ReadReaction {
        match (self, state) {
            // M -> O and O -> O keep the dirty data on-chip: the owner keeps
            // supplying and memory is only written on the eventual eviction.
            (ProtocolKind::Moesi, _) => ReadReaction {
                next: state.after_remote_read(),
                supplies: state.supplies_data(),
                memory_update: false,
            },
            (_, Moesi::Invalid) => panic!("snoop-miss has no read transition"),
            (_, Moesi::Modified) => {
                ReadReaction { next: Moesi::Shared, supplies: true, memory_update: true }
            }
            (ProtocolKind::Mesi, Moesi::Exclusive) | (_, Moesi::Shared) => {
                ReadReaction { next: Moesi::Shared, supplies: false, memory_update: false }
            }
            (_, Moesi::Owned | Moesi::Exclusive) => unreachable!("{self} never produces {state}"),
        }
    }

    /// State a pending writeback re-enters its own cache with when the
    /// local CPU reads it again before it reaches memory (the
    /// writeback-forwarding path). `entry` remembers whether the evicted
    /// copy could still have sharers elsewhere.
    #[inline]
    pub fn wb_forward_state(self, entry: &WbEntry) -> Moesi {
        match self {
            // An Owned-origin entry may still have Shared copies elsewhere,
            // so it returns as Owned; a Modified-origin entry was the sole
            // copy and returns as Modified.
            ProtocolKind::Moesi if entry.shared => Moesi::Owned,
            ProtocolKind::Moesi => Moesi::Modified,
            // Dirty evictions only happen from M (the sole copy), so the
            // entry returns as the sole dirty copy again.
            ProtocolKind::Mesi | ProtocolKind::Msi => {
                debug_assert!(!entry.shared, "{self} writeback entries never have sharers");
                Moesi::Modified
            }
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a valid remote copy does when it snoops a `BusRd`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadReaction {
    /// The state the copy transitions to (may equal the current state).
    pub next: Moesi,
    /// `true` when this cache supplies the data (memory stays silent).
    pub supplies: bool,
    /// `true` when memory must be updated alongside the supply (MESI/MSI:
    /// the dirty copy downgrades to a *clean* `S`, so its data has to
    /// reach memory in the same transaction).
    pub memory_update: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetty_core::UnitAddr;
    use Moesi::{Exclusive as E, Invalid as I, Modified as M, Owned as O, Shared as S};

    /// One protocol's column of the module-doc decision table. Each test
    /// below pins one row of that table for every protocol.
    struct Column {
        kind: ProtocolKind,
        name: &'static str,
        states: &'static [Moesi],
        /// Read-miss fill without, then with, remote sharers.
        read_fill: [Moesi; 2],
        /// Remote `BusRd` per valid state: `(state, next, supplies, memory_update)`.
        read_reactions: &'static [(Moesi, Moesi, bool, bool)],
        /// Writeback forwarded back: sole-copy entry, then entry with sharers
        /// (`None`: no eviction can leave sharers behind).
        wb_forward: (Moesi, Option<Moesi>),
        /// States written back to memory on eviction.
        dirty_on_evict: &'static [Moesi],
    }

    const TABLE: [Column; 3] = [
        Column {
            kind: ProtocolKind::Moesi,
            name: "MOESI",
            states: &[M, O, E, S, I],
            read_fill: [E, S],
            read_reactions: &[
                (M, O, true, false),
                (O, O, true, false),
                (E, S, false, false),
                (S, S, false, false),
            ],
            wb_forward: (M, Some(O)),
            dirty_on_evict: &[M, O],
        },
        Column {
            kind: ProtocolKind::Mesi,
            name: "MESI",
            states: &[M, E, S, I],
            read_fill: [E, S],
            read_reactions: &[(M, S, true, true), (E, S, false, false), (S, S, false, false)],
            wb_forward: (M, None),
            dirty_on_evict: &[M],
        },
        Column {
            kind: ProtocolKind::Msi,
            name: "MSI",
            states: &[M, S, I],
            read_fill: [S, S],
            read_reactions: &[(M, S, true, true), (S, S, false, false)],
            wb_forward: (M, None),
            dirty_on_evict: &[M],
        },
    ];

    fn entry(shared: bool) -> WbEntry {
        WbEntry { unit: UnitAddr::new(1), version: 7, shared }
    }

    #[test]
    fn kinds_resolve_to_matching_protocols() {
        assert_eq!(TABLE.map(|c| c.kind), ProtocolKind::ALL);
        for c in &TABLE {
            assert_eq!(c.kind.name(), c.name);
            assert_eq!(c.kind.to_string(), c.name);
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.name()), Some(kind));
            assert_eq!(ProtocolKind::parse(&kind.to_string().to_lowercase()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("mosi"), None);
    }

    #[test]
    fn default_is_the_papers_moesi() {
        assert_eq!(ProtocolKind::default(), ProtocolKind::Moesi);
    }

    #[test]
    fn state_subsets_nest() {
        let mut wider: &[Moesi] = &[M, O, E, S, I];
        for c in &TABLE {
            let k = c.kind;
            assert_eq!(k.states(), c.states, "{k}");
            for s in [M, O, E, S, I] {
                assert_eq!(k.allows(s), c.states.contains(&s), "{k} allows {s}");
            }
            assert!([M, S, I].iter().all(|&s| k.allows(s)), "{k}");
            assert!(c.states.iter().all(|s| wider.contains(s)), "{k} does not nest");
            wider = c.states;
        }
    }

    #[test]
    fn read_fill_states() {
        for c in &TABLE {
            let k = c.kind;
            assert_eq!([k.read_fill_state(false), k.read_fill_state(true)], c.read_fill, "{k}");
        }
    }

    #[test]
    fn write_fill_is_modified_everywhere() {
        // A write-miss fill installs M under every protocol.
        for c in &TABLE {
            assert!(c.kind.allows(M), "{}", c.kind);
        }
    }

    /// Asserts the `BusRd` reaction of every valid state in the table for
    /// the protocols `pick` selects.
    fn check_read_reactions(pick: impl Fn(ProtocolKind) -> bool) {
        for c in TABLE.iter().filter(|c| pick(c.kind)) {
            let k = c.kind;
            let valid: Vec<Moesi> = c.states.iter().copied().filter(|s| s.is_valid()).collect();
            assert_eq!(c.read_reactions.iter().map(|r| r.0).collect::<Vec<_>>(), valid, "{k}");
            for &(state, next, supplies, memory_update) in c.read_reactions {
                let expected = ReadReaction { next, supplies, memory_update };
                assert_eq!(k.remote_read_reaction(state), expected, "{k} snoops {state}");
            }
        }
    }

    #[test]
    fn moesi_keeps_dirty_data_on_chip() {
        check_read_reactions(|k| k == ProtocolKind::Moesi);
    }

    #[test]
    fn mesi_and_msi_update_memory_on_dirty_supply() {
        check_read_reactions(|k| k != ProtocolKind::Moesi);
    }

    #[test]
    fn clean_states_let_memory_respond() {
        for c in &TABLE {
            for &(state, next, supplies, memory_update) in c.read_reactions {
                if !state.is_dirty() {
                    assert_eq!(next, S, "{} snoops {state}", c.kind);
                    assert!(!supplies && !memory_update, "{} snoops {state}", c.kind);
                }
            }
        }
    }

    #[test]
    fn wb_forwarding_states() {
        for c in &TABLE {
            let k = c.kind;
            assert_eq!(k.wb_forward_state(&entry(false)), c.wb_forward.0, "{k}");
            if let Some(shared) = c.wb_forward.1 {
                assert_eq!(k.wb_forward_state(&entry(true)), shared, "{k}");
            }
        }
    }

    #[test]
    fn eviction_hooks() {
        // A dirty (M/O) eviction is written back; only an O eviction
        // leaves sharers behind, so only protocols with O forward a
        // shared entry.
        for c in &TABLE {
            let k = c.kind;
            let dirty: Vec<Moesi> = c.states.iter().copied().filter(|s| s.is_dirty()).collect();
            assert_eq!(dirty, c.dirty_on_evict, "{k}");
            assert_eq!(k.allows(O), c.wb_forward.1.is_some(), "{k}");
        }
    }

    #[test]
    #[should_panic(expected = "no read transition")]
    fn mesi_rejects_snoop_miss_reaction() {
        let _ = ProtocolKind::Mesi.remote_read_reaction(Moesi::Invalid);
    }
}
