//! The invariant checker and the checker-backed memory model.
//!
//! With [`CheckLevel::Full`](crate::CheckLevel::Full) the system tracks
//! data versions end to end (memory's copy, the latest store, each cache's
//! copy) and asserts after every transaction that:
//!
//! * reads observe the newest written data (no lost updates, no stale
//!   supplies),
//! * the protocol's single-writer invariants hold (at most one `M`/`E`
//!   holder, at most one `O` holder, an exclusive copy is the sole copy),
//! * no node holds a state outside its protocol's subset (e.g. `Owned`
//!   under MESI),
//! * L1 ⊆ L2 inclusion holds for the touched unit.
//!
//! The filter-safety assertion itself runs inside each filter's replay
//! of the logged snoop events, at every check level.

use jetty_core::{SnoopFilter, UnitAddr};

use crate::bus::SnoopResponse;
use crate::moesi::Moesi;
use crate::protocol::CoherenceProtocol;
use crate::system::System;
use crate::wb::WbEntry;

impl System {
    /// Completes a writeback's journey: memory now holds this version.
    pub(super) fn retire_to_memory(&mut self, entry: WbEntry) {
        self.update_memory(entry.unit, entry.version);
    }

    /// Records that memory was written with `version` for `unit` (WB
    /// drains, and the snoop-time updates MESI/MSI pay on dirty supplies).
    pub(super) fn update_memory(&mut self, unit: UnitAddr, version: u64) {
        if self.config.check.is_full() {
            self.memory_versions.insert(unit.raw(), version);
        }
    }

    /// Version the requester receives for a fill, given the snoop response.
    pub(super) fn incoming_version(&mut self, unit: UnitAddr, response: &SnoopResponse) -> u64 {
        if let Some(v) = response.supplied_version {
            return v;
        }
        if self.config.check.is_full() && !response.supplied_by_wb {
            // Memory supplies: its copy must be current.
            let mem = self.memory_versions.get(unit.raw()).unwrap_or(0);
            let latest = self.latest_versions.get(unit.raw()).unwrap_or(0);
            assert_eq!(
                mem, latest,
                "memory supplied stale data for {unit}: memory v{mem}, latest v{latest}"
            );
            return mem;
        }
        // Unchecked mode (or WB supply handled inside the snoop): versions
        // are advisory; WB supplies set `supplied_version` too, so 0 here.
        self.memory_versions.get(unit.raw()).unwrap_or(0)
    }

    /// Asserts that a completed read observed the newest written data.
    pub(super) fn check_read(&self, cpu: usize, unit: UnitAddr) {
        if !self.config.check.is_full() {
            return;
        }
        let latest = self.latest_versions.get(unit.raw()).unwrap_or(0);
        let seen = self.nodes[cpu].l2.version(unit);
        assert_eq!(
            seen, latest,
            "stale read: cpu{cpu} read {unit} at v{seen}, latest is v{latest}"
        );
    }

    /// Asserts the protocol's single-writer and state-subset invariants
    /// for `unit`.
    pub(super) fn check_invariants(&self, unit: UnitAddr) {
        if !self.config.check.is_full() {
            return;
        }
        let states: Vec<Moesi> = self.nodes.iter().map(|n| n.l2.state(unit)).collect();
        for (i, s) in states.iter().enumerate() {
            assert!(
                self.config.protocol.allows(*s),
                "node {i} holds {s} for {unit}, outside the {} state set",
                self.config.protocol.name()
            );
        }
        let valid = states.iter().filter(|s| s.is_valid()).count();
        let exclusive =
            states.iter().filter(|s| matches!(s, Moesi::Modified | Moesi::Exclusive)).count();
        let owners = states.iter().filter(|s| **s == Moesi::Owned).count();
        assert!(exclusive <= 1, "multiple M/E holders of {unit}: {states:?}");
        assert!(owners <= 1, "multiple O holders of {unit}: {states:?}");
        if exclusive == 1 {
            assert_eq!(valid, 1, "M/E copy of {unit} coexists with other copies: {states:?}");
        }
        // Inclusion for the touched unit in every node.
        for (i, node) in self.nodes.iter().enumerate() {
            if node.l1.contains(unit) {
                assert!(
                    node.l2.state(unit).is_valid(),
                    "inclusion violated on node {i}: {unit} in L1 but not L2"
                );
            }
        }
    }

    /// Verifies L1 ⊆ L2 inclusion exhaustively (tests; O(L1 size)).
    pub fn verify_inclusion(&self) {
        for (i, node) in self.nodes.iter().enumerate() {
            for u in node.l1.valid_units() {
                assert!(
                    node.l2.state(u).is_valid(),
                    "inclusion violated on node {i}: {u} in L1 but not L2"
                );
            }
        }
    }

    /// Verifies that every Include-Jetty in every bank exactly mirrors its
    /// L2 population (tests; O(L2 size)).
    pub fn verify_filter_consistency(&mut self) {
        for node in &mut self.nodes {
            let units: Vec<UnitAddr> = node.l2.valid_units().map(|(u, _)| u).collect();
            for f in &mut node.filters {
                for &u in &units {
                    let v = f.probe(u);
                    assert!(!v.is_filtered(), "{} filters cached unit {u}", f.name());
                }
            }
        }
    }
}
