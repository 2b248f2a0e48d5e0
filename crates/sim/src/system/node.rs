//! One SMP node: the per-processor state bundle and its purely local
//! helpers. Everything that needs cross-node or bus context lives in
//! [`local`](super::local) and [`bus`](super::bus) instead.

use jetty_core::{FilterBank, FilterEvent, UnitAddr};

use crate::l1::L1Cache;
use crate::l2::L2Cache;
use crate::stats::NodeStats;
use crate::wb::{WbEntry, WritebackBuffer};

/// One SMP node.
///
/// The filter bank is a [`FilterBank`]: concrete, statically dispatched
/// filters, planned so that each distinct Include-Jetty replays once per
/// chunk flush (see `jetty_core::FilterBank`).
pub(super) struct Node {
    pub(super) l1: L1Cache,
    pub(super) l2: L2Cache,
    pub(super) wb: WritebackBuffer,
    pub(super) bank: FilterBank,
    pub(super) stats: NodeStats,
    /// Filter notifications logged since the last flush: the protocol
    /// path logs one compact event per notification here instead of
    /// walking the whole bank per snoop, and the flush replays the list
    /// through each filter in turn. Drained before
    /// [`System::run_chunk`](super::System::run_chunk) and
    /// [`System::access`](super::System::access) return. The buffer's
    /// capacity is retained across chunks, so steady-state logging
    /// allocates nothing.
    pub(super) events: Vec<FilterEvent>,
}

impl Node {
    /// Logs one filter notification for the next flush. A node with an
    /// empty bank logs nothing: no filter would replay it.
    #[inline]
    pub(super) fn log(&mut self, event: FilterEvent) {
        if !self.bank.is_empty() {
            self.events.push(event);
        }
    }

    /// On a local L2 miss, checks the node's own writeback buffer for the
    /// unit (evicted dirty, not yet at memory) and extracts it if present.
    pub(super) fn l2_miss_wb_forward(&mut self, unit: UnitAddr) -> Option<WbEntry> {
        let entry = self.wb.remove(unit)?;
        self.stats.wb_local_hits += 1;
        Some(entry)
    }
}
