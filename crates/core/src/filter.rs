//! The [`SnoopFilter`] trait and the activity/geometry reporting that the
//! energy model consumes.
//!
//! A JETTY sits between the shared bus and the backside of a node's L2.
//! Every bus snoop first probes the filter; the filter either *guarantees*
//! that the local L2 holds no copy of the snooped coherence unit
//! ([`Verdict::NotCached`], the snoop is filtered and the L2 tag array is
//! never touched) or answers [`Verdict::MaybeCached`], in which case the
//! L2 tag array is probed as in an unfiltered system.
//!
//! Filters are *speculative but safe*: they may fail to filter a snoop that
//! would miss, but they must never filter a snoop to a unit that is cached
//! (paper §2, requirement 3). Every replay re-checks this invariant
//! against the snoop's `would_hit`, and the property tests in this crate
//! exercise it directly.

use std::fmt;

use crate::addr::UnitAddr;

/// Outcome of probing a snoop filter.
///
/// # Examples
///
/// ```
/// use jetty_core::Verdict;
///
/// assert!(Verdict::NotCached.is_filtered());
/// assert!(!Verdict::MaybeCached.is_filtered());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The filter guarantees the unit is not present in the local L2;
    /// the snoop-induced tag probe can be skipped.
    NotCached,
    /// The unit may be cached; the L2 tag array must be probed.
    MaybeCached,
}

impl Verdict {
    /// `true` when the verdict filters the snoop (no tag probe needed).
    pub fn is_filtered(self) -> bool {
        matches!(self, Verdict::NotCached)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::NotCached => f.write_str("not-cached"),
            Verdict::MaybeCached => f.write_str("maybe-cached"),
        }
    }
}

/// How much absence a snoop miss proved, reported back to filters so
/// exclude-style structures know what they may safely record.
///
/// With a subblocked L2 a snoop can miss two ways: the whole tag missed
/// (no subblock of the block is present — the common case, and the one
/// that lets an EJ record the entire block) or the tag matched but the
/// snooped subblock was invalid (only that unit is known absent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissScope {
    /// The entire tag block containing the unit is absent.
    Block,
    /// Only the snooped coherence unit is known absent (tag matched, the
    /// sibling subblock may be present).
    Unit,
}

/// The kind of storage array a filter component is built from, used by the
/// energy model to pick per-access cost formulas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// An ordinary RAM array read/written one row at a time (IJ p-bit and
    /// cnt arrays, and the EJ/VEJ tag store, which reads one set per probe).
    Sram,
    /// A fully associative match structure (used by the substrate for the
    /// writeback buffer; no JETTY variant in the paper needs a CAM).
    Cam,
}

/// Geometry of one physical storage array inside a filter.
///
/// The energy model turns each spec into a per-access energy using the
/// Kamble–Ghose formulas; the paired [`ArrayActivity`] supplies the access
/// counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArraySpec {
    /// Human-readable label (`"ej.tags"`, `"ij.pbits[2]"`, ...).
    pub label: String,
    /// Number of rows (word lines).
    pub rows: usize,
    /// Bits read or written per access (columns).
    pub bits_per_row: usize,
    /// Array style.
    pub kind: ArrayKind,
}

impl ArraySpec {
    /// Creates a RAM array spec.
    pub fn sram(label: impl Into<String>, rows: usize, bits_per_row: usize) -> Self {
        Self { label: label.into(), rows, bits_per_row, kind: ArrayKind::Sram }
    }

    /// Total storage of this array in bits.
    pub fn storage_bits(&self) -> usize {
        self.rows * self.bits_per_row
    }
}

/// Read/write access counts for one array, aligned index-for-index with the
/// filter's [`SnoopFilter::arrays`] list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayActivity {
    /// Number of row reads.
    pub reads: u64,
    /// Number of row writes.
    pub writes: u64,
}

impl ArrayActivity {
    /// Sum of reads and writes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A filter's accumulated activity since construction (or the last
/// [`SnoopFilter::reset_activity`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FilterActivity {
    /// Per-array access counts, aligned with [`SnoopFilter::arrays`].
    pub arrays: Vec<ArrayActivity>,
    /// Snoop probes observed.
    pub probes: u64,
    /// Snoop probes answered [`Verdict::NotCached`].
    pub filtered: u64,
}

impl FilterActivity {
    /// Creates an activity record with `n` zeroed array slots.
    pub fn with_arrays(n: usize) -> Self {
        Self { arrays: vec![ArrayActivity::default(); n], probes: 0, filtered: 0 }
    }

    /// Fraction of probes filtered, in `[0, 1]`; `0` when no probes occurred.
    pub fn filter_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.filtered as f64 / self.probes as f64
        }
    }
}

/// One filter notification, as logged by the SMP substrate.
///
/// Filters are pure bystanders: their state depends only on the ordered
/// sequence of notifications *they themselves* receive, never on protocol
/// state. The substrate exploits this by logging one compact event per
/// notification while it simulates a chunk of references, then replaying
/// each node's event list through each filter in turn
/// ([`SnoopFilter::apply_batch`]) — one filter's arrays stay
/// cache-resident across thousands of events instead of a whole bank
/// thrashing per snoop. Replay is the only way a filter changes state: the
/// one-event calls ([`SnoopFilter::probe`] and friends) replay a single
/// event, so chunk boundaries never change a filter's state or activity.
///
/// # Examples
///
/// ```
/// use jetty_core::{FilterEvent, MissScope, UnitAddr};
///
/// let ev =
///     FilterEvent::Snoop { unit: UnitAddr::new(7), would_hit: false, scope: MissScope::Block };
/// assert!(matches!(ev, FilterEvent::Snoop { .. }));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterEvent {
    /// A bus snoop probed this node: the filter is probed, and — when the
    /// snoop was not filtered and the L2 would miss (`!would_hit`) —
    /// exclude-style filters learn the miss at the proven `scope`.
    /// `would_hit` also drives the safety assertion: a filter that claims
    /// [`Verdict::NotCached`] for a cached unit is unsafe.
    Snoop {
        /// The snooped coherence unit.
        unit: UnitAddr,
        /// Whether the local L2 holds a valid copy (snoop would hit).
        would_hit: bool,
        /// Absence scope proven by the L2 tag probe on a miss.
        scope: MissScope,
    },
    /// The local L2 gained a valid copy of the unit (fills).
    Allocate(UnitAddr),
    /// The local L2 lost a valid copy of the unit (evictions and snoop
    /// invalidations).
    Deallocate(UnitAddr),
}

/// A snoop filter in the JETTY family.
///
/// The SMP substrate drives a filter through three notifications, logged
/// as [`FilterEvent`]s and replayed in order by
/// [`apply_batch`](SnoopFilter::apply_batch), the one mutator a filter
/// implements:
///
/// 1. [`FilterEvent::Snoop`] on every bus snoop destined for this node
///    (reads the filter's arrays; an unfiltered snoop that missed in the
///    local L2 lets exclude-style filters learn);
/// 2. [`FilterEvent::Allocate`] when the local L2 gains a valid copy of a
///    coherence unit (fills);
/// 3. [`FilterEvent::Deallocate`] when the local L2 loses one (evictions
///    and snoop invalidations).
///
/// [`probe`](SnoopFilter::probe), [`on_allocate`](SnoopFilter::on_allocate)
/// and [`on_deallocate`](SnoopFilter::on_deallocate) are one-event replays
/// for callers that drive a filter by hand.
///
/// # Safety contract
///
/// After any interleaving of these events in which every unit's
/// allocate/deallocate events are balanced, a snoop to `u` may be answered
/// [`Verdict::NotCached`] only if `u` is not currently allocated. Filters
/// in this crate uphold the contract structurally, and `apply_batch`
/// re-checks it against each snoop's `would_hit`.
///
/// # Threading
///
/// `Send` is a supertrait: a filter (and therefore a whole simulated
/// system) can be moved to a worker thread, which is how the parallel
/// experiment engine runs independent simulations concurrently. Filters
/// are still driven single-threaded — `Sync` is *not* required.
pub trait SnoopFilter: fmt::Debug + Send {
    /// Replays a node's ordered event list through this filter and
    /// returns how many of its snoops the filter answered
    /// [`Verdict::NotCached`]. `node` only labels the safety panic.
    ///
    /// # Panics
    ///
    /// Panics with an `UNSAFE FILTER` message at the first snoop the
    /// filter answers `NotCached` although its `would_hit` is set.
    fn apply_batch(&mut self, events: &[FilterEvent], node: usize) -> u64;

    /// Probes the filter for a bus snoop to `addr` that learns nothing:
    /// the one-event replay of a `Snoop` with `would_hit: false` and
    /// [`MissScope::Unit`].
    fn probe(&mut self, addr: UnitAddr) -> Verdict {
        let snoop = FilterEvent::Snoop { unit: addr, would_hit: false, scope: MissScope::Unit };
        if self.apply_batch(&[snoop], 0) == 0 {
            Verdict::MaybeCached
        } else {
            Verdict::NotCached
        }
    }

    /// Informs the filter that the local L2 now holds a valid copy of
    /// `addr` (the one-event replay of [`FilterEvent::Allocate`]).
    fn on_allocate(&mut self, addr: UnitAddr) {
        self.apply_batch(&[FilterEvent::Allocate(addr)], 0);
    }

    /// Informs the filter that the local L2 no longer holds a valid copy of
    /// `addr` (the one-event replay of [`FilterEvent::Deallocate`]).
    fn on_deallocate(&mut self, addr: UnitAddr) {
        self.apply_batch(&[FilterEvent::Deallocate(addr)], 0);
    }

    /// The physical arrays this filter is built from, for storage/energy
    /// estimation.
    fn arrays(&self) -> Vec<ArraySpec>;

    /// Access counts accumulated so far, aligned with [`arrays`](Self::arrays).
    fn activity(&self) -> FilterActivity;

    /// Clears the accumulated activity counters (state is preserved).
    fn reset_activity(&mut self);

    /// Short configuration name, e.g. `"EJ-32x4"` or `"IJ-10x4x7"`.
    fn name(&self) -> String;

    /// Total storage in bits across all arrays.
    fn storage_bits(&self) -> usize {
        self.arrays().iter().map(ArraySpec::storage_bits).sum()
    }
}

/// Raises the filter-safety panic for a replay kernel's `unsafe_at`
/// index (the first snoop in `events` that the filter named by `label`
/// answered `NotCached` although the unit was cached); does nothing for
/// `None`. The label is built only when the panic fires.
pub(crate) fn assert_safe(
    label: impl FnOnce() -> String,
    events: &[FilterEvent],
    unsafe_at: Option<usize>,
    node: usize,
) {
    if let Some(bad) = unsafe_at {
        let FilterEvent::Snoop { unit, .. } = events[bad] else {
            unreachable!("unsafe_at always indexes a snoop event");
        };
        panic!("UNSAFE FILTER: {} filtered a snoop to cached unit {unit} on node {node}", label());
    }
}

/// Replays one unfiltered-or-filtered snoop that misses the local L2 at
/// `scope` and returns the filter's verdict (unit-test shorthand for
/// "probe, and learn the miss if the snoop got through").
#[cfg(test)]
pub(crate) fn snoop_miss(
    filter: &mut impl SnoopFilter,
    unit: UnitAddr,
    scope: MissScope,
) -> Verdict {
    let snoop = FilterEvent::Snoop { unit, would_hit: false, scope };
    if filter.apply_batch(&[snoop], 0) == 0 {
        Verdict::MaybeCached
    } else {
        Verdict::NotCached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_filtering() {
        assert!(Verdict::NotCached.is_filtered());
        assert!(!Verdict::MaybeCached.is_filtered());
        assert_eq!(Verdict::NotCached.to_string(), "not-cached");
        assert_eq!(Verdict::MaybeCached.to_string(), "maybe-cached");
    }

    #[test]
    fn array_spec_storage() {
        let spec = ArraySpec::sram("t", 32, 124);
        assert_eq!(spec.storage_bits(), 32 * 124);
        assert_eq!(spec.kind, ArrayKind::Sram);
    }

    #[test]
    fn activity_filter_rate() {
        let mut a = FilterActivity::with_arrays(2);
        assert_eq!(a.filter_rate(), 0.0);
        a.probes = 10;
        a.filtered = 4;
        assert!((a.filter_rate() - 0.4).abs() < 1e-12);
        assert_eq!(a.arrays.len(), 2);
    }

    #[test]
    fn array_activity_total() {
        let a = ArrayActivity { reads: 3, writes: 4 };
        assert_eq!(a.total(), 7);
    }
}
