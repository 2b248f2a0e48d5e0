//! Exclude-Jetty (EJ, paper §3.1): a small set-associative array recording a
//! *subset* of L2 blocks known not to be locally cached.
//!
//! An entry is a `(TAG, present-bit)` pair over **block** addresses (the L2
//! tag granularity). An entry is allocated only when a snoop missed the
//! *entire tag* — with a subblocked L2, that proves every subblock of the
//! block is absent, so filtering any snoop to that block is safe. A local
//! fill of any unit in the block invalidates the record.
//!
//! Block-grain recording is where most of EJ's coverage comes from: the
//! paper notes that "for those applications where there is little or no
//! sharing, locality is primarily the result of subblocking — accesses to
//! the different subblocks within the same L2 block will result in a miss"
//! (§4.3.1). A sequential walk fetches each 64-byte block as two 32-byte
//! subblock misses; the first snoop records the block, the second is
//! filtered. Sharing patterns add more: migratory hand-offs and
//! producer/consumer rewrites re-snoop blocks that third parties recorded
//! as absent moments earlier.

use std::fmt;

use crate::addr::AddrSpace;
use crate::filter::{self, ArraySpec, FilterActivity, FilterEvent, SnoopFilter};
use crate::kernels::{self, EjGeom};

/// Configuration for an [`ExcludeJetty`], the paper's `EJ-SxA` naming.
///
/// # Examples
///
/// ```
/// use jetty_core::ExcludeConfig;
///
/// let cfg = ExcludeConfig::new(32, 4);
/// assert_eq!(cfg.entries(), 128);
/// assert_eq!(cfg.label(), "EJ-32x4");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExcludeConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (entries per set).
    pub ways: usize,
}

impl ExcludeConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or if `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "EJ sets must be a power of two, got {sets}");
        assert!(ways > 0, "EJ associativity must be nonzero");
        Self { sets, ways }
    }

    /// Total entries (`sets * ways`).
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Paper-style label, e.g. `EJ-32x4`.
    pub fn label(&self) -> String {
        format!("EJ-{}x{}", self.sets, self.ways)
    }
}

/// Key word of one `(TAG, present-bit)` record: `tag << 1 | present`.
/// Real keys are far below `u64::MAX` (tags are at most ~34 bits), so the
/// all-ones word marks a never-used way — a probe scans *only* the keys of
/// one set (a 4-way set is 32 contiguous bytes) and touches the LRU stamps
/// on a tag match alone.
const EMPTY_KEY: u64 = u64::MAX;

/// The Exclude-Jetty filter. See the module docs for semantics.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, ExcludeConfig, ExcludeJetty, FilterEvent, MissScope, SnoopFilter,
///                  UnitAddr, Verdict};
///
/// let mut ej = ExcludeJetty::new(ExcludeConfig::new(8, 2), AddrSpace::default());
/// let unit = UnitAddr::new(0x40);
///
/// // Unknown block: cannot filter. The snoop goes to the L2, the whole
/// // tag misses, and EJ learns.
/// let snoop = FilterEvent::Snoop { unit, would_hit: false, scope: MissScope::Block };
/// assert_eq!(ej.apply_batch(&[snoop], 0), 0);
/// // The next snoop to the same block — either subblock — is filtered.
/// assert_eq!(ej.probe(unit), Verdict::NotCached);
/// assert_eq!(ej.probe(UnitAddr::new(0x41)), Verdict::NotCached); // sibling subblock
/// // A local fill invalidates the record.
/// ej.on_allocate(unit);
/// assert_eq!(ej.probe(unit), Verdict::MaybeCached);
/// ```
#[derive(Clone)]
pub struct ExcludeJetty {
    config: ExcludeConfig,
    space: AddrSpace,
    /// Entry keys (`tag << 1 | present`, [`EMPTY_KEY`] = unused way) in
    /// one contiguous array; set `s` occupies
    /// `keys[s * ways .. (s + 1) * ways]`, so a probe scans one run of
    /// adjacent memory instead of chasing a per-set heap pointer.
    keys: Vec<u64>,
    /// LRU stamps, parallel to `keys` (larger = more recent; 0 = never
    /// stamped). Touched only on tag hits and replacements.
    stamps: Vec<u64>,
    clock: u64,
    /// Snoop misses recorded since the last reset (each is exactly one
    /// tag write, charged in `activity()`).
    records: u64,
    /// Allocate events since the last reset (each is exactly one tag
    /// read, charged in `activity()`).
    allocates: u64,
    activity: FilterActivity,
}

impl fmt::Debug for ExcludeJetty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExcludeJetty")
            .field("config", &self.config)
            .field("probes", &self.activity.probes)
            .field("filtered", &self.activity.filtered)
            .finish()
    }
}

impl ExcludeJetty {
    /// Number of arrays reported by [`SnoopFilter::arrays`].
    const ARRAYS: usize = 1;

    /// Creates an Exclude-Jetty for the given address space.
    pub fn new(config: ExcludeConfig, space: AddrSpace) -> Self {
        Self {
            config,
            space,
            keys: vec![EMPTY_KEY; config.entries()],
            stamps: vec![0; config.entries()],
            clock: 0,
            records: 0,
            allocates: 0,
            activity: FilterActivity::with_arrays(Self::ARRAYS),
        }
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> ExcludeConfig {
        self.config
    }

    /// The address space this filter indexes.
    pub fn space(&self) -> AddrSpace {
        self.space
    }

    fn set_bits(&self) -> u32 {
        self.config.sets.trailing_zeros()
    }

    /// Width of a stored tag in bits: the block address minus the set
    /// index.
    pub fn tag_bits(&self) -> u32 {
        self.space.block_bits().saturating_sub(self.set_bits())
    }

    /// The address-split geometry handed to the replay kernel: a unit
    /// address becomes a block address, whose low `set_bits` pick the set
    /// and whose remaining bits are the tag.
    fn geom(&self) -> EjGeom {
        EjGeom {
            block_shift: self.space.block_unit_shift(),
            set_mask: (self.config.sets - 1) as u64,
            set_bits: self.set_bits(),
        }
    }

    /// Replays one [`FilterEvent`] chunk through a single
    /// [`kernels::ej_replay`] call and folds the kernel's counters into
    /// this filter's activity: probe/allocate counts are uniform
    /// tag-read charges, records/filtered/present-bit writes and the
    /// LRU clock come back from the kernel. The event chunk goes to the
    /// kernel as-is — no gather pass, no scratch copy. Shared by
    /// [`apply_batch`](SnoopFilter::apply_batch) and the hybrid's replays
    /// (which pass their IJ verdict slice); the caller owns the
    /// unsafe-filter panic (the hybrid labels it with its own name).
    pub(crate) fn replay_events(
        &mut self,
        events: &[FilterEvent],
        ij_filtered: &[bool],
    ) -> kernels::ReplayOut {
        let geom = self.geom();
        let out = kernels::ej_replay(
            &mut self.keys,
            &mut self.stamps,
            self.config.ways,
            self.clock,
            geom,
            events,
            ij_filtered,
        );
        self.clock = out.clock;
        self.records += out.records;
        self.allocates += out.allocates;
        self.activity.probes += out.probes;
        self.activity.filtered += out.filtered;
        self.activity.arrays[0].writes += out.writes;
        out
    }
}

impl SnoopFilter for ExcludeJetty {
    fn apply_batch(&mut self, events: &[FilterEvent], node: usize) -> u64 {
        let out = self.replay_events(events, &[]);
        filter::assert_safe(|| self.name(), events, out.unsafe_at, node);
        out.filtered
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        // One set-associative tag store; a probe reads one set (all ways).
        let entry_bits = self.tag_bits() as usize + 1; // tag + present bit
        vec![ArraySpec::sram("ej.tags", self.config.sets, self.config.ways * entry_bits)]
    }

    fn activity(&self) -> FilterActivity {
        // Materialise the uniform charges deferred on the hot paths: one
        // tag read per probe/allocate, one tag write per recorded miss.
        let mut activity = self.activity.clone();
        activity.arrays[0].reads += activity.probes + self.allocates;
        activity.arrays[0].writes += self.records;
        activity
    }

    fn reset_activity(&mut self) {
        self.records = 0;
        self.allocates = 0;
        self.activity = FilterActivity::with_arrays(Self::ARRAYS);
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::snoop_miss;
    use crate::{MissScope, UnitAddr, Verdict};

    fn ej(sets: usize, ways: usize) -> ExcludeJetty {
        ExcludeJetty::new(ExcludeConfig::new(sets, ways), AddrSpace::default())
    }

    #[test]
    fn cold_filter_never_filters() {
        let mut f = ej(32, 4);
        for i in 0..1000 {
            assert_eq!(f.probe(UnitAddr::new(i * 37)), Verdict::MaybeCached);
        }
        assert_eq!(f.activity().filtered, 0);
        assert_eq!(f.activity().probes, 1000);
    }

    #[test]
    fn learns_block_from_full_tag_miss() {
        let mut f = ej(8, 2);
        // Units 122/123 are the two subblocks of block 61.
        let u0 = UnitAddr::new(122);
        let u1 = UnitAddr::new(123);
        // The snoop gets through, misses the whole tag, and is learned.
        assert_eq!(snoop_miss(&mut f, u0, MissScope::Block), Verdict::MaybeCached);
        // Both subblocks of the block are now filtered.
        assert_eq!(f.probe(u0), Verdict::NotCached);
        assert_eq!(f.probe(u1), Verdict::NotCached);
    }

    #[test]
    fn unit_scope_misses_are_not_recorded() {
        let mut f = ej(8, 2);
        let u = UnitAddr::new(122);
        snoop_miss(&mut f, u, MissScope::Unit);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn local_allocate_invalidates_block_record() {
        let mut f = ej(8, 2);
        let u0 = UnitAddr::new(200);
        let sibling = UnitAddr::new(201);
        snoop_miss(&mut f, u0, MissScope::Block);
        assert_eq!(f.probe(sibling), Verdict::NotCached);
        // The sibling subblock arrives locally: the whole record dies.
        f.on_allocate(sibling);
        assert_eq!(f.probe(u0), Verdict::MaybeCached);
        assert_eq!(f.probe(sibling), Verdict::MaybeCached);
    }

    #[test]
    fn deallocate_does_not_create_records() {
        let mut f = ej(8, 2);
        let u = UnitAddr::new(7);
        f.on_deallocate(u);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        let mut f = ej(1, 2);
        // Distinct blocks: unit addresses 0, 2, 4 (blocks 0, 1, 2).
        let a = UnitAddr::new(0);
        let b = UnitAddr::new(2);
        let c = UnitAddr::new(4);
        snoop_miss(&mut f, a, MissScope::Block);
        snoop_miss(&mut f, b, MissScope::Block);
        // `a` is refreshed by a probe; `b` becomes LRU.
        assert_eq!(f.probe(a), Verdict::NotCached);
        snoop_miss(&mut f, c, MissScope::Block);
        assert_eq!(f.probe(a), Verdict::NotCached);
        assert_eq!(f.probe(b), Verdict::MaybeCached);
        assert_eq!(f.probe(c), Verdict::NotCached);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut f = ej(4, 1);
        for block in 0..4u64 {
            snoop_miss(&mut f, UnitAddr::new(block * 2), MissScope::Block);
        }
        for block in 0..4u64 {
            assert_eq!(f.probe(UnitAddr::new(block * 2)), Verdict::NotCached);
        }
    }

    #[test]
    fn geometry_matches_paper_largest_config() {
        // EJ-32x4 over a 34-bit block address: tag = 29 bits, 30-bit
        // entries.
        let f = ej(32, 4);
        assert_eq!(f.tag_bits(), 29);
        let arrays = f.arrays();
        assert_eq!(arrays.len(), 1);
        assert_eq!(arrays[0].rows, 32);
        assert_eq!(arrays[0].bits_per_row, 4 * 30);
        assert_eq!(f.storage_bits(), 32 * 4 * 30);
    }

    #[test]
    fn activity_counts_reads_and_writes() {
        let mut f = ej(8, 2);
        let u = UnitAddr::new(5);
        snoop_miss(&mut f, u, MissScope::Block); // 1 read (probe) + 1 write (record)
        f.on_allocate(u); // 1 read + 1 write (record was present)
        let act = f.activity();
        assert_eq!(act.arrays[0].reads, 2);
        assert_eq!(act.arrays[0].writes, 2);
        assert_eq!(act.probes, 1);
    }

    #[test]
    fn reset_activity_preserves_state() {
        let mut f = ej(8, 2);
        let u = UnitAddr::new(11);
        snoop_miss(&mut f, u, MissScope::Block);
        f.reset_activity();
        assert_eq!(f.activity().probes, 0);
        assert_eq!(f.probe(u), Verdict::NotCached);
    }

    #[test]
    fn name_and_config_roundtrip() {
        let f = ej(16, 2);
        assert_eq!(f.name(), "EJ-16x2");
        assert_eq!(f.config().entries(), 32);
    }

    #[test]
    fn sequential_walk_filters_second_subblock() {
        // The paper's main EJ locality source: a remote CPU walks
        // sequentially; each 64B block produces two snoops; the second is
        // filtered.
        let mut f = ej(32, 4);
        let mut filtered = 0;
        for unit in 0..256u64 {
            if snoop_miss(&mut f, UnitAddr::new(unit), MissScope::Block).is_filtered() {
                filtered += 1;
            }
        }
        assert_eq!(filtered, 128, "exactly every second subblock snoop is filtered");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = ExcludeConfig::new(12, 2);
    }
}
