//! Include-Jetty (IJ, paper §3.2 / Figure 3b-c): N counting-Bloom-filter
//! sub-arrays encoding a *superset* of the coherence units currently cached
//! in the local L2.
//!
//! Each sub-array has `2^E` entries, each holding a presence bit (`p`) and a
//! counter (`cnt`). Sub-array `i` is indexed by an `E`-bit slice of the unit
//! address starting at bit `i * skip`; with `skip < E` the slices partially
//! overlap, which the paper found more accurate than disjoint slices. A
//! snoop reads only the N p-bits: if *any* is clear, no cached unit can
//! match the address, so the snoop is filtered. Counters track exactly how
//! many cached units map to each entry so p-bits can be cleared again on
//! deallocation — this is what keeps the superset coherent and the filter
//! safe.
//!
//! For energy, the p-bits and counters live in separate arrays (Figure 3c):
//! snoops touch only the small p-bit arrays (organised rows x columns like a
//! register file); allocate/deallocate traffic performs read-modify-write on
//! the cnt arrays and occasionally writes a p-bit.

use std::fmt;

use crate::addr::{AddrSpace, UnitAddr};
use crate::filter::{self, ArraySpec, FilterActivity, FilterEvent, SnoopFilter};
use crate::kernels;

/// Configuration for an [`IncludeJetty`], the paper's `IJ-ExNxS` naming:
/// `2^E`-entry sub-arrays, `N` of them, index slices `S` bits apart.
///
/// # Examples
///
/// ```
/// use jetty_core::IncludeConfig;
///
/// let cfg = IncludeConfig::new(10, 4, 7);
/// assert_eq!(cfg.label(), "IJ-10x4x7");
/// assert_eq!(cfg.entries_per_array(), 1024);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IncludeConfig {
    /// Index width `E`: each sub-array has `2^E` entries.
    pub index_bits: u32,
    /// Number of sub-arrays `N`.
    pub sub_arrays: u32,
    /// Distance `S` in bits between consecutive sub-array index slices.
    /// `S < E` yields partially overlapping indices (the paper's choice).
    pub skip: u32,
    /// Counter width in bits, used only for storage estimates. The paper
    /// pessimistically sizes counters to cover every L2 block mapping to a
    /// single entry (14 bits for their 1 MB L2).
    pub cnt_bits: u32,
}

impl IncludeConfig {
    /// Default counter width used by the paper's storage table.
    pub const DEFAULT_CNT_BITS: u32 = 14;

    /// Creates a configuration with the paper's default 14-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 30, if `sub_arrays` is 0, or if
    /// `skip` is 0.
    pub fn new(index_bits: u32, sub_arrays: u32, skip: u32) -> Self {
        Self::with_cnt_bits(index_bits, sub_arrays, skip, Self::DEFAULT_CNT_BITS)
    }

    /// Creates a configuration with an explicit counter width.
    ///
    /// # Panics
    ///
    /// Same conditions as [`IncludeConfig::new`], plus `cnt_bits == 0`.
    pub fn with_cnt_bits(index_bits: u32, sub_arrays: u32, skip: u32, cnt_bits: u32) -> Self {
        assert!((1..=30).contains(&index_bits), "IJ index width must be 1..=30, got {index_bits}");
        assert!(sub_arrays > 0, "IJ needs at least one sub-array");
        assert!(skip > 0, "IJ index skip must be nonzero");
        assert!(cnt_bits > 0, "IJ counter width must be nonzero");
        Self { index_bits, sub_arrays, skip, cnt_bits }
    }

    /// Entries per sub-array (`2^E`).
    pub fn entries_per_array(&self) -> usize {
        1usize << self.index_bits
    }

    /// Paper-style label, e.g. `IJ-10x4x7`.
    pub fn label(&self) -> String {
        format!("IJ-{}x{}x{}", self.index_bits, self.sub_arrays, self.skip)
    }

    /// Organisation of one p-bit array as (rows, bits per row), mirroring
    /// Figure 3c / Table 4: columns are `max(16, 2^ceil(E/2))` so the array
    /// looks like a small register file.
    pub fn pbit_org(&self) -> (usize, usize) {
        let cols = (1usize << self.index_bits.div_ceil(2)).max(16).min(self.entries_per_array());
        let rows = self.entries_per_array() / cols;
        (rows.max(1), cols)
    }

    /// Total p-bit storage across all sub-arrays, in bits.
    pub fn pbit_storage_bits(&self) -> usize {
        self.sub_arrays as usize * self.entries_per_array()
    }

    /// Total counter storage across all sub-arrays, in bits.
    pub fn cnt_storage_bits(&self) -> usize {
        self.sub_arrays as usize * self.entries_per_array() * self.cnt_bits as usize
    }

    /// Total storage (p-bits + counters) in bytes, the Table 4 figure.
    pub fn storage_bytes(&self) -> usize {
        (self.pbit_storage_bits() + self.cnt_storage_bits()).div_ceil(8)
    }
}

/// The Include-Jetty filter. See the module docs.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, IncludeConfig, IncludeJetty, SnoopFilter, UnitAddr, Verdict};
///
/// let mut ij = IncludeJetty::new(IncludeConfig::new(8, 4, 7), AddrSpace::default());
/// let unit = UnitAddr::new(0xBEEF);
///
/// // Empty cache: every snoop is filtered.
/// assert_eq!(ij.probe(unit), Verdict::NotCached);
/// // Once the unit is cached the filter must let snoops through.
/// ij.on_allocate(unit);
/// assert_eq!(ij.probe(unit), Verdict::MaybeCached);
/// // And after eviction it filters again.
/// ij.on_deallocate(unit);
/// assert_eq!(ij.probe(unit), Verdict::NotCached);
/// ```
#[derive(Clone)]
pub struct IncludeJetty {
    config: IncludeConfig,
    space: AddrSpace,
    /// Exact per-entry populations; `p-bit == (count > 0)`. One contiguous
    /// array for all sub-arrays: sub-array `i` occupies
    /// `counts[i << index_bits .. (i + 1) << index_bits]`. `u16` is
    /// sufficient: a counter is bounded by the L2 population (32768 units
    /// for the paper's 1 MB L2), and halving the counter footprint keeps
    /// more of the allocate/deallocate working set cache-resident.
    counts: Vec<u16>,
    /// Packed presence bits mirroring `counts` (bit set ⇔ count > 0),
    /// 64 entries per word, same sub-array-major order. Snoops probe only
    /// this bitmap — it is the software twin of the paper's separate p-bit
    /// arrays (Figure 3c): the whole bank's p-bits stay cache-resident
    /// while the big counter arrays are touched only by (much rarer)
    /// allocate/deallocate traffic.
    pbits: Vec<u64>,
    /// Per-sub-array p-bit write counts returned by the replay kernel
    /// (one slot per sub-array, zeroed before each call).
    scratch_writes: Vec<u64>,
    /// Allocate events since the last reset. Every allocate performs
    /// exactly one counter read-modify-write per sub-array, so that
    /// uniform activity is derived in `activity()` instead of bumped per
    /// event (same deferral as the per-probe p-bit reads).
    allocates: u64,
    /// Deallocate events since the last reset (same uniform-charge
    /// deferral as `allocates`).
    deallocates: u64,
    activity: FilterActivity,
}

impl fmt::Debug for IncludeJetty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncludeJetty")
            .field("config", &self.config)
            .field("probes", &self.activity.probes)
            .field("filtered", &self.activity.filtered)
            .finish()
    }
}

impl IncludeJetty {
    /// Creates an Include-Jetty for the given address space.
    ///
    /// The filter starts empty (all p-bits clear), matching an empty cache.
    pub fn new(config: IncludeConfig, space: AddrSpace) -> Self {
        let entries = config.sub_arrays as usize * config.entries_per_array();
        let counts = vec![0u16; entries];
        let pbits = vec![0u64; entries.div_ceil(64)];
        let arrays = Self::array_count(&config);
        Self {
            config,
            space,
            counts,
            pbits,
            scratch_writes: vec![0u64; config.sub_arrays as usize],
            allocates: 0,
            deallocates: 0,
            activity: FilterActivity::with_arrays(arrays),
        }
    }

    fn array_count(config: &IncludeConfig) -> usize {
        // One p-bit array and one cnt array per sub-array, interleaved:
        // [pbit0, cnt0, pbit1, cnt1, ...].
        2 * config.sub_arrays as usize
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> IncludeConfig {
        self.config
    }

    /// The address space this filter indexes.
    pub fn space(&self) -> AddrSpace {
        self.space
    }

    /// Index into sub-array `i` for `addr`: bits `[i*skip, i*skip + E)`.
    pub fn index(&self, i: u32, addr: UnitAddr) -> usize {
        addr.bits(i * self.config.skip, self.config.index_bits) as usize
    }

    /// Current population count of entry `idx` in sub-array `i` (test/debug
    /// aid; real hardware stores `count - 1` plus the p-bit).
    pub fn count(&self, i: u32, idx: usize) -> u32 {
        u32::from(self.counts[self.flat_slot(i, idx)])
    }

    /// Flat index of entry `idx` in sub-array `i`.
    fn flat_slot(&self, i: u32, idx: usize) -> usize {
        ((i as usize) << self.config.index_bits) | idx
    }

    fn pbit_slot(i: u32) -> usize {
        2 * i as usize
    }

    fn cnt_slot(i: u32) -> usize {
        2 * i as usize + 1
    }

    /// Whether every unit of `addr`'s block is guaranteed absent — the
    /// eager-ablation hybrid's test for recording an IJ-filtered snoop at
    /// block grain. Units are tested in address order, each reading its
    /// sub-arrays' p-bits up to the first clear one, and the test stops at
    /// the first unit that may be cached. With `charge` set, those p-bit
    /// reads are added to this filter's activity; no snoop probe is
    /// counted either way.
    pub(crate) fn block_absent(&mut self, addr: UnitAddr, charge: bool) -> bool {
        let block_units = 1u64 << self.space.block_unit_shift();
        let base = addr.raw() & !(block_units - 1);
        let IncludeConfig { index_bits, sub_arrays, skip, .. } = self.config;
        for off in 0..block_units {
            let clear =
                kernels::first_clear_pbit(&self.pbits, base | off, index_bits, sub_arrays, skip);
            if charge {
                let read = clear.map_or(sub_arrays, |i| i + 1);
                for i in 0..read {
                    self.activity.arrays[Self::pbit_slot(i)].reads += 1;
                }
            }
            if clear.is_none() {
                return false;
            }
        }
        true
    }

    /// Replays one [`FilterEvent`] chunk through a single
    /// [`kernels::ij_replay`] call, as-is (no gather pass): snoops test
    /// the packed p-bit bitmap, allocate/deallocate counter
    /// read-modify-writes run in event order inside the kernel. With
    /// `verdicts: Some`, one verdict per event is pushed (cleared first;
    /// `true` only for IJ-filtered snoops — the hybrid's EJ pass consumes
    /// the parallel slice); the standalone path passes `None` and skips
    /// the recording. The kernel's counters fold into this filter's
    /// activity: probe and counter-RMW counts are uniform charges, the
    /// data-dependent per-sub-array p-bit writes come back through
    /// `scratch_writes`. The caller owns the unsafe-filter panic.
    pub(crate) fn replay_events(
        &mut self,
        events: &[FilterEvent],
        mut verdicts: Option<&mut Vec<bool>>,
    ) -> kernels::IjReplayOut {
        if let Some(v) = verdicts.as_deref_mut() {
            v.clear();
        }
        self.scratch_writes.fill(0);
        let out = kernels::ij_replay(
            &mut self.counts,
            &mut self.pbits,
            self.config.index_bits,
            self.config.sub_arrays,
            self.config.skip,
            events,
            verdicts,
            &mut self.scratch_writes,
        );
        for i in 0..self.config.sub_arrays {
            self.activity.arrays[Self::pbit_slot(i)].writes += self.scratch_writes[i as usize];
        }
        self.allocates += out.allocates;
        self.deallocates += out.deallocates;
        self.activity.probes += out.probes;
        self.activity.filtered += out.filtered;
        out
    }
}

impl SnoopFilter for IncludeJetty {
    fn apply_batch(&mut self, events: &[FilterEvent], node: usize) -> u64 {
        // A snoop reads one row of each p-bit array, in parallel; that
        // uniform read is derived from `probes` in `activity()`, which
        // also lets the kernel exit on the first clear p-bit (the energy
        // charge stays N reads regardless). Standalone IJ needs no
        // per-event verdicts — only the hybrid's EJ pass consumes them.
        let out = self.replay_events(events, None);
        filter::assert_safe(self, events, out.unsafe_at, node);
        out.filtered
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        let (rows, cols) = self.config.pbit_org();
        let mut specs = Vec::with_capacity(Self::array_count(&self.config));
        for i in 0..self.config.sub_arrays {
            specs.push(ArraySpec::sram(format!("ij.pbits[{i}]"), rows, cols));
            // Counter arrays use the same row organisation, cnt_bits wide
            // per entry (Figure 3c shows cnt arrays mirroring the p-bit
            // organisation).
            specs.push(ArraySpec::sram(
                format!("ij.cnt[{i}]"),
                self.config.entries_per_array(),
                self.config.cnt_bits as usize,
            ));
        }
        specs
    }

    fn activity(&self) -> FilterActivity {
        // Materialise the uniform charges deferred on the hot paths: one
        // p-bit read per array per probe, one counter read-modify-write per
        // array per allocate/deallocate.
        let mut activity = self.activity.clone();
        let cnt_rmw = self.allocates + self.deallocates;
        for i in 0..self.config.sub_arrays {
            activity.arrays[Self::pbit_slot(i)].reads += activity.probes;
            activity.arrays[Self::cnt_slot(i)].reads += cnt_rmw;
            activity.arrays[Self::cnt_slot(i)].writes += cnt_rmw;
        }
        activity
    }

    fn reset_activity(&mut self) {
        self.allocates = 0;
        self.deallocates = 0;
        self.activity = FilterActivity::with_arrays(Self::array_count(&self.config));
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::snoop_miss;
    use crate::{MissScope, Verdict};

    fn ij(e: u32, n: u32, s: u32) -> IncludeJetty {
        IncludeJetty::new(IncludeConfig::new(e, n, s), AddrSpace::default())
    }

    #[test]
    fn empty_filter_filters_everything() {
        let mut f = ij(8, 4, 7);
        for a in [0u64, 1, 0xffff, 0x7_ffff_ffff] {
            assert_eq!(f.probe(UnitAddr::new(a)), Verdict::NotCached);
        }
        assert_eq!(f.activity().filtered, 4);
    }

    #[test]
    fn allocated_unit_is_never_filtered() {
        let mut f = ij(8, 4, 7);
        let u = UnitAddr::new(0x1234_5678);
        f.on_allocate(u);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn deallocate_restores_filtering() {
        let mut f = ij(8, 4, 7);
        let u = UnitAddr::new(42);
        f.on_allocate(u);
        f.on_deallocate(u);
        assert_eq!(f.probe(u), Verdict::NotCached);
    }

    #[test]
    fn duplicate_allocations_need_matching_deallocations() {
        let mut f = ij(6, 5, 6);
        let a = UnitAddr::new(0x10);
        let b = UnitAddr::new(0x10 + (1 << 31)); // differs only in high bits
        f.on_allocate(a);
        f.on_allocate(b);
        f.on_deallocate(a);
        // `b` still pins some shared entries; b must not be filtered.
        assert_eq!(f.probe(b), Verdict::MaybeCached);
        f.on_deallocate(b);
        assert_eq!(f.probe(b), Verdict::NotCached);
    }

    #[test]
    fn aliasing_gives_false_maybe_but_never_false_not_cached() {
        // Two addresses with identical low 32 bits alias in every sub-array
        // of IJ-8x4x7 (highest slice tops out at bit 29).
        let mut f = ij(8, 4, 7);
        let cached = UnitAddr::new(0xABCD_1234);
        let alias = UnitAddr::new(0xABCD_1234 | (1 << 34));
        f.on_allocate(cached);
        // The alias is a false positive: MaybeCached (safe, just not useful).
        assert_eq!(f.probe(alias), Verdict::MaybeCached);
    }

    #[test]
    fn counts_track_population_exactly() {
        let mut f = ij(4, 2, 3);
        let u = UnitAddr::new(0b101_0110);
        f.on_allocate(u);
        f.on_allocate(u);
        assert_eq!(f.count(0, f.index(0, u)), 2);
        f.on_deallocate(u);
        assert_eq!(f.count(0, f.index(0, u)), 1);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    #[should_panic(expected = "counter underflow")]
    fn deallocate_on_empty_panics() {
        let mut f = ij(4, 2, 3);
        f.on_deallocate(UnitAddr::new(1));
    }

    #[test]
    fn record_snoop_miss_is_inert() {
        let mut f = ij(8, 4, 7);
        let u = UnitAddr::new(77);
        f.on_allocate(u);
        snoop_miss(&mut f, u, MissScope::Block);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn index_slices_follow_paper_layout() {
        let f = ij(10, 4, 7);
        // Address with a distinctive bit pattern: bit k set iff k % 7 == 0.
        let mut raw = 0u64;
        for k in (0..35).step_by(7) {
            raw |= 1 << k;
        }
        let u = UnitAddr::new(raw);
        for i in 0..4u32 {
            let expected = UnitAddr::new(raw).bits(i * 7, 10) as usize;
            assert_eq!(f.index(i, u), expected);
        }
    }

    #[test]
    fn overlapping_indices_share_bits() {
        // skip(7) < E(10): consecutive slices overlap by 3 bits.
        let f = ij(10, 2, 7);
        let u = UnitAddr::new(0b11_1111_1111 << 7); // bits 7..17 set
        assert_eq!(f.index(1, u), 0b11_1111_1111);
        assert_eq!(f.index(0, u), 0b111_0000000);
    }

    #[test]
    fn storage_matches_table4_for_large_configs() {
        // Table 4: IJ-10x4x7 p-bits 4x1024 organised 4 x (32x32); total
        // 7168 bytes with 14-bit counters.
        let c = IncludeConfig::new(10, 4, 7);
        assert_eq!(c.pbit_storage_bits(), 4 * 1024);
        assert_eq!(c.pbit_org(), (32, 32));
        assert_eq!(c.storage_bytes(), 7168 + 4 * 1024 / 8); // cnt + p-bits

        let c9 = IncludeConfig::new(9, 4, 7);
        assert_eq!(c9.pbit_org(), (16, 32));
        let c8 = IncludeConfig::new(8, 4, 7);
        assert_eq!(c8.pbit_org(), (16, 16));
        let c7 = IncludeConfig::new(7, 5, 6);
        assert_eq!(c7.pbit_org(), (8, 16));
        let c6 = IncludeConfig::new(6, 5, 6);
        assert_eq!(c6.pbit_org(), (4, 16));
    }

    #[test]
    fn probe_touches_only_pbit_arrays() {
        let mut f = ij(8, 4, 7);
        f.probe(UnitAddr::new(1));
        let act = f.activity();
        for i in 0..4u32 {
            assert_eq!(act.arrays[2 * i as usize].reads, 1, "p-bit array {i}");
            assert_eq!(act.arrays[2 * i as usize + 1].total(), 0, "cnt array {i}");
        }
    }

    #[test]
    fn allocate_touches_cnt_arrays_and_sets_pbits() {
        let mut f = ij(8, 4, 7);
        f.on_allocate(UnitAddr::new(3));
        let act = f.activity();
        for i in 0..4u32 {
            assert_eq!(act.arrays[2 * i as usize + 1].reads, 1);
            assert_eq!(act.arrays[2 * i as usize + 1].writes, 1);
            assert_eq!(act.arrays[2 * i as usize].writes, 1); // 0 -> 1
        }
        // Second allocate to the same entries: no p-bit writes.
        f.reset_activity();
        f.on_allocate(UnitAddr::new(3));
        let act = f.activity();
        for i in 0..4u32 {
            assert_eq!(act.arrays[2 * i as usize].writes, 0);
        }
    }

    #[test]
    fn name_label() {
        assert_eq!(ij(9, 4, 7).name(), "IJ-9x4x7");
        assert_eq!(ij(6, 5, 6).name(), "IJ-6x5x6");
    }

    #[test]
    fn smaller_config_aliases_more() {
        // With many random allocations, a small IJ should filter fewer
        // snoops to absent addresses than a large one (superset is coarser).
        let mut big = ij(10, 4, 7);
        let mut small = ij(6, 5, 6);
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 0x7_FFFF_FFFF
        };
        for _ in 0..256 {
            let u = UnitAddr::new(next());
            big.on_allocate(u);
            small.on_allocate(u);
        }
        let mut big_filtered = 0;
        let mut small_filtered = 0;
        for _ in 0..2000 {
            let u = UnitAddr::new(next());
            if big.probe(u).is_filtered() {
                big_filtered += 1;
            }
            if small.probe(u).is_filtered() {
                small_filtered += 1;
            }
        }
        assert!(
            big_filtered > small_filtered,
            "expected the larger IJ to filter more ({big_filtered} vs {small_filtered})"
        );
    }
}
