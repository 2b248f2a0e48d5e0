//! Direct-mapped, subblocked L2 cache with per-subblock MOESI state.
//!
//! The tag array holds one tag per block; each block carries one MOESI
//! state per subblock (two 32-byte subblocks per 64-byte block in the
//! paper's configuration). Subblocking halves the tag array at the cost of
//! extra misses when neighbouring subblocks are absent — which is exactly
//! the snoop-locality the Exclude-Jetty feeds on.
//!
//! Each subblock also carries a data *version* used by the coherence
//! checker: stores stamp the unit with a fresh global version, and fills
//! copy the supplier's version, so any stale read is caught immediately.
//!
//! # Storage layout (hot path)
//!
//! The simulator probes this structure on every snoop of every bus
//! transaction, so everything a snoop probe reads is packed into **one
//! 16-byte record per block**: a flat `hot` array of `u128` whose low 64
//! bits hold the block tag and whose high 64 bits hold the *meta* word —
//! the packed valid bitmask in bits `0..8` (bit `sub` set ⇔ subblock
//! `sub` valid) and one 4-bit MOESI nibble per subblock at bits
//! `8 + 4*sub`. A snoop probe is then a single load touching a single
//! cache line (four records per 64-byte line), answering tag match,
//! block presence, subblock validity *and* the coherence state at once;
//! the previous layout split tags, valid masks and states across three
//! arrays and three cache lines. Only the checker-support data *version*
//! stays cold, in a flat `versions` array indexed
//! `block * subblocks + sub` — the protocol hot path never reads it on a
//! filtered snoop. The invariants — valid bit set ⇔ the state nibble
//! encodes a valid MOESI state, valid bit clear ⇒ nibble is 0 and
//! `versions[u] == 0` — are maintained by every mutation below.
//!
//! The 8-bit valid mask bounds `subblocks` to 8 (the paper uses 2, the
//! NSB variant 1), and the nibble field encodes only *valid* states:
//! `Invalid` is represented by a clear valid bit, never by a nibble.

use jetty_core::UnitAddr;

use crate::config::L2Config;
use crate::moesi::Moesi;

/// Low 8 bits of a hot record's meta half: the packed valid bitmask
/// (bit `sub` ⇔ subblock `sub` valid).
const META_VALID_MASK: u64 = 0xFF;

/// Packs a valid MOESI state into its 4-bit hot-record nibble.
fn state_nibble(state: Moesi) -> u64 {
    match state {
        Moesi::Modified => 0,
        Moesi::Owned => 1,
        Moesi::Exclusive => 2,
        Moesi::Shared => 3,
        Moesi::Invalid => unreachable!("Invalid is a clear valid bit, never a nibble"),
    }
}

/// Unpacks a hot-record state nibble (only called under a set valid bit).
/// Valid nibbles are 0..=3, so a 2-bit mask into a const table decodes
/// without a reachable panic path — the bounds check folds away.
fn nibble_state(nibble: u64) -> Moesi {
    const STATES: [Moesi; 4] = [Moesi::Modified, Moesi::Owned, Moesi::Exclusive, Moesi::Shared];
    STATES[(nibble & 0x3) as usize]
}

/// Bit offset of subblock `sub`'s state nibble within the meta word.
fn nibble_shift(sub: usize) -> u32 {
    8 + 4 * sub as u32
}

/// A valid subblock displaced by a block eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedUnit {
    /// The displaced coherence unit.
    pub unit: UnitAddr,
    /// Its state at eviction (decides whether a writeback is needed).
    pub state: Moesi,
    /// Its data version (checker support).
    pub version: u64,
}

/// Direct-mapped subblocked L2 cache (compacted hot-record storage; see
/// the module docs for the layout and its invariants).
#[derive(Clone, Debug)]
pub struct L2Cache {
    /// Per-block hot record: tag in the low 64 bits; valid bitmask and
    /// packed state nibbles in the high 64 (the meta word).
    hot: Vec<u128>,
    /// Per-subblock data version (checker support), indexed
    /// `block * subblocks + sub` — cold: never read on the probe path.
    versions: Vec<u64>,
    subblocks: usize,
    sub_mask: u64,
    sub_bits: u32,
    index_mask: u64,
    index_bits: u32,
}

impl L2Cache {
    /// Creates an empty L2.
    pub fn new(config: L2Config) -> Self {
        let blocks = config.blocks();
        let subblocks = config.subblocks;
        assert!(subblocks <= 8, "packed hot records hold at most 8 subblocks per block");
        Self {
            hot: vec![0; blocks],
            versions: vec![0; blocks * subblocks],
            subblocks,
            sub_mask: subblocks as u64 - 1,
            sub_bits: subblocks.trailing_zeros(),
            index_mask: blocks as u64 - 1,
            index_bits: blocks.trailing_zeros(),
        }
    }

    /// Number of blocks in the hot array.
    fn blocks(&self) -> usize {
        self.hot.len()
    }

    /// The meta word (valid mask + state nibbles) of block `idx`.
    fn meta(&self, idx: usize) -> u64 {
        (self.hot[idx] >> 64) as u64
    }

    /// The tag of block `idx`.
    fn tag(&self, idx: usize) -> u64 {
        self.hot[idx] as u64
    }

    /// Overwrites the meta word of block `idx`, leaving the tag.
    fn set_meta(&mut self, idx: usize, meta: u64) {
        self.hot[idx] = (self.hot[idx] & u64::MAX as u128) | ((meta as u128) << 64);
    }

    /// Splits a unit address into (block index, block tag, subblock index).
    fn split(&self, unit: UnitAddr) -> (usize, u64, usize) {
        let sub = (unit.raw() & self.sub_mask) as usize;
        let block_addr = unit.raw() >> self.sub_bits;
        let idx = (block_addr & self.index_mask) as usize;
        let tag = block_addr >> self.index_bits;
        (idx, tag, sub)
    }

    fn unit_addr(&self, idx: usize, tag: u64, sub: usize) -> UnitAddr {
        UnitAddr::new((((tag << self.index_bits) | idx as u64) << self.sub_bits) | sub as u64)
    }

    /// Flat index of `(idx, sub)` into `versions`.
    fn slot(&self, idx: usize, sub: usize) -> usize {
        (idx << self.sub_bits) | sub
    }

    /// `true` when `unit`'s subblock is valid under a matching tag.
    fn is_present(&self, idx: usize, tag: u64, sub: usize) -> bool {
        let rec = self.hot[idx];
        ((rec >> 64) as u64) & (1u64 << sub) != 0 && rec as u64 == tag
    }

    /// MOESI state of `unit` (`Invalid` when absent or tag mismatch).
    pub fn state(&self, unit: UnitAddr) -> Moesi {
        let (idx, tag, sub) = self.split(unit);
        let rec = self.hot[idx];
        let meta = (rec >> 64) as u64;
        if meta & (1u64 << sub) != 0 && rec as u64 == tag {
            nibble_state(meta >> nibble_shift(sub))
        } else {
            Moesi::Invalid
        }
    }

    /// `true` when the resident block's tag matches `unit`'s block and at
    /// least one subblock is valid (a snoop miss with `block_present` is a
    /// *partial* miss — the tag matched but the snooped subblock is
    /// invalid, so exclude filters must not record the whole block).
    pub fn block_present(&self, unit: UnitAddr) -> bool {
        let (idx, tag, _) = self.split(unit);
        let rec = self.hot[idx];
        ((rec >> 64) as u64) & META_VALID_MASK != 0 && rec as u64 == tag
    }

    /// One-shot snoop probe: `(state, block_present)` from a single
    /// address split and one 16-byte hot-record load (the bus delivers
    /// both questions for every snoop, and the packed state nibble means
    /// even the state answer costs no second array read).
    pub fn snoop_probe(&self, unit: UnitAddr) -> (Moesi, bool) {
        let (idx, tag, sub) = self.split(unit);
        let rec = self.hot[idx];
        let meta = (rec >> 64) as u64;
        let mask = meta & META_VALID_MASK;
        let block_present = mask != 0 && rec as u64 == tag;
        let state = if block_present && mask & (1u64 << sub) != 0 {
            nibble_state(meta >> nibble_shift(sub))
        } else {
            Moesi::Invalid
        };
        (state, block_present)
    }

    /// Data version of `unit`; 0 when absent.
    pub fn version(&self, unit: UnitAddr) -> u64 {
        let (idx, tag, sub) = self.split(unit);
        // An invalid subblock always holds version 0 (module invariant), so
        // gating on the subblock's own valid bit matches the historical
        // "any subblock valid and tag matches" behaviour exactly.
        if self.is_present(idx, tag, sub) {
            self.versions[self.slot(idx, sub)]
        } else {
            0
        }
    }

    /// Sets the MOESI state of a present unit.
    ///
    /// # Panics
    ///
    /// Panics if the unit is absent (tag mismatch) — state changes to
    /// absent units are protocol bugs.
    pub fn set_state(&mut self, unit: UnitAddr, state: Moesi) {
        // Invalidation must go through `invalidate` — writing `Invalid`
        // here would desynchronise the valid bitmask from the nibbles.
        assert!(state.is_valid(), "set_state with Invalid (use invalidate)");
        let (idx, tag, sub) = self.split(unit);
        assert!(self.is_present(idx, tag, sub), "set_state on absent unit {unit}");
        let sh = nibble_shift(sub);
        let meta = (self.meta(idx) & !(0xF << sh)) | (state_nibble(state) << sh);
        self.set_meta(idx, meta);
    }

    /// Stamps a present unit with a new data version (store completion).
    ///
    /// # Panics
    ///
    /// Panics if the unit is absent.
    pub fn set_version(&mut self, unit: UnitAddr, version: u64) {
        let (idx, tag, sub) = self.split(unit);
        assert!(self.is_present(idx, tag, sub), "set_version on absent unit {unit}");
        let slot = self.slot(idx, sub);
        self.versions[slot] = version;
    }

    /// Invalidates a present unit (snoop invalidation), returning its state
    /// and version just before.
    ///
    /// # Panics
    ///
    /// Panics if the unit is absent.
    pub fn invalidate(&mut self, unit: UnitAddr) -> (Moesi, u64) {
        let (idx, tag, sub) = self.split(unit);
        assert!(self.is_present(idx, tag, sub), "invalidate on absent unit {unit}");
        let slot = self.slot(idx, sub);
        let meta = self.meta(idx);
        let sh = nibble_shift(sub);
        let prior = (nibble_state(meta >> sh), self.versions[slot]);
        self.versions[slot] = 0;
        // Clear the valid bit and zero the nibble (module invariant).
        self.set_meta(idx, meta & !(1u64 << sub) & !(0xF << sh));
        prior
    }

    /// Fills `unit` with `state`/`version`, pushing the valid units evicted
    /// to make room onto `evicted` (the buffer is cleared first): when the
    /// resident block's tag differs, the *whole* block (every valid
    /// subblock) is displaced. A fill into a matching resident block evicts
    /// nothing.
    ///
    /// The caller threads one scratch buffer through all fills, so the
    /// steady state allocates nothing (the buffer's capacity saturates at
    /// `subblocks` after the first conflict eviction).
    ///
    /// # Panics
    ///
    /// Panics when filling a unit that is already valid (the protocol only
    /// fills on misses) or with an `Invalid` state.
    pub fn fill_into(
        &mut self,
        unit: UnitAddr,
        state: Moesi,
        version: u64,
        evicted: &mut Vec<EvictedUnit>,
    ) {
        assert!(state.is_valid(), "fill with Invalid state");
        evicted.clear();
        let (idx, tag, sub) = self.split(unit);
        let meta = self.meta(idx);
        let victim_tag = self.tag(idx);
        if meta & META_VALID_MASK != 0 && victim_tag != tag {
            let mut mask = meta & META_VALID_MASK;
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let slot = self.slot(idx, s);
                evicted.push(EvictedUnit {
                    unit: self.unit_addr(idx, victim_tag, s),
                    state: nibble_state(meta >> nibble_shift(s)),
                    version: self.versions[slot],
                });
                self.versions[slot] = 0;
            }
            self.hot[idx] = 0;
        }
        assert!(!self.is_present(idx, tag, sub), "fill of already-valid unit {unit}");
        let slot = self.slot(idx, sub);
        let sh = nibble_shift(sub);
        let new_meta =
            (self.meta(idx) & !(0xF << sh)) | (1u64 << sub) | (state_nibble(state) << sh);
        self.hot[idx] = tag as u128 | ((new_meta as u128) << 64);
        self.versions[slot] = version;
    }

    /// Iterates over all valid units with their states (checker aid).
    pub fn valid_units(&self) -> impl Iterator<Item = (UnitAddr, Moesi)> + '_ {
        (0..self.blocks()).flat_map(move |idx| {
            let tag = self.tag(idx);
            let meta = self.meta(idx);
            (0..self.subblocks).filter(move |&sub| meta & (1u64 << sub) != 0).map(move |sub| {
                (self.unit_addr(idx, tag, sub), nibble_state(meta >> nibble_shift(sub)))
            })
        })
    }

    /// Number of valid units currently cached.
    pub fn population(&self) -> usize {
        self.hot
            .iter()
            .map(|&rec| (((rec >> 64) as u64) & META_VALID_MASK).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fills `unit` and returns the units the fill evicted.
    fn fill(l2: &mut L2Cache, unit: UnitAddr, state: Moesi, version: u64) -> Vec<EvictedUnit> {
        let mut evicted = Vec::new();
        l2.fill_into(unit, state, version, &mut evicted);
        evicted
    }

    fn small() -> L2Cache {
        // 4 blocks of 64 bytes, 2 subblocks each.
        L2Cache::new(L2Config::new(256, 64, 2))
    }

    #[test]
    fn starts_empty() {
        let l2 = small();
        assert_eq!(l2.state(UnitAddr::new(0)), Moesi::Invalid);
        assert_eq!(l2.population(), 0);
    }

    #[test]
    fn fill_then_lookup() {
        let mut l2 = small();
        let u = UnitAddr::new(3);
        assert!(fill(&mut l2, u, Moesi::Exclusive, 7).is_empty());
        assert_eq!(l2.state(u), Moesi::Exclusive);
        assert_eq!(l2.version(u), 7);
        assert_eq!(l2.population(), 1);
    }

    #[test]
    fn sibling_subblocks_share_a_tag() {
        let mut l2 = small();
        // Units 8 and 9 are the two subblocks of block 4 (idx 0, tag 1).
        let a = UnitAddr::new(8);
        let b = UnitAddr::new(9);
        assert!(fill(&mut l2, a, Moesi::Shared, 1).is_empty());
        assert!(fill(&mut l2, b, Moesi::Modified, 2).is_empty());
        assert_eq!(l2.state(a), Moesi::Shared);
        assert_eq!(l2.state(b), Moesi::Modified);
    }

    #[test]
    fn one_subblock_valid_means_other_misses() {
        let mut l2 = small();
        let a = UnitAddr::new(8);
        fill(&mut l2, a, Moesi::Shared, 1);
        // Sibling subblock: tag matches but state is Invalid -> miss.
        assert_eq!(l2.state(UnitAddr::new(9)), Moesi::Invalid);
    }

    #[test]
    fn conflicting_block_evicts_all_valid_subblocks() {
        let mut l2 = small();
        // Block addr 0 (units 0,1) and block addr 4 (units 8,9) share idx 0.
        fill(&mut l2, UnitAddr::new(0), Moesi::Modified, 3);
        fill(&mut l2, UnitAddr::new(1), Moesi::Shared, 4);
        let evicted = fill(&mut l2, UnitAddr::new(8), Moesi::Exclusive, 5);
        assert_eq!(evicted.len(), 2);
        assert!(evicted.contains(&EvictedUnit {
            unit: UnitAddr::new(0),
            state: Moesi::Modified,
            version: 3
        }));
        assert!(evicted.contains(&EvictedUnit {
            unit: UnitAddr::new(1),
            state: Moesi::Shared,
            version: 4
        }));
        assert_eq!(l2.state(UnitAddr::new(0)), Moesi::Invalid);
        assert_eq!(l2.state(UnitAddr::new(8)), Moesi::Exclusive);
    }

    #[test]
    fn fill_into_reuses_the_scratch_buffer() {
        let mut l2 = small();
        let mut scratch = Vec::new();
        l2.fill_into(UnitAddr::new(0), Moesi::Modified, 1, &mut scratch);
        assert!(scratch.is_empty());
        l2.fill_into(UnitAddr::new(1), Moesi::Shared, 2, &mut scratch);
        assert!(scratch.is_empty());
        // Conflict: both subblocks land in the scratch buffer...
        l2.fill_into(UnitAddr::new(8), Moesi::Exclusive, 3, &mut scratch);
        assert_eq!(scratch.len(), 2);
        let cap = scratch.capacity();
        // ...and the next conflict reuses the same allocation.
        l2.fill_into(UnitAddr::new(16), Moesi::Exclusive, 4, &mut scratch);
        assert_eq!(scratch.len(), 1);
        assert_eq!(scratch.capacity(), cap);
        assert_eq!(scratch[0].unit, UnitAddr::new(8));
    }

    #[test]
    fn invalidate_returns_prior_state() {
        let mut l2 = small();
        let u = UnitAddr::new(2);
        fill(&mut l2, u, Moesi::Owned, 9);
        assert_eq!(l2.invalidate(u), (Moesi::Owned, 9));
        assert_eq!(l2.state(u), Moesi::Invalid);
    }

    #[test]
    #[should_panic(expected = "absent unit")]
    fn invalidate_absent_panics() {
        let mut l2 = small();
        l2.invalidate(UnitAddr::new(1));
    }

    #[test]
    #[should_panic(expected = "already-valid")]
    fn double_fill_panics() {
        let mut l2 = small();
        let u = UnitAddr::new(1);
        fill(&mut l2, u, Moesi::Shared, 0);
        fill(&mut l2, u, Moesi::Shared, 0);
    }

    #[test]
    fn set_state_transitions() {
        let mut l2 = small();
        let u = UnitAddr::new(6);
        fill(&mut l2, u, Moesi::Exclusive, 0);
        l2.set_state(u, Moesi::Modified);
        assert_eq!(l2.state(u), Moesi::Modified);
    }

    #[test]
    fn valid_units_enumerates_all() {
        let mut l2 = small();
        fill(&mut l2, UnitAddr::new(0), Moesi::Shared, 0);
        fill(&mut l2, UnitAddr::new(5), Moesi::Modified, 0);
        let mut got: Vec<(u64, Moesi)> = l2.valid_units().map(|(u, s)| (u.raw(), s)).collect();
        got.sort_unstable_by_key(|(u, _)| *u);
        assert_eq!(got, vec![(0, Moesi::Shared), (5, Moesi::Modified)]);
    }

    #[test]
    fn version_stamping() {
        let mut l2 = small();
        let u = UnitAddr::new(4);
        fill(&mut l2, u, Moesi::Exclusive, 1);
        l2.set_version(u, 42);
        assert_eq!(l2.version(u), 42);
        assert_eq!(l2.version(UnitAddr::new(5)), 0);
    }

    #[test]
    fn invalid_subblock_reports_version_zero() {
        // The version invariant behind the fast path: an invalid subblock
        // under a matching tag always answers 0, as the historical
        // tag-matched lookup did.
        let mut l2 = small();
        let u = UnitAddr::new(4);
        fill(&mut l2, u, Moesi::Modified, 9);
        assert_eq!(l2.version(UnitAddr::new(5)), 0, "sibling never filled");
        l2.invalidate(u);
        assert_eq!(l2.version(u), 0, "invalidated subblock");
    }

    #[test]
    fn nsb_configuration_evicts_single_unit() {
        // Non-subblocked: one subblock per block.
        let mut l2 = L2Cache::new(L2Config::new(256, 64, 1));
        fill(&mut l2, UnitAddr::new(0), Moesi::Modified, 1);
        let evicted = fill(&mut l2, UnitAddr::new(4), Moesi::Shared, 2);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].unit, UnitAddr::new(0));
    }

    #[test]
    fn paper_sized_l2_geometry() {
        let l2 = L2Cache::new(L2Config::default());
        assert_eq!(l2.blocks(), 16384);
        assert_eq!(l2.subblocks, 2);
        // One 16-byte hot record per block; versions stay per-subblock.
        assert_eq!(l2.hot.len(), 16384);
        assert_eq!(l2.versions.len(), 16384 * 2);
    }

    #[test]
    fn state_nibbles_round_trip() {
        for s in [Moesi::Modified, Moesi::Owned, Moesi::Exclusive, Moesi::Shared] {
            assert_eq!(nibble_state(state_nibble(s)), s);
        }
    }

    #[test]
    #[should_panic(expected = "at most 8 subblocks")]
    fn more_than_eight_subblocks_rejected() {
        let _ = L2Cache::new(L2Config::new(1024, 1024, 16));
    }
}
