//! System and cache configuration for the SMP substrate.

use jetty_core::AddrSpace;

use crate::protocol::ProtocolKind;

/// Geometry of a direct-mapped L1 data cache.
///
/// The paper's configuration (§4.1): 64 KB, 32-byte blocks, direct-mapped,
/// with the L1 block size equal to the L2 subblock size so inclusion is a
/// one-to-one mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Config {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Block size in bytes; must equal the L2 subblock size.
    pub block_bytes: usize,
}

impl L1Config {
    /// Creates an L1 configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` and `block_bytes` are powers of two with
    /// `block_bytes <= capacity`.
    pub fn new(capacity: usize, block_bytes: usize) -> Self {
        assert!(capacity.is_power_of_two(), "L1 capacity must be a power of two");
        assert!(block_bytes.is_power_of_two(), "L1 block size must be a power of two");
        assert!(block_bytes <= capacity, "L1 block larger than the cache");
        Self { capacity, block_bytes }
    }

    /// Number of blocks (also the number of sets: direct-mapped).
    pub fn blocks(&self) -> usize {
        self.capacity / self.block_bytes
    }

    /// log2 of the block size.
    pub fn block_shift(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }
}

impl Default for L1Config {
    fn default() -> Self {
        Self::new(64 * 1024, 32)
    }
}

/// Geometry of a direct-mapped, subblocked L2 cache.
///
/// The paper's configuration (§4.1): 1 MB, 64-byte blocks of two 32-byte
/// subblocks, direct-mapped, MOESI at subblock grain. Setting
/// `subblocks = 1` yields the non-subblocked ("NSB") variant the paper
/// summarises alongside the main results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Config {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Block (tag-granularity) size in bytes.
    pub block_bytes: usize,
    /// Subblocks per block (coherence grain = `block_bytes / subblocks`).
    pub subblocks: usize,
}

impl L2Config {
    /// Creates an L2 configuration.
    ///
    /// # Panics
    ///
    /// Panics unless all sizes are powers of two, `subblocks` divides the
    /// block evenly, and the block fits the cache.
    pub fn new(capacity: usize, block_bytes: usize, subblocks: usize) -> Self {
        assert!(capacity.is_power_of_two(), "L2 capacity must be a power of two");
        assert!(block_bytes.is_power_of_two(), "L2 block size must be a power of two");
        assert!(
            subblocks.is_power_of_two() && subblocks >= 1,
            "subblock count must be a power of two"
        );
        assert!(block_bytes / subblocks >= 1 && block_bytes.is_multiple_of(subblocks));
        assert!(block_bytes <= capacity, "L2 block larger than the cache");
        Self { capacity, block_bytes, subblocks }
    }

    /// Number of blocks (= sets, direct-mapped).
    pub fn blocks(&self) -> usize {
        self.capacity / self.block_bytes
    }

    /// Subblock (coherence unit) size in bytes.
    pub fn subblock_bytes(&self) -> usize {
        self.block_bytes / self.subblocks
    }

    /// log2 of the block size.
    pub fn block_shift(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// log2 of the subblock size.
    pub fn subblock_shift(&self) -> u32 {
        self.subblock_bytes().trailing_zeros()
    }

    /// Total coherence units the cache can hold.
    pub fn units(&self) -> usize {
        self.blocks() * self.subblocks
    }
}

impl Default for L2Config {
    fn default() -> Self {
        Self::new(1024 * 1024, 64, 2)
    }
}

/// How much runtime verification the system performs.
///
/// The level only adds protocol checkers; it never changes how filters
/// run. The checkers read caches and versions, never filter state, so a
/// checked run logs and replays filter events per chunk exactly like an
/// unchecked one, and the filter-safety assertion fires at every level —
/// at the chunk flush, with the offending filter, unit and node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckLevel {
    /// No extra checking (fastest; filter-safety asserts stay on — they are
    /// a single branch per replayed snoop and guard the paper's core
    /// requirement).
    Off,
    /// Full checking: version-based data coherence, MOESI invariants and
    /// L1/L2 inclusion are asserted after every transaction.
    #[default]
    Full,
}

impl CheckLevel {
    /// `true` when full checking is enabled.
    pub fn is_full(self) -> bool {
        self == CheckLevel::Full
    }
}

/// Configuration of the whole SMP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of processors on the bus.
    pub cpus: usize,
    /// Per-node L1 geometry.
    pub l1: L1Config,
    /// Per-node L2 geometry.
    pub l2: L2Config,
    /// Writeback-buffer entries per node.
    pub wb_entries: usize,
    /// Physical address geometry; `unit_shift` must equal the L2 subblock
    /// shift.
    pub addr: AddrSpace,
    /// Verification level.
    pub check: CheckLevel,
    /// Coherence protocol (the paper's platform is MOESI).
    pub protocol: ProtocolKind,
}

impl SystemConfig {
    /// The paper's base configuration: a 4-way SMP with 64 KB L1s, 1 MB
    /// subblocked L2s and an 8-entry writeback buffer, full checking on.
    pub fn paper_4way() -> Self {
        Self::default()
    }

    /// The paper's 8-way configuration (§4.3.4).
    pub fn paper_8way() -> Self {
        Self { cpus: 8, ..Self::default() }
    }

    /// The non-subblocked variant the paper summarises: 64-byte blocks with
    /// a single subblock, coherence at block grain.
    pub fn paper_4way_nsb() -> Self {
        let l2 = L2Config::new(1024 * 1024, 64, 1);
        let l1 = L1Config::new(64 * 1024, 64);
        let addr = AddrSpace::with_block_shift(40, 6, 6);
        Self { l1, l2, addr, ..Self::default() }
    }

    /// Disables runtime checking (for large experiment runs).
    pub fn without_checks(mut self) -> Self {
        self.check = CheckLevel::Off;
        self
    }

    /// Switches the coherence protocol (default: the paper's MOESI).
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics if the L1 block size differs from the L2 subblock size, if
    /// the address-space unit shift differs from the L2 subblock shift, if
    /// there are fewer than two CPUs, or if the writeback buffer is empty.
    pub fn validate(&self) {
        assert!(self.cpus >= 2, "an SMP needs at least two processors, got {}", self.cpus);
        assert_eq!(
            self.l1.block_bytes,
            self.l2.subblock_bytes(),
            "L1 block size must equal the L2 subblock size for 1:1 inclusion"
        );
        assert_eq!(
            self.addr.unit_shift(),
            self.l2.subblock_shift(),
            "address-space unit shift must match the L2 subblock shift"
        );
        assert_eq!(
            self.addr.block_shift(),
            self.l2.block_shift(),
            "address-space block shift must match the L2 block shift (exclude \
             filters record absence at tag granularity)"
        );
        assert!(self.wb_entries >= 1, "writeback buffer needs at least one entry");
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            cpus: 4,
            l1: L1Config::default(),
            l2: L2Config::default(),
            wb_entries: 8,
            addr: AddrSpace::default(),
            check: CheckLevel::Full,
            protocol: ProtocolKind::Moesi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SystemConfig::paper_4way();
        c.validate();
        assert_eq!(c.cpus, 4);
        assert_eq!(c.protocol, ProtocolKind::Moesi);
        assert_eq!(c.l1.blocks(), 2048);
        assert_eq!(c.l2.blocks(), 16384);
        assert_eq!(c.l2.subblock_bytes(), 32);
        assert_eq!(c.l2.units(), 32768);
        assert_eq!(c.addr.unit_bytes(), 32);
    }

    #[test]
    fn eight_way_variant() {
        let c = SystemConfig::paper_8way();
        c.validate();
        assert_eq!(c.cpus, 8);
    }

    #[test]
    fn nsb_variant_has_block_grain_coherence() {
        let c = SystemConfig::paper_4way_nsb();
        c.validate();
        assert_eq!(c.l2.subblocks, 1);
        assert_eq!(c.l2.subblock_bytes(), 64);
        assert_eq!(c.addr.unit_bytes(), 64);
    }

    #[test]
    fn without_checks() {
        let c = SystemConfig::paper_4way().without_checks();
        assert_eq!(c.check, CheckLevel::Off);
        assert!(!c.check.is_full());
    }

    #[test]
    fn with_protocol_switches_the_axis() {
        for kind in ProtocolKind::ALL {
            let c = SystemConfig::paper_4way().with_protocol(kind);
            c.validate();
            assert_eq!(c.protocol, kind);
        }
    }

    #[test]
    #[should_panic(expected = "1:1 inclusion")]
    fn validate_rejects_mismatched_grains() {
        let mut c = SystemConfig::paper_4way();
        c.l1 = L1Config::new(64 * 1024, 64);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least two processors")]
    fn validate_rejects_uniprocessor() {
        let mut c = SystemConfig::paper_4way();
        c.cpus = 1;
        c.validate();
    }

    #[test]
    fn l1_geometry() {
        let l1 = L1Config::new(64 * 1024, 32);
        assert_eq!(l1.blocks(), 2048);
        assert_eq!(l1.block_shift(), 5);
    }

    #[test]
    fn l2_geometry() {
        let l2 = L2Config::new(1024 * 1024, 64, 2);
        assert_eq!(l2.blocks(), 16384);
        assert_eq!(l2.block_shift(), 6);
        assert_eq!(l2.subblock_shift(), 5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn l2_rejects_odd_capacity() {
        let _ = L2Config::new(1000, 64, 2);
    }
}
