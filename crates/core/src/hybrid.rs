//! Hybrid-Jetty (HJ, paper §3.3): an Include-Jetty and an Exclude-Jetty
//! probed in parallel.
//!
//! The IJ holds aggregate information about what *is* cached; the EJ tracks
//! a small set of hot units that are *not* cached but that the IJ's coarse
//! superset cannot rule out. A snoop is filtered when **either** component
//! says "not cached" — the union of two safe guarantees is safe.
//!
//! To keep the EJ pointed at exactly the snoops the IJ cannot handle,
//! entries are allocated in the EJ only when the IJ failed to filter them:
//! a snoop miss is learned only when neither component filtered it (the
//! IJ's verdict gates the EJ's recording). Both components are probed in
//! parallel on every snoop to keep latency off the critical path, so both
//! always pay probe energy.

use std::fmt;
use std::slice;

use crate::addr::AddrSpace;
use crate::exclude::{ExcludeConfig, ExcludeJetty};
use crate::filter::{self, ArraySpec, FilterActivity, FilterEvent, MissScope, SnoopFilter};
use crate::include::{IncludeConfig, IncludeJetty};
use crate::kernels::ReplayOut;
use crate::vector_exclude::{VectorExcludeConfig, VectorExcludeJetty};

/// The exclude-side component of a hybrid: scalar or vectored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExcludePart {
    /// A plain [`ExcludeJetty`].
    Scalar(ExcludeConfig),
    /// A [`VectorExcludeJetty`].
    Vector(VectorExcludeConfig),
}

impl ExcludePart {
    /// Paper-style label of the component.
    pub fn label(&self) -> String {
        match self {
            ExcludePart::Scalar(c) => c.label(),
            ExcludePart::Vector(c) => c.label(),
        }
    }
}

impl From<ExcludeConfig> for ExcludePart {
    fn from(value: ExcludeConfig) -> Self {
        ExcludePart::Scalar(value)
    }
}

impl From<VectorExcludeConfig> for ExcludePart {
    fn from(value: VectorExcludeConfig) -> Self {
        ExcludePart::Vector(value)
    }
}

#[derive(Clone, Debug)]
enum ExcludeEngine {
    Scalar(ExcludeJetty),
    Vector(VectorExcludeJetty),
}

/// Statically dispatches one method call to the live exclude variant (the
/// replay paths must not pay a vtable hop inside the hybrid).
macro_rules! exclude_dispatch {
    ($self:expr, $f:ident ( $($arg:expr),* )) => {
        match $self {
            ExcludeEngine::Scalar(inner) => inner.$f($($arg),*),
            ExcludeEngine::Vector(inner) => inner.$f($($arg),*),
        }
    };
}

/// When the hybrid's exclude component learns about snoop misses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EjAllocation {
    /// The paper's policy: the EJ allocates only when the *whole* hybrid
    /// failed to filter (the IJ acts as a filter on EJ insertions,
    /// §3.3).
    #[default]
    Backup,
    /// Ablation variant: the EJ also allocates when the IJ alone filtered
    /// the snoop — a filtered snoop is a guaranteed miss, so this is safe,
    /// but it spends EJ capacity and write energy on snoops the IJ already
    /// handles.
    Eager,
}

/// Configuration for a [`HybridJetty`]: one IJ plus one EJ/VEJ.
///
/// # Examples
///
/// ```
/// use jetty_core::{ExcludeConfig, HybridConfig, IncludeConfig};
///
/// let cfg = HybridConfig::new(IncludeConfig::new(10, 4, 7), ExcludeConfig::new(32, 4));
/// assert_eq!(cfg.label(), "(IJ-10x4x7, EJ-32x4)");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HybridConfig {
    /// The include component.
    pub include: IncludeConfig,
    /// The exclude component.
    pub exclude: ExcludePart,
    /// EJ allocation policy (the paper uses [`EjAllocation::Backup`]).
    pub ej_allocation: EjAllocation,
}

impl HybridConfig {
    /// Creates a hybrid configuration with the paper's backup allocation
    /// policy.
    pub fn new(include: IncludeConfig, exclude: impl Into<ExcludePart>) -> Self {
        Self { include, exclude: exclude.into(), ej_allocation: EjAllocation::Backup }
    }

    /// Switches to the eager EJ-allocation ablation variant.
    pub fn with_eager_allocation(mut self) -> Self {
        self.ej_allocation = EjAllocation::Eager;
        self
    }

    /// Paper-style label, e.g. `(IJ-10x4x7, EJ-32x4)`; the eager ablation
    /// variant is suffixed `, eager`.
    pub fn label(&self) -> String {
        match self.ej_allocation {
            EjAllocation::Backup => format!("({}, {})", self.include.label(), self.exclude.label()),
            EjAllocation::Eager => {
                format!("({}, {}, eager)", self.include.label(), self.exclude.label())
            }
        }
    }
}

/// The exclude side of a hybrid together with the hybrid's own union
/// counters: everything a backup-policy hybrid holds beyond its IJ.
///
/// A [`HybridJetty`] owns one next to its IJ. A
/// [`FilterBank`](crate::FilterBank) whose hybrids share one IJ lane
/// holds one per hybrid and no private IJ, feeding every half the lane's
/// verdicts: [`ExcludeHalf::replay_backup`] is the one EJ/VEJ pass of the
/// backup policy either way.
#[derive(Clone, Debug)]
pub(crate) struct ExcludeHalf {
    exclude: ExcludeEngine,
    probes: u64,
    filtered: u64,
}

impl ExcludeHalf {
    pub(crate) fn new(part: ExcludePart, space: AddrSpace) -> Self {
        let exclude = match part {
            ExcludePart::Scalar(c) => ExcludeEngine::Scalar(ExcludeJetty::new(c, space)),
            ExcludePart::Vector(c) => ExcludeEngine::Vector(VectorExcludeJetty::new(c, space)),
        };
        Self { exclude, probes: 0, filtered: 0 }
    }

    /// The backup policy's EJ/VEJ pass over a chunk whose IJ pass already
    /// ran: `ij_verdicts` is that pass's verdict slice, parallel to
    /// `events`. Computes the union verdicts, records exactly the misses
    /// neither component filtered, and counts the hybrid's probes and
    /// union-filtered snoops. The returned `unsafe_at` is the hybrid's
    /// union safety verdict; the caller raises the panic.
    pub(crate) fn replay_backup(
        &mut self,
        events: &[FilterEvent],
        ij_verdicts: &[bool],
    ) -> ReplayOut {
        let out = exclude_dispatch!(&mut self.exclude, replay_events(events, ij_verdicts));
        self.probes += out.probes;
        self.filtered += out.union_filtered;
        out
    }

    /// The hybrid's arrays: the IJ's, then the exclude side's.
    pub(crate) fn arrays(&self, include: &IncludeJetty) -> Vec<ArraySpec> {
        let mut specs = include.arrays();
        specs.extend(exclude_dispatch!(&self.exclude, arrays()));
        specs
    }

    /// The hybrid's activity: the IJ's array counts, then the exclude
    /// side's, with the hybrid's own probe and union-filtered counts.
    pub(crate) fn activity(&self, include: &IncludeJetty) -> FilterActivity {
        let mut arrays = include.activity().arrays;
        arrays.extend(exclude_dispatch!(&self.exclude, activity()).arrays);
        FilterActivity { arrays, probes: self.probes, filtered: self.filtered }
    }

    fn reset_activity(&mut self) {
        exclude_dispatch!(&mut self.exclude, reset_activity());
        self.probes = 0;
        self.filtered = 0;
    }
}

/// The Hybrid-Jetty filter. See the module docs.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, ExcludeConfig, HybridConfig, HybridJetty, IncludeConfig,
///                  SnoopFilter, UnitAddr, Verdict};
///
/// let cfg = HybridConfig::new(IncludeConfig::new(8, 4, 7), ExcludeConfig::new(16, 2));
/// let mut hj = HybridJetty::new(cfg, AddrSpace::default());
/// let unit = UnitAddr::new(0xC0FFEE);
///
/// // Empty cache: IJ filters.
/// assert_eq!(hj.probe(unit), Verdict::NotCached);
/// hj.on_allocate(unit);
/// assert_eq!(hj.probe(unit), Verdict::MaybeCached);
/// ```
#[derive(Clone)]
pub struct HybridJetty {
    config: HybridConfig,
    include: IncludeJetty,
    half: ExcludeHalf,
    /// Reusable IJ verdict buffer: the backup-policy replay fills it
    /// with one verdict per event (shared between the IJ and EJ kernel
    /// passes).
    scratch_absent: Vec<bool>,
}

impl fmt::Debug for HybridJetty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridJetty")
            .field("config", &self.config)
            .field("probes", &self.half.probes)
            .field("filtered", &self.half.filtered)
            .finish()
    }
}

impl HybridJetty {
    /// Creates a Hybrid-Jetty for the given address space.
    pub fn new(config: HybridConfig, space: AddrSpace) -> Self {
        let include = IncludeJetty::new(config.include, space);
        let half = ExcludeHalf::new(config.exclude, space);
        Self { config, include, half, scratch_absent: Vec::new() }
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> HybridConfig {
        self.config
    }

    /// Read access to the include component (for tests and diagnostics).
    pub fn include_part(&self) -> &IncludeJetty {
        &self.include
    }

    /// The paper's backup policy: the **same** event chunk is replayed
    /// by two kernel calls, with no gather pass. The IJ pass fills a
    /// verdict vector parallel to the chunk (safe to run ahead — nothing
    /// in the hybrid's snoop handling mutates IJ state, and IJ state
    /// never depends on the EJ), then the EJ/VEJ pass
    /// ([`ExcludeHalf::replay_backup`]) reads that slice and is the
    /// panic authority for unsafe filters. The IJ pass's own unsafe index
    /// is ignored: the EJ pass sees the same verdicts and owns the union
    /// safety check.
    fn replay_backup(&mut self, events: &[FilterEvent], node: usize) -> u64 {
        let mut verdicts = std::mem::take(&mut self.scratch_absent);
        self.include.replay_events(events, Some(&mut verdicts));
        let out = self.half.replay_backup(events, &verdicts);
        self.scratch_absent = verdicts;
        filter::assert_safe(|| self.name(), events, out.unsafe_at, node);
        out.union_filtered
    }

    /// The eager-allocation ablation, one event at a time. It cannot run
    /// the IJ ahead: an IJ-filtered snoop is a guaranteed L2 miss, so the
    /// EJ records it even though the hybrid filtered it — at block grain
    /// only if every sibling unit of the block is IJ-guaranteed absent
    /// *now*, and the p-bit reads of that test are charged when the EJ
    /// did not filter the snoop itself.
    fn replay_eager(&mut self, events: &[FilterEvent], node: usize) -> u64 {
        let mut filtered = 0;
        for (i, event) in events.iter().enumerate() {
            let ij = self.include.replay_events(slice::from_ref(event), None);
            let exclude = &mut self.half.exclude;
            let FilterEvent::Snoop { unit, would_hit, .. } = *event else {
                exclude_dispatch!(exclude, replay_events(slice::from_ref(event), &[]));
                continue;
            };
            let ij_filtered = ij.filtered != 0;
            let ej_event = if ij_filtered {
                let scope = if self.include.block_absent(unit, false) {
                    MissScope::Block
                } else {
                    MissScope::Unit
                };
                FilterEvent::Snoop { unit, would_hit: false, scope }
            } else {
                *event
            };
            let ej = exclude_dispatch!(exclude, replay_events(slice::from_ref(&ej_event), &[]));
            if ij_filtered && ej.filtered == 0 {
                self.include.block_absent(unit, true);
            }
            self.half.probes += 1;
            if ij_filtered || ej.filtered != 0 {
                filtered += 1;
                filter::assert_safe(|| self.name(), events, would_hit.then_some(i), node);
            }
        }
        self.half.filtered += filtered;
        filtered
    }
}

impl SnoopFilter for HybridJetty {
    fn apply_batch(&mut self, events: &[FilterEvent], node: usize) -> u64 {
        match self.config.ej_allocation {
            EjAllocation::Backup => self.replay_backup(events, node),
            EjAllocation::Eager => self.replay_eager(events, node),
        }
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        self.half.arrays(&self.include)
    }

    fn activity(&self) -> FilterActivity {
        self.half.activity(&self.include)
    }

    fn reset_activity(&mut self) {
        self.include.reset_activity();
        self.half.reset_activity();
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::snoop_miss;
    use crate::{UnitAddr, Verdict};

    fn hj() -> HybridJetty {
        HybridJetty::new(
            HybridConfig::new(IncludeConfig::new(8, 4, 7), ExcludeConfig::new(16, 2)),
            AddrSpace::default(),
        )
    }

    #[test]
    fn empty_filter_filters_via_ij() {
        let mut f = hj();
        assert_eq!(f.probe(UnitAddr::new(1)), Verdict::NotCached);
    }

    #[test]
    fn cached_unit_never_filtered() {
        let mut f = hj();
        let u = UnitAddr::new(0x1000);
        f.on_allocate(u);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn ej_catches_what_ij_cannot() {
        let mut f = hj();
        // Alias two addresses in all IJ sub-arrays: with IJ-8x4x7 the
        // highest used bit is 7*3 + 8 = 29, so flip bit 34.
        let cached = UnitAddr::new(0x0BAD_CAFE);
        let alias = UnitAddr::new(0x0BAD_CAFE | (1 << 34));
        f.on_allocate(cached);
        // IJ cannot filter the alias, so the snoop reaches the L2 and
        // misses...
        assert_eq!(snoop_miss(&mut f, alias, MissScope::Block), Verdict::MaybeCached);
        // ...and after that the EJ can.
        assert_eq!(f.probe(alias), Verdict::NotCached);
    }

    #[test]
    fn allocate_clears_ej_record() {
        let mut f = hj();
        let cached = UnitAddr::new(0x42);
        let alias = UnitAddr::new(0x42 | (1 << 34));
        f.on_allocate(cached);
        snoop_miss(&mut f, alias, MissScope::Block);
        assert_eq!(f.probe(alias), Verdict::NotCached);
        // The alias itself gets cached: EJ record must die, and IJ now has
        // both aliases pinned.
        f.on_allocate(alias);
        assert_eq!(f.probe(alias), Verdict::MaybeCached);
    }

    #[test]
    fn hybrid_filters_union_of_components() {
        let mut f = hj();
        let cached = UnitAddr::new(0x77);
        f.on_allocate(cached);
        f.on_deallocate(cached);
        // After deallocation IJ filters again.
        assert_eq!(f.probe(cached), Verdict::NotCached);
    }

    #[test]
    fn probes_touch_both_components() {
        let mut f = hj();
        f.probe(UnitAddr::new(9));
        let act = f.activity();
        // 4 IJ p-bit arrays (even slots of first 8) read once each + EJ tag
        // array (last slot) read once.
        let n = act.arrays.len();
        assert_eq!(n, 9); // 4 * (pbit + cnt) + 1 EJ tags
        assert_eq!(act.arrays[n - 1].reads, 1);
        for i in 0..4 {
            assert_eq!(act.arrays[2 * i].reads, 1);
        }
        assert_eq!(act.probes, 1);
    }

    #[test]
    fn vector_exclude_part_works() {
        let cfg =
            HybridConfig::new(IncludeConfig::new(8, 4, 7), VectorExcludeConfig::new(32, 4, 8));
        assert_eq!(cfg.label(), "(IJ-8x4x7, VEJ-32x4-8)");
        let mut f = HybridJetty::new(cfg, AddrSpace::default());
        let cached = UnitAddr::new(0x0BAD_CAFE);
        let alias = UnitAddr::new(0x0BAD_CAFE | (1 << 34));
        f.on_allocate(cached);
        snoop_miss(&mut f, alias, MissScope::Block);
        assert_eq!(f.probe(alias), Verdict::NotCached);
    }

    #[test]
    fn ij_component_is_unaffected_by_snoop_misses() {
        // IJ coverage inside HJ must equal a standalone IJ fed the same
        // allocate/deallocate stream (the paper's reason HJ >= IJ).
        let mut h = hj();
        let mut standalone = IncludeJetty::new(IncludeConfig::new(8, 4, 7), AddrSpace::default());
        let units: Vec<UnitAddr> = (0..64).map(|i| UnitAddr::new(i * 1237)).collect();
        for (k, &u) in units.iter().enumerate() {
            if k % 3 == 0 {
                h.on_allocate(u);
                standalone.on_allocate(u);
            } else {
                snoop_miss(&mut h, u, MissScope::Block);
            }
        }
        for &u in &units {
            let hj_ij_says = h.include_part().clone().probe(u);
            let alone_says = standalone.probe(u);
            assert_eq!(hj_ij_says, alone_says);
        }
    }

    #[test]
    fn reset_activity_zeroes_everything() {
        let mut f = hj();
        f.probe(UnitAddr::new(1));
        f.on_allocate(UnitAddr::new(2));
        f.reset_activity();
        let act = f.activity();
        assert_eq!(act.probes, 0);
        assert!(act.arrays.iter().all(|a| a.total() == 0));
    }

    #[test]
    fn storage_is_sum_of_parts() {
        let f = hj();
        let ij = IncludeJetty::new(IncludeConfig::new(8, 4, 7), AddrSpace::default());
        let ej = ExcludeJetty::new(ExcludeConfig::new(16, 2), AddrSpace::default());
        assert_eq!(f.storage_bits(), ij.storage_bits() + ej.storage_bits());
    }

    #[test]
    fn name_label() {
        assert_eq!(hj().name(), "(IJ-8x4x7, EJ-16x2)");
    }

    #[test]
    fn eager_allocation_learns_from_ij_filtered_snoops() {
        let cfg = HybridConfig::new(IncludeConfig::new(8, 4, 7), ExcludeConfig::new(16, 2))
            .with_eager_allocation();
        assert_eq!(cfg.label(), "(IJ-8x4x7, EJ-16x2, eager)");
        let mut f = HybridJetty::new(cfg, AddrSpace::default());
        let absent = UnitAddr::new(0x99);
        // First probe: IJ filters (empty cache) and the eager EJ records.
        assert_eq!(f.probe(absent), Verdict::NotCached);
        // Make the IJ unable to filter by caching an alias, then verify the
        // EJ still covers the absent unit.
        let alias = UnitAddr::new(0x99 | (1 << 34));
        f.on_allocate(alias);
        assert_eq!(f.probe(absent), Verdict::NotCached, "eager EJ should have recorded");
    }

    #[test]
    fn backup_policy_does_not_learn_from_filtered_snoops() {
        let mut f = hj();
        let absent = UnitAddr::new(0x99);
        assert_eq!(f.probe(absent), Verdict::NotCached); // IJ filters
        let alias = UnitAddr::new(0x99 | (1 << 34));
        f.on_allocate(alias);
        // The backup EJ never saw the miss, and the IJ is now blind.
        assert_eq!(f.probe(absent), Verdict::MaybeCached);
    }
}
