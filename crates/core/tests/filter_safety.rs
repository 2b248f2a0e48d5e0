//! Property-based tests for the core JETTY safety contract.
//!
//! A filter may answer `NotCached` only for units that are genuinely not in
//! the cache. We drive every filter configuration with random interleavings
//! of allocate / deallocate / snoop events against a reference model (a
//! multiset of cached units) and assert the contract after every step.

use std::collections::HashMap;

use jetty_core::{AddrSpace, FilterEvent, FilterSpec, MissScope, SnoopFilter, UnitAddr, Verdict};
use proptest::prelude::*;

/// One step of the randomized protocol driver.
#[derive(Clone, Debug)]
enum Event {
    /// The local cache gains a copy of unit `0..addr_limit`.
    Allocate(u64),
    /// The local cache drops one copy of a currently cached unit, chosen by
    /// rank among the live population (so deallocations are always legal).
    DeallocateNth(usize),
    /// A bus snoop arrives for unit `0..addr_limit`.
    Snoop(u64),
}

fn event_strategy(addr_limit: u64) -> impl Strategy<Value = Event> {
    prop_oneof![
        3 => (0..addr_limit).prop_map(Event::Allocate),
        2 => any::<usize>().prop_map(Event::DeallocateNth),
        5 => (0..addr_limit).prop_map(Event::Snoop),
    ]
}

/// Reference model: multiset of cached units (the L2 may hold one copy per
/// unit in reality, but filters must tolerate refcounted drivers too — the
/// substrate only ever sends balanced pairs, which a multiset covers).
#[derive(Default)]
struct Reference {
    cached: HashMap<u64, u32>,
}

impl Reference {
    fn allocate(&mut self, addr: u64) -> bool {
        // Model a real cache: a unit is allocated only if not present.
        use std::collections::hash_map::Entry;
        match self.cached.entry(addr) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(1);
                true
            }
        }
    }

    fn deallocate_nth(&mut self, nth: usize) -> Option<u64> {
        if self.cached.is_empty() {
            return None;
        }
        let mut keys: Vec<u64> = self.cached.keys().copied().collect();
        keys.sort_unstable();
        let addr = keys[nth % keys.len()];
        self.cached.remove(&addr);
        Some(addr)
    }

    fn contains(&self, addr: u64) -> bool {
        self.cached.contains_key(&addr)
    }
}

fn drive(spec: FilterSpec, events: &[Event]) {
    let space = AddrSpace::default();
    let mut filter = spec.build(space);
    let mut reference = Reference::default();

    for (step, event) in events.iter().enumerate() {
        match event {
            Event::Allocate(addr) => {
                if reference.allocate(*addr) {
                    filter.on_allocate(UnitAddr::new(*addr));
                }
            }
            Event::DeallocateNth(nth) => {
                if let Some(addr) = reference.deallocate_nth(*nth) {
                    filter.on_deallocate(UnitAddr::new(addr));
                }
            }
            Event::Snoop(addr) => {
                let unit = UnitAddr::new(*addr);
                // An unfiltered snoop that misses in the L2 is learned at
                // the proven scope. The reference model tracks units; with
                // the default 64-byte blocks a unit's block is absent iff
                // both sibling units are.
                let sibling = addr ^ 1;
                let scope =
                    if reference.contains(sibling) { MissScope::Unit } else { MissScope::Block };
                let verdict = snoop(&mut filter, unit, reference.contains(*addr), scope);
                if verdict == Verdict::NotCached {
                    assert!(
                        !reference.contains(*addr),
                        "{} filtered a cached unit {unit} at step {step}",
                        spec.label()
                    );
                }
            }
        }
    }
}

/// Replays one snoop through `filter` (which learns a miss that gets
/// through at `scope`) and returns its verdict.
fn snoop(
    filter: &mut dyn SnoopFilter,
    unit: UnitAddr,
    would_hit: bool,
    scope: MissScope,
) -> Verdict {
    if filter.apply_batch(&[FilterEvent::Snoop { unit, would_hit, scope }], 0) == 0 {
        Verdict::MaybeCached
    } else {
        Verdict::NotCached
    }
}

/// Block-grain scope for a snooped address given the set of cached units
/// (64-byte blocks = sibling unit pairs).
fn scope_for(cached: &[u64], addr: u64) -> MissScope {
    if cached.contains(&(addr ^ 1)) {
        MissScope::Unit
    } else {
        MissScope::Block
    }
}

/// Small address range to force heavy aliasing inside the filters; this is
/// the adversarial case for safety.
const TIGHT: u64 = 64;
/// Wider range exercising multi-set behaviour and IJ slices.
const WIDE: u64 = 1 << 20;

macro_rules! safety_tests {
    ($($name:ident => $spec:expr),+ $(,)?) => {
        $(
            mod $name {
                use super::*;

                proptest! {
                    #![proptest_config(ProptestConfig::with_cases(64))]

                    #[test]
                    fn never_filters_cached_units_tight(
                        events in prop::collection::vec(event_strategy(TIGHT), 1..400)
                    ) {
                        drive($spec, &events);
                    }

                    #[test]
                    fn never_filters_cached_units_wide(
                        events in prop::collection::vec(event_strategy(WIDE), 1..400)
                    ) {
                        drive($spec, &events);
                    }
                }
            }
        )+
    };
}

safety_tests! {
    ej_32x4 => FilterSpec::exclude(32, 4),
    ej_8x2 => FilterSpec::exclude(8, 2),
    vej_32x4_8 => FilterSpec::vector_exclude(32, 4, 8),
    vej_16x4_4 => FilterSpec::vector_exclude(16, 4, 4),
    ij_10x4x7 => FilterSpec::include(10, 4, 7),
    ij_6x5x6 => FilterSpec::include(6, 5, 6),
    hj_best => FilterSpec::hybrid_scalar(10, 4, 7, 32, 4),
    hj_small => FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
    hj_vector => FilterSpec::hybrid_vector(10, 4, 7, 32, 4, 8),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The IJ is exact for membership of its own superset: a unit that is
    /// cached is *always* MaybeCached, and after removing every unit the
    /// filter must return to the all-filtering state.
    #[test]
    fn include_jetty_returns_to_empty(
        addrs in prop::collection::vec(0u64..WIDE, 1..200)
    ) {
        let space = AddrSpace::default();
        let mut filter = FilterSpec::include(8, 4, 7).build(space);
        let mut unique: Vec<u64> = addrs.clone();
        unique.sort_unstable();
        unique.dedup();
        for &a in &unique {
            filter.on_allocate(UnitAddr::new(a));
        }
        for &a in &unique {
            prop_assert_eq!(filter.probe(UnitAddr::new(a)), Verdict::MaybeCached);
        }
        for &a in &unique {
            filter.on_deallocate(UnitAddr::new(a));
        }
        for &a in &unique {
            prop_assert_eq!(filter.probe(UnitAddr::new(a)), Verdict::NotCached);
        }
    }

    /// Hybrid coverage dominates its include component: any snoop the IJ
    /// filters, the HJ built from it also filters (given the same
    /// allocate/deallocate stream).
    #[test]
    fn hybrid_dominates_include(
        cached in prop::collection::vec(0u64..TIGHT, 0..40),
        snoops in prop::collection::vec(0u64..TIGHT, 1..100)
    ) {
        let space = AddrSpace::default();
        let mut ij = FilterSpec::include(8, 4, 7).build(space);
        let mut hj = FilterSpec::hybrid_scalar(8, 4, 7, 16, 2).build(space);
        let mut unique = cached.clone();
        unique.sort_unstable();
        unique.dedup();
        for &a in &unique {
            ij.on_allocate(UnitAddr::new(a));
            hj.on_allocate(UnitAddr::new(a));
        }
        for &s in &snoops {
            let u = UnitAddr::new(s);
            let (cached, scope) = (unique.contains(&s), scope_for(&unique, s));
            let ij_verdict = snoop(&mut ij, u, cached, scope);
            let hj_verdict = snoop(&mut hj, u, cached, scope);
            if ij_verdict.is_filtered() {
                prop_assert!(hj_verdict.is_filtered());
            }
        }
    }

    /// Exclude-style filters only ever filter addresses they were taught:
    /// when no snoop miss was ever learned they filter nothing.
    #[test]
    fn exclude_filters_nothing_untaught(
        cached in prop::collection::vec(0u64..WIDE, 0..50),
        snoops in prop::collection::vec(0u64..WIDE, 1..100)
    ) {
        let space = AddrSpace::default();
        for spec in [FilterSpec::exclude(32, 4), FilterSpec::vector_exclude(32, 4, 8)] {
            let mut f = spec.build(space);
            for &a in &cached {
                f.on_allocate(UnitAddr::new(a));
            }
            for &s in &snoops {
                prop_assert_eq!(f.probe(UnitAddr::new(s)), Verdict::MaybeCached);
            }
        }
    }

    /// Activity bookkeeping: probes equals the number of snoops and
    /// filtered <= probes, for every spec.
    #[test]
    fn activity_bookkeeping(
        snoops in prop::collection::vec(0u64..TIGHT, 1..100)
    ) {
        let space = AddrSpace::default();
        for spec in FilterSpec::paper_bank() {
            let mut f = spec.build(space);
            for &s in &snoops {
                snoop(&mut f, UnitAddr::new(s), false, scope_for(&[], s));
            }
            let act = f.activity();
            prop_assert_eq!(act.probes, snoops.len() as u64);
            prop_assert!(act.filtered <= act.probes);
        }
    }
}
