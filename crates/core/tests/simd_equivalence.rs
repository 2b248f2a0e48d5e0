//! Kernel-vs-eager equivalence inside `jetty-core`: replaying an event log
//! through a filter's batched kernel ([`AnyFilter::apply_batch`]) must be
//! observation-identical to driving the same events one at a time through
//! the [`SnoopFilter`] calls the substrate makes eagerly — same activity
//! counters and same internal state (observed through post-replay probes).
//! `jetty-sim`'s `batch_equivalence` suite checks the same property end to
//! end through the simulator; this one feeds proptest-generated event logs
//! straight to the filters, so geometries and eviction patterns the
//! simulator rarely produces still reach the kernels' way scans.
//!
//! [`AnyFilter::apply_batch`]: jetty_core::AnyFilter::apply_batch

use std::collections::BTreeSet;

use jetty_core::{AddrSpace, FilterEvent, FilterSpec, MissScope, SnoopFilter, UnitAddr};
use proptest::prelude::*;

/// Raw proptest material for one event: an action selector and an
/// address seed.
type Action = (u8, u64);

/// Folds raw actions into a *valid* filter event log: deallocates only
/// ever target allocated units, `would_hit` is exactly "currently
/// allocated", and a snoop miss gets `MissScope::Block` only when no
/// unit of its block is cached — the same invariants the simulator's
/// event logs satisfy, so the filter-safety assertion must never fire.
fn build_events(actions: &[Action], space: AddrSpace, units: u64) -> Vec<FilterEvent> {
    let shift = space.block_unit_shift();
    let mut allocated: BTreeSet<u64> = BTreeSet::new();
    let mut events = Vec::with_capacity(actions.len());
    for &(kind, seed) in actions {
        let unit = seed % units;
        match kind % 8 {
            // Allocate (skip if already cached: the substrate only fills
            // on misses).
            0 => {
                if allocated.insert(unit) {
                    events.push(FilterEvent::Allocate(UnitAddr::new(unit)));
                }
            }
            // Deallocate the nearest allocated unit at or above the seed
            // (wrapping to the smallest), if any.
            1 => {
                let pick =
                    allocated.range(unit..).next().or_else(|| allocated.iter().next()).copied();
                if let Some(u) = pick {
                    allocated.remove(&u);
                    events.push(FilterEvent::Deallocate(UnitAddr::new(u)));
                }
            }
            // Snoop: the common case, so six of eight selector values.
            _ => {
                let would_hit = allocated.contains(&unit);
                let block = unit >> shift;
                let block_cached =
                    allocated.range(block << shift..(block + 1) << shift).next().is_some();
                let scope = if block_cached { MissScope::Unit } else { MissScope::Block };
                events.push(FilterEvent::Snoop { unit: UnitAddr::new(unit), would_hit, scope });
            }
        }
    }
    events
}

/// Drives one event through the eager [`SnoopFilter`] calls, in the order
/// the substrate makes them: a snoop probes, and an unfiltered snoop that
/// misses the L2 is recorded with its proven scope.
fn apply_eager(filter: &mut impl SnoopFilter, event: FilterEvent) {
    match event {
        FilterEvent::Snoop { unit, would_hit, scope } => {
            let verdict = filter.probe(unit);
            assert!(!(verdict.is_filtered() && would_hit), "filtered a snoop to cached {unit}");
            if !verdict.is_filtered() && !would_hit {
                filter.record_snoop_miss(unit, scope);
            }
        }
        FilterEvent::Allocate(unit) => filter.on_allocate(unit),
        FilterEvent::Deallocate(unit) => filter.on_deallocate(unit),
    }
}

/// Replays `events` through two fresh instances of `spec` — one through
/// the batched kernel in `chunk_len`-sized chunks, one event by event —
/// then asserts the observables agree: accumulated activity (probes,
/// filtered, per-array reads/writes) and the verdict of a probe sweep over
/// the whole unit range (which observes the EJ/VEJ/IJ state the replay
/// left behind).
fn assert_batched_matches_eager(
    spec: &FilterSpec,
    actions: &[Action],
    chunk_len: usize,
    units: u64,
) {
    let space = AddrSpace::default();
    let events = build_events(actions, space, units);
    let mut batched = spec.build_any(space);
    let mut eager = spec.build_any(space);
    for chunk in events.chunks(chunk_len.max(1)) {
        batched.apply_batch(chunk, 0);
    }
    for &event in &events {
        apply_eager(&mut eager, event);
    }
    assert_eq!(
        batched.activity(),
        eager.activity(),
        "{}: replay activity diverged between batched and eager paths",
        spec.label()
    );
    for unit in 0..units {
        assert_eq!(
            batched.probe(UnitAddr::new(unit)),
            eager.probe(UnitAddr::new(unit)),
            "{}: post-replay verdict diverged at unit {unit}",
            spec.label()
        );
    }
    // The probe sweep above mutated both (EJ LRU stamps); activity must
    // still agree afterwards.
    assert_eq!(batched.activity(), eager.activity(), "{}: probe-sweep activity", spec.label());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Associativities the paper never uses: direct-mapped and sub-4 sets,
    /// non-power-of-two ways, and a 9-way config — every shape the shared
    /// way scan must handle.
    #[test]
    fn odd_associativities_exercise_lane_tails(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 1..300),
        chunk_len in 1usize..64,
    ) {
        for spec in [
            FilterSpec::exclude(8, 1),
            FilterSpec::exclude(8, 3),
            FilterSpec::exclude(4, 5),
            FilterSpec::exclude(2, 9),
            FilterSpec::vector_exclude(8, 3, 8),
            FilterSpec::vector_exclude(2, 9, 4),
        ] {
            assert_batched_matches_eager(&spec, &actions, chunk_len, 64);
        }
    }

    /// A sparser address range drives eviction/victim-scan paths and the
    /// hybrid's eager-allocation ablation (the one replay that mutates
    /// the exclude part mid-run).
    #[test]
    fn eager_hybrid_and_eviction_pressure(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 1..300),
        chunk_len in 1usize..64,
    ) {
        for spec in [
            FilterSpec::hybrid_scalar_eager(8, 4, 7, 16, 2),
            FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
            FilterSpec::include(6, 5, 6),
        ] {
            assert_batched_matches_eager(&spec, &actions, chunk_len, 4096);
        }
    }
}
