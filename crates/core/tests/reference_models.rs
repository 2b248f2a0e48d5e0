//! Flat filters against naive reference models ([`models`]): replaying an
//! event log through a filter — one event per `apply_batch` call, and in
//! arbitrary chunks — must agree with the model on every snoop's verdict
//! and on the full activity (probes, filtered snoops, per-array reads and
//! writes), and must leave the same state behind (observed through a
//! post-replay probe sweep). `jetty-sim`'s `batch_equivalence` suite
//! checks the same models against the filters the simulator drives; this
//! one feeds proptest-generated event logs straight to the filters, so
//! geometries and eviction patterns the simulator rarely produces still
//! reach the replay kernels.

mod models;

use std::collections::BTreeSet;

use jetty_core::{AddrSpace, FilterEvent, FilterSpec, MissScope, SnoopFilter, UnitAddr};
use models::Model;
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

/// Replays `events` through the reference model of `spec` and through two
/// fresh flat instances — one event per call, and in `chunk_len`-sized
/// chunks — then asserts that every snoop's verdict, the accumulated
/// activity, and the verdicts and activity of a post-replay probe sweep
/// over the whole unit range agree.
fn assert_matches_model(spec: &FilterSpec, actions: &[Action], chunk_len: usize, units: u64) {
    let space = AddrSpace::default();
    let events = build_events(actions, space, units);
    let mut model = Model::new(spec, space);
    let mut stepped = spec.build(space);
    let mut batched = spec.build(space);
    for (i, &event) in events.iter().enumerate() {
        let expected = model.apply(event);
        let filtered = stepped.apply_batch(&[event], 0);
        if let Some(verdict) = expected {
            assert_eq!(filtered == 1, verdict, "{}: verdict of event {i} {event:?}", spec.label());
        }
    }
    for chunk in events.chunks(chunk_len.max(1)) {
        batched.apply_batch(chunk, 0);
    }
    let label = spec.label();
    assert_eq!(stepped.activity(), model.activity(), "{label}: one-event replay activity");
    assert_eq!(batched.activity(), model.activity(), "{label}: chunked replay activity");
    for unit in (0..units).map(UnitAddr::new) {
        let probe = FilterEvent::Snoop { unit, would_hit: false, scope: MissScope::Unit };
        let expected = model.apply(probe) == Some(true);
        assert_eq!(batched.probe(unit).is_filtered(), expected, "{label}: sweep verdict at {unit}");
    }
    // The sweep mutated both (EJ LRU order); activity must still agree.
    assert_eq!(batched.activity(), model.activity(), "{label}: probe-sweep activity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Associativities the paper never uses: direct-mapped and sub-4 sets,
    /// non-power-of-two ways, and a 9-way config — every shape the way
    /// scan must handle.
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
            assert_matches_model(&spec, &actions, chunk_len, 64);
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
            assert_matches_model(&spec, &actions, chunk_len, 4096);
        }
    }

    /// Vector records under set pressure: few sets and ways over a wide
    /// range, so LRU victims are chosen constantly and every recency
    /// refresh (probe hits included) decides which record survives. The
    /// vector hybrid rides along under both allocation policies.
    #[test]
    fn vector_exclude_under_eviction_pressure(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 1..300),
        chunk_len in 1usize..64,
    ) {
        let vector_eager = match FilterSpec::hybrid_vector(8, 4, 7, 2, 2, 4) {
            FilterSpec::Hybrid(c) => FilterSpec::Hybrid(c.with_eager_allocation()),
            _ => unreachable!("hybrid_vector builds a hybrid"),
        };
        for spec in [
            FilterSpec::vector_exclude(2, 2, 4),
            FilterSpec::vector_exclude(4, 1, 8),
            FilterSpec::exclude(2, 2),
            FilterSpec::hybrid_vector(8, 4, 7, 2, 2, 4),
            vector_eager,
        ] {
            assert_matches_model(&spec, &actions, chunk_len, 256);
        }
    }
}
