//! Model-based equivalence: the flattened structure-of-arrays [`L2Cache`]
//! against a naive `BTreeMap`-backed reference model.
//!
//! The hot-path L2 stores state as flat `tags`/`valid`/`states`/`versions`
//! arrays with packed valid bitmasks; the reference model below is the
//! slowest, most obviously correct implementation of the same contract
//! (one map entry per valid unit, whole-block eviction by scanning). Random
//! fill/probe/evict/set-state/set-version sequences must drive both through
//! identical observable behaviour — states, versions, block presence,
//! eviction sets, population and enumeration.

use std::collections::BTreeMap;

use jetty_core::UnitAddr;
use jetty_sim::{EvictedUnit, L2Cache, L2Config, Moesi};
use proptest::prelude::*;

/// Geometry shared by the model and the cache under test: 8 blocks of
/// 64 bytes, 2 subblocks — tiny, so conflicts are constant.
const BLOCKS: u64 = 8;
const SUBBLOCKS: u64 = 2;

fn l2() -> L2Cache {
    L2Cache::new(L2Config::new((BLOCKS * 64) as usize, 64, SUBBLOCKS as usize))
}

/// The naive reference: one `BTreeMap` entry per *valid* unit, keyed by
/// unit address. Direct-mapped geometry is recomputed per operation.
#[derive(Default)]
struct ModelL2 {
    units: BTreeMap<u64, (Moesi, u64)>,
}

impl ModelL2 {
    fn index_of(unit: u64) -> u64 {
        (unit / SUBBLOCKS) % BLOCKS
    }

    fn block_of(unit: u64) -> u64 {
        unit / SUBBLOCKS
    }

    fn state(&self, unit: u64) -> Moesi {
        self.units.get(&unit).map_or(Moesi::Invalid, |&(s, _)| s)
    }

    fn version(&self, unit: u64) -> u64 {
        self.units.get(&unit).map_or(0, |&(_, v)| v)
    }

    fn block_present(&self, unit: u64) -> bool {
        let block = Self::block_of(unit);
        (0..SUBBLOCKS).any(|s| self.units.contains_key(&(block * SUBBLOCKS + s)))
    }

    fn population(&self) -> usize {
        self.units.len()
    }

    /// Mirrors [`L2Cache::fill_into`]: evicts every valid unit of a
    /// conflicting resident block (ascending unit order), then installs.
    fn fill(&mut self, unit: u64, state: Moesi, version: u64) -> Vec<EvictedUnit> {
        let idx = Self::index_of(unit);
        let block = Self::block_of(unit);
        // A resident conflicting block is any valid unit with the same
        // index but a different block address.
        let victims: Vec<u64> = self
            .units
            .keys()
            .copied()
            .filter(|&u| Self::index_of(u) == idx && Self::block_of(u) != block)
            .collect();
        let mut evicted = Vec::new();
        for u in victims {
            let (s, v) = self.units.remove(&u).expect("victim key just enumerated");
            evicted.push(EvictedUnit { unit: UnitAddr::new(u), state: s, version: v });
        }
        assert!(!self.units.contains_key(&unit), "model fill of already-valid unit");
        self.units.insert(unit, (state, version));
        evicted
    }

    fn invalidate(&mut self, unit: u64) -> (Moesi, u64) {
        self.units.remove(&unit).expect("model invalidate of absent unit")
    }

    fn set_state(&mut self, unit: u64, state: Moesi) {
        self.units.get_mut(&unit).expect("model set_state on absent unit").0 = state;
    }

    fn set_version(&mut self, unit: u64, version: u64) {
        self.units.get_mut(&unit).expect("model set_version on absent unit").1 = version;
    }
}

/// One randomly generated driver step. Mutating ops pick a unit and act
/// only when the precondition holds (fill on absent, invalidate/set on
/// present), so every generated sequence is legal for both
/// implementations.
#[derive(Clone, Copy, Debug)]
enum Step {
    Probe(u64),
    Fill(u64, Moesi, u64),
    Invalidate(u64),
    SetState(u64, Moesi),
    SetVersion(u64, u64),
}

fn moesi_from(k: u8) -> Moesi {
    match k % 4 {
        0 => Moesi::Modified,
        1 => Moesi::Owned,
        2 => Moesi::Exclusive,
        _ => Moesi::Shared,
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Units span 4x the cache's block capacity so tag conflicts dominate.
    let units = BLOCKS * SUBBLOCKS * 4;
    (0u8..5, 0..units, any::<u8>(), 1u64..1000).prop_map(|(op, unit, k, version)| match op {
        0 => Step::Probe(unit),
        1 => Step::Fill(unit, moesi_from(k), version),
        2 => Step::Invalidate(unit),
        3 => Step::SetState(unit, moesi_from(k)),
        _ => Step::SetVersion(unit, version),
    })
}

/// Asserts every observable of both implementations agrees for `unit`.
fn assert_unit_agrees(real: &L2Cache, model: &ModelL2, unit: u64) {
    let u = UnitAddr::new(unit);
    assert_eq!(real.state(u), model.state(unit), "state of unit {unit}");
    assert_eq!(real.version(u), model.version(unit), "version of unit {unit}");
    assert_eq!(real.block_present(u), model.block_present(unit), "block_present of unit {unit}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random legal op sequences drive the SoA cache and the map-backed
    /// model into identical observable states at every step.
    #[test]
    fn flattened_l2_matches_the_btreemap_model(
        steps in prop::collection::vec(step_strategy(), 1..400)
    ) {
        let mut real = l2();
        let mut model = ModelL2::default();
        let mut scratch = Vec::new();
        let universe = BLOCKS * SUBBLOCKS * 4;
        for step in steps {
            match step {
                Step::Probe(unit) => assert_unit_agrees(&real, &model, unit),
                Step::Fill(unit, state, version) => {
                    if model.state(unit).is_valid() {
                        continue; // fill precondition: unit absent
                    }
                    real.fill_into(UnitAddr::new(unit), state, version, &mut scratch);
                    let expected = model.fill(unit, state, version);
                    prop_assert_eq!(&scratch, &expected, "eviction set for fill of {}", unit);
                }
                Step::Invalidate(unit) => {
                    if !model.state(unit).is_valid() {
                        continue;
                    }
                    let got = real.invalidate(UnitAddr::new(unit));
                    let expected = model.invalidate(unit);
                    prop_assert_eq!(got, expected, "invalidate({}) prior", unit);
                }
                Step::SetState(unit, state) => {
                    if !model.state(unit).is_valid() {
                        continue;
                    }
                    real.set_state(UnitAddr::new(unit), state);
                    model.set_state(unit, state);
                }
                Step::SetVersion(unit, version) => {
                    if !model.state(unit).is_valid() {
                        continue;
                    }
                    real.set_version(UnitAddr::new(unit), version);
                    model.set_version(unit, version);
                }
            }
            // Global observables after every step.
            prop_assert_eq!(real.population(), model.population());
        }
        // Final exhaustive sweep over the whole address universe plus the
        // enumeration surface.
        for unit in 0..universe {
            assert_unit_agrees(&real, &model, unit);
        }
        let mut enumerated: Vec<(u64, Moesi)> =
            real.valid_units().map(|(u, s)| (u.raw(), s)).collect();
        enumerated.sort_unstable_by_key(|&(u, _)| u);
        let expected: Vec<(u64, Moesi)> =
            model.units.iter().map(|(&u, &(s, _))| (u, s)).collect();
        prop_assert_eq!(enumerated, expected, "valid_units enumeration");
    }

    /// `fill_into` with a fresh eviction buffer and with one scratch
    /// buffer reused across fills report identical eviction sets (the
    /// reused buffer never leaks a previous fill's evictions).
    #[test]
    fn fill_wrapper_matches_fill_into(
        fills in prop::collection::vec((0..BLOCKS * SUBBLOCKS * 4, 1u64..100), 1..60)
    ) {
        let mut a = l2();
        let mut b = l2();
        let mut scratch = Vec::new();
        for (unit, version) in fills {
            if a.state(UnitAddr::new(unit)).is_valid() {
                continue;
            }
            let mut fresh = Vec::new();
            a.fill_into(UnitAddr::new(unit), Moesi::Exclusive, version, &mut fresh);
            b.fill_into(UnitAddr::new(unit), Moesi::Exclusive, version, &mut scratch);
            prop_assert_eq!(&fresh, &scratch);
        }
    }
}
