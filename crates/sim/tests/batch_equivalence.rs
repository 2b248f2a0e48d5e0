//! Batched-vs-scalar equivalence against reference filter models: every
//! run logs filter events and replays them per chunk, so a chunked run
//! ([`System::run_chunk`]) and a reference-at-a-time run ([`System::apply`],
//! which replays after each access) must agree on every observable —
//! protocol statistics, L2 states, and every filter's probes/filtered/
//! would-miss counts and per-node array activity. The oracle for the
//! filters is independent of both: the reference-at-a-time run is watched
//! from outside (bus transactions and L2 states before and after each
//! access), the filter events each node must log are reconstructed from
//! what changed, and the naive models of `jetty-core`'s
//! `tests/models` replay them. This is the property the golden-output
//! byte-identity checks sample at three scales; here proptest hammers it
//! with arbitrary traces, arbitrary chunk boundaries, and every pluggable
//! protocol.

#[path = "../../core/tests/models/mod.rs"]
mod models;

use std::collections::BTreeSet;

use jetty_core::{AddrSpace, FilterEvent, FilterSpec, MissScope, UnitAddr};
use jetty_sim::{CheckLevel, L1Config, L2Config, MemRef, Op, ProtocolKind, System, SystemConfig};
use models::Model;
use proptest::prelude::*;

/// The tiny thrashing geometry from `protocol_fuzz`, with checks off
/// (the full-check run below covers `CheckLevel::Full`).
fn tiny_config(cpus: usize, protocol: ProtocolKind) -> SystemConfig {
    SystemConfig {
        cpus,
        l1: L1Config::new(256, 32),
        l2: L2Config::new(1024, 64, 2),
        wb_entries: 2,
        addr: AddrSpace::default(),
        check: CheckLevel::Off,
        protocol,
    }
}

/// Reference strategy over a small, highly contended address range.
fn ref_strategy(cpus: usize, units: u64) -> impl Strategy<Value = MemRef> {
    (0..cpus, any::<bool>(), 0..units).prop_map(|(cpu, write, unit)| MemRef {
        cpu,
        op: if write { Op::Write } else { Op::Read },
        addr: unit * 32,
    })
}

/// A system driven one reference at a time, plus one reference model per
/// node per spec fed with the filter events reconstructed from outside.
struct Observed {
    system: System,
    /// `models[node][spec]`.
    models: Vec<Vec<Model>>,
    /// Snoops whose unit the snooped L2 did not hold.
    would_miss: u64,
}

/// Runs `refs` through a fresh system with `apply` and reconstructs each
/// node's filter events: a bus transaction snoops every other node (with
/// `would_hit` and the miss scope read from its L2 before the access) and
/// may invalidate the unit there; the requester's L2 then loses its
/// evicted units and gains the accessed one.
fn observe(config: SystemConfig, specs: &[FilterSpec], refs: &[MemRef]) -> Observed {
    let space = config.addr;
    let shift = space.block_unit_shift();
    let mut system = System::new(config, specs);
    let mut models: Vec<Vec<Model>> =
        (0..config.cpus).map(|_| specs.iter().map(|s| Model::new(s, space)).collect()).collect();
    let mut valid: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); config.cpus];
    let mut would_miss = 0;
    for &r in refs {
        let unit = space.unit_of(r.addr);
        let block = unit.raw() >> shift << shift;
        let before: Vec<(bool, bool)> = valid
            .iter()
            .map(|v| {
                (v.contains(&unit.raw()), v.range(block..block + (1 << shift)).next().is_some())
            })
            .collect();
        let transactions = system.system_stats().transactions();
        system.apply(r);
        let snooped = system.system_stats().transactions() > transactions;
        for (node, v) in valid.iter_mut().enumerate() {
            let mut events = Vec::new();
            if snooped && node != r.cpu {
                let (would_hit, block_present) = before[node];
                let scope = if block_present { MissScope::Unit } else { MissScope::Block };
                events.push(FilterEvent::Snoop { unit, would_hit, scope });
                would_miss += u64::from(!would_hit);
            }
            let now: BTreeSet<u64> = v
                .iter()
                .copied()
                .chain([unit.raw()])
                .filter(|&u| system.l2_state(node, u << space.unit_shift()).is_valid())
                .collect();
            events.extend(v.difference(&now).map(|&u| FilterEvent::Deallocate(UnitAddr::new(u))));
            events.extend(now.difference(v).map(|&u| FilterEvent::Allocate(UnitAddr::new(u))));
            *v = now;
            for model in &mut models[node] {
                for &event in &events {
                    model.apply(event);
                }
            }
        }
    }
    Observed { system, models, would_miss }
}

/// Asserts that `system`'s filter reports match the reference models.
fn assert_reports_match_models(system: &System, observed: &Observed, what: &str) {
    for (k, report) in system.filter_reports().iter().enumerate() {
        let label = &report.label;
        let expected: Vec<_> = observed.models.iter().map(|node| node[k].activity()).collect();
        assert_eq!(report.activities, expected, "{what}: {label}: per-node activity vs model");
        assert_eq!(report.probes, expected.iter().map(|a| a.probes).sum::<u64>(), "{label}");
        assert_eq!(report.filtered, expected.iter().map(|a| a.filtered).sum::<u64>(), "{label}");
        assert_eq!(report.would_miss, observed.would_miss, "{what}: {label}: would-miss");
    }
}

/// Runs `refs` through a batched system (chunks of `chunk_len`) and a
/// reference-at-a-time one, then asserts every observable matches and
/// both systems' filters match the reference models.
fn assert_batched_matches_scalar(
    refs: &[MemRef],
    chunk_len: usize,
    protocol: ProtocolKind,
    specs: &[FilterSpec],
    units: u64,
) {
    let mut batched = System::new(tiny_config(4, protocol), specs);
    for chunk in refs.chunks(chunk_len) {
        batched.run_chunk(chunk);
    }
    let observed = observe(tiny_config(4, protocol), specs, refs);
    let scalar = &observed.system;

    assert_eq!(batched.run_stats(), scalar.run_stats(), "{protocol}: protocol stats diverged");
    for cpu in 0..4 {
        for unit in 0..units {
            assert_eq!(
                batched.l2_state(cpu, unit * 32),
                scalar.l2_state(cpu, unit * 32),
                "{protocol}: node {cpu} unit {unit} state diverged"
            );
        }
    }
    assert_reports_match_models(scalar, &observed, &format!("{protocol} scalar"));
    assert_reports_match_models(&batched, &observed, &format!("{protocol} batched"));
    batched.verify_filter_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The full paper bank (include, exclude, vector-exclude and hybrid
    /// variants all at once) over contended traffic: batched replay must
    /// be observation-identical for every protocol and any chunk boundary,
    /// including chunk lengths that leave a partial final chunk. Odd
    /// geometries ride along — direct-mapped, non-power-of-two and 9-way
    /// exclude sets — so the way scans are exercised at set widths the
    /// paper never uses.
    #[test]
    fn paper_bank_batched_equals_scalar(
        refs in prop::collection::vec(ref_strategy(4, 64), 1..400),
        chunk_len in 1usize..96,
    ) {
        let mut bank = FilterSpec::paper_bank();
        bank.extend([
            FilterSpec::exclude(8, 1),
            FilterSpec::exclude(8, 3),
            FilterSpec::exclude(4, 5),
            FilterSpec::exclude(2, 9),
            FilterSpec::vector_exclude(8, 3, 8),
            FilterSpec::vector_exclude(2, 9, 4),
        ]);
        for protocol in ProtocolKind::ALL {
            assert_batched_matches_scalar(&refs, chunk_len, protocol, &bank, 64);
        }
    }

    /// Sparse traffic through hybrid filters: exercises eviction-driven
    /// deallocate events under the backup policy, and the eager-allocation
    /// ablation — the one replay that mutates the exclude part mid-run on
    /// IJ-filtered snoops.
    #[test]
    fn hybrid_batched_equals_scalar_under_eviction_pressure(
        refs in prop::collection::vec(ref_strategy(4, 4096), 1..300),
        chunk_len in 1usize..64,
    ) {
        for protocol in ProtocolKind::ALL {
            assert_batched_matches_scalar(
                &refs,
                chunk_len,
                protocol,
                &[
                    FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
                    FilterSpec::hybrid_scalar_eager(8, 4, 7, 16, 2),
                ],
                64,
            );
        }
    }

    /// An empty filter bank logs no events at all; the protocol path must
    /// still be identical to `apply`.
    #[test]
    fn empty_bank_chunks_match_scalar(
        refs in prop::collection::vec(ref_strategy(4, 32), 1..300),
        chunk_len in 1usize..64,
    ) {
        assert_batched_matches_scalar(&refs, chunk_len, ProtocolKind::Moesi, &[], 32);
    }
}

/// Under `CheckLevel::Full`, `run_chunk` logs and replays filter events
/// exactly like an unchecked run — the checkers read caches and versions,
/// never filter state — while the per-access checkers still see every
/// intermediate state. The filters must still match the reference models
/// fed from a reference-at-a-time run.
#[test]
fn full_check_runs_still_verify_through_run_chunk() {
    let config = SystemConfig { check: CheckLevel::Full, ..tiny_config(4, ProtocolKind::Moesi) };
    let mut sys = System::new(config, &FilterSpec::paper_bank());
    let refs: Vec<MemRef> = (0..200u64)
        .map(|i| MemRef {
            cpu: (i % 4) as usize,
            op: if i % 3 == 0 { Op::Write } else { Op::Read },
            addr: (i % 48) * 32,
        })
        .collect();
    sys.run_chunk(&refs);
    let observed = observe(config, &FilterSpec::paper_bank(), &refs);
    assert_eq!(sys.run_stats(), observed.system.run_stats());
    assert_reports_match_models(&sys, &observed, "checked run_chunk");
    sys.verify_inclusion();
    sys.verify_filter_consistency();
}
