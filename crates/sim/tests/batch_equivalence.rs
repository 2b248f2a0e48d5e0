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

/// A bank of `hybrids` backup hybrids on one IJ (`ij` picks IJ-6x5x6 or
/// IJ-8x4x7), their exclude halves taken cyclically from a fixed list
/// starting at `first`. `standalone` puts a standalone IJ of the same
/// configuration nowhere (0), before the hybrids (1) or after them (2);
/// `eager` adds the first hybrid's eager twin right after it. An EJ leads
/// the bank so the shared lane is not the first member.
fn shared_ij_bank(
    ij: usize,
    hybrids: usize,
    first: usize,
    standalone: usize,
    eager: bool,
) -> Vec<FilterSpec> {
    let (e, n, s) = [(6, 5, 6), (8, 4, 7)][ij];
    let halves = [(8, 2, None), (4, 1, None), (8, 2, Some(4)), (16, 2, None)];
    let mut bank = vec![FilterSpec::exclude(8, 2)];
    if standalone == 1 {
        bank.push(FilterSpec::include(e, n, s));
    }
    for k in 0..hybrids {
        let (sets, ways, vector) = halves[(first + k) % halves.len()];
        bank.push(match vector {
            Some(v) => FilterSpec::hybrid_vector(e, n, s, sets, ways, v),
            None => FilterSpec::hybrid_scalar(e, n, s, sets, ways),
        });
        if eager && k == 0 {
            bank.push(match vector {
                Some(_) => FilterSpec::hybrid_scalar_eager(e, n, s, 8, 2),
                None => FilterSpec::hybrid_scalar_eager(e, n, s, sets, ways),
            });
        }
    }
    if standalone == 2 {
        bank.push(FilterSpec::include(e, n, s));
    }
    bank
}

/// Asserts that every report of a batched run with `specs` equals the
/// report of the same spec simulated alone, in its own system, over the
/// same chunks.
fn assert_each_spec_matches_its_own_system(
    refs: &[MemRef],
    chunk_len: usize,
    protocol: ProtocolKind,
    specs: &[FilterSpec],
) {
    let run = |specs: &[FilterSpec]| {
        let mut system = System::new(tiny_config(4, protocol), specs);
        for chunk in refs.chunks(chunk_len) {
            system.run_chunk(chunk);
        }
        system.filter_reports()
    };
    for (report, spec) in run(specs).iter().zip(specs) {
        let alone = run(std::slice::from_ref(spec)).remove(0);
        let label = &report.label;
        assert_eq!(report.label, alone.label);
        assert_eq!(report.probes, alone.probes, "{protocol}: {label}: probes vs alone");
        assert_eq!(report.filtered, alone.filtered, "{protocol}: {label}: filtered vs alone");
        assert_eq!(report.would_miss, alone.would_miss, "{protocol}: {label}: would-miss");
        assert_eq!(report.activities, alone.activities, "{protocol}: {label}: activity");
        assert_eq!(report.arrays, alone.arrays, "{protocol}: {label}: arrays");
        assert_eq!(report.storage_bits, alone.storage_bits, "{protocol}: {label}: storage");
    }
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

    /// Banks whose backup hybrids share one IJ configuration — so the
    /// bank replays that IJ once per node per chunk and feeds every
    /// hybrid's exclude half from it — with and without a standalone IJ
    /// of the same configuration, placed before or after the hybrids,
    /// and optionally an eager hybrid (which keeps its own IJ) right
    /// after its backup twin. Every report must match the naive models
    /// and equal the same spec simulated alone in its own system.
    #[test]
    fn shared_ij_lanes_equal_filters_simulated_alone(
        refs in prop::collection::vec(ref_strategy(4, 512), 1..300),
        chunk_len in 1usize..64,
        (ij, hybrids, first) in (0usize..2, 2usize..5, 0usize..4),
        (standalone, eager) in (0usize..3, any::<bool>()),
    ) {
        let bank = shared_ij_bank(ij, hybrids, first, standalone, eager);
        let protocol = ProtocolKind::ALL[chunk_len % ProtocolKind::ALL.len()];
        assert_batched_matches_scalar(&refs, chunk_len, protocol, &bank, 512);
        assert_each_spec_matches_its_own_system(&refs, chunk_len, protocol, &bank);
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

/// A gated run whose deadline has already expired stops at the first
/// per-node gate check of the end-of-chunk replay and reports the stop.
/// The protocol pass has run, so every node's filter events are logged
/// but none has replayed yet. Running an empty chunk under no gate then
/// replays the pending logs, and the system is indistinguishable from one
/// that never stopped: the same protocol statistics, the same filter
/// reports, and filters that match the reference models.
#[test]
fn gated_replay_stops_at_an_expired_deadline_and_recovers() {
    let refs: Vec<MemRef> = (0..1000u64)
        .map(|i| MemRef {
            cpu: (i % 4) as usize,
            op: if i % 3 == 0 { Op::Write } else { Op::Read },
            addr: (i % 48) * 32,
        })
        .collect();
    let config = tiny_config(4, ProtocolKind::Moesi);
    let specs = FilterSpec::paper_bank();

    let mut sys = System::new(config, &specs);
    let expired = jetty_sim::RunGate::with_budget(std::time::Duration::ZERO);
    let stop = sys.run_chunk_gated(&refs, &expired).unwrap_err();
    assert!(
        matches!(stop, jetty_sim::GateStop::DeadlineExpired { budget_ms: 0 }),
        "unexpected stop: {stop:?}"
    );
    for report in sys.filter_reports() {
        assert_eq!(report.probes, 0, "{}: replayed before the gate stopped it", report.label);
    }

    sys.run_chunk(&[]);
    let mut ungated = System::new(config, &specs);
    ungated.run_chunk(&refs);
    assert_eq!(sys.run_stats(), ungated.run_stats(), "protocol stats after recovery");
    let (recovered, expected) = (sys.filter_reports(), ungated.filter_reports());
    assert_eq!(recovered.len(), expected.len());
    for (r, e) in recovered.iter().zip(&expected) {
        assert_eq!(r.label, e.label);
        assert_eq!(r.probes, e.probes, "{}: probes after recovery", r.label);
        assert_eq!(r.filtered, e.filtered, "{}: filtered after recovery", r.label);
        assert_eq!(r.would_miss, e.would_miss, "{}: would-miss after recovery", r.label);
        assert_eq!(r.activities, e.activities, "{}: activity after recovery", r.label);
    }
    assert!(expected.iter().any(|e| e.probes > 0), "the trace must exercise the filters");
    assert_reports_match_models(&sys, &observe(config, &specs, &refs), "recovered run");
    sys.verify_filter_consistency();
}
