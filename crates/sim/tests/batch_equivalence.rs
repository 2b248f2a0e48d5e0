//! Batched-vs-scalar equivalence: [`System::run_chunk`] defers the filter
//! bank to a per-chunk event replay, and that replay must be *invisible* —
//! a chunked run and a reference-at-a-time scalar run over the same trace
//! must agree on every observable: protocol statistics, L2 states, and
//! every filter's probes/filtered/would-miss counts and per-node array
//! activity. This is the property the golden-output byte-identity checks
//! sample at three scales; here proptest hammers it with arbitrary traces,
//! arbitrary chunk boundaries, and every pluggable protocol.

use jetty_core::{AddrSpace, FilterSpec};
use jetty_sim::{CheckLevel, L1Config, L2Config, MemRef, Op, ProtocolKind, System, SystemConfig};
use proptest::prelude::*;

/// The tiny thrashing geometry from `protocol_fuzz`, but with checks off:
/// `CheckLevel::Full` forces the scalar fallback inside `run_chunk`, and
/// this suite exists to exercise the *batched* path.
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

/// Runs `refs` through a batched system (chunks of `chunk_len`) and a
/// scalar one, then asserts every observable matches.
fn assert_batched_matches_scalar(
    refs: &[MemRef],
    chunk_len: usize,
    protocol: ProtocolKind,
    specs: &[FilterSpec],
    units: u64,
) {
    let mut batched = System::new(tiny_config(4, protocol), specs);
    let mut scalar = System::new(tiny_config(4, protocol), specs);

    for chunk in refs.chunks(chunk_len) {
        batched.run_chunk(chunk);
    }
    for &r in refs {
        scalar.apply(r);
    }

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
    let b_reports = batched.filter_reports();
    let s_reports = scalar.filter_reports();
    assert_eq!(b_reports.len(), s_reports.len());
    for (b, s) in b_reports.iter().zip(&s_reports) {
        assert_eq!(b.label, s.label);
        assert_eq!(b.probes, s.probes, "{}: probe count diverged", b.label);
        assert_eq!(b.filtered, s.filtered, "{}: filtered count diverged", b.label);
        assert_eq!(b.would_miss, s.would_miss, "{}: would-miss denominator diverged", b.label);
        assert_eq!(b.activities, s.activities, "{}: per-node array activity diverged", b.label);
    }
    batched.verify_filter_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The full paper bank (include, exclude, vector-exclude and hybrid
    /// variants all at once) over contended traffic: batched replay must
    /// be observation-identical for every protocol and any chunk boundary,
    /// including chunk lengths that leave a partial final chunk. Odd
    /// geometries ride along — direct-mapped, non-power-of-two and 9-way
    /// exclude sets — so the shared way scan is exercised at set widths
    /// the paper never uses.
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
    /// IJ-filtered snoops, through the same `probe` the eager path calls.
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

    /// An empty filter bank takes the scalar fallback inside `run_chunk`;
    /// the protocol path must still be identical to `apply`.
    #[test]
    fn empty_bank_chunks_match_scalar(
        refs in prop::collection::vec(ref_strategy(4, 32), 1..300),
        chunk_len in 1usize..64,
    ) {
        assert_batched_matches_scalar(&refs, chunk_len, ProtocolKind::Moesi, &[], 32);
    }
}

/// Under `CheckLevel::Full`, `run_chunk` must fall back to scalar probing
/// so the filter-safety assertion still fires *at* the offending access —
/// and the per-access checkers still see every intermediate state. This
/// pins the fallback condition documented in ARCHITECTURE §2a.1.
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
    sys.verify_inclusion();
    sys.verify_filter_consistency();
}
