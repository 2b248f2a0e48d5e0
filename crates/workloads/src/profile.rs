//! Declarative workload profiles: segments, sharing patterns, and the
//! paper's target statistics for calibration reporting.

use std::ops::RangeInclusive;

/// How per-CPU data is placed in the physical address space.
///
/// This matters enormously for the Include-Jetty: with [`Arena`]
/// placement, different CPUs' data lives in disjoint address ranges, so
/// the IJ's upper index slices discriminate remote snoops almost
/// perfectly (the raytrace behaviour — per-thread heaps). With
/// [`PageInterleaved`] placement the CPUs' partitions of one shared array
/// interleave at page granularity (SPLASH-2 style block-cyclic
/// decomposition), every index slice aliases between local and remote
/// data, and IJ coverage drops to the moderate levels the paper reports.
///
/// [`Arena`]: RegionLayout::Arena
/// [`PageInterleaved`]: RegionLayout::PageInterleaved
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RegionLayout {
    /// One contiguous region per CPU (per-thread heap/arena).
    #[default]
    Arena,
    /// CPU partitions interleave 4 KiB pages of one shared array
    /// (block-cyclic decomposition of shared data).
    PageInterleaved,
}

/// One memory-access pattern within a workload, with a sampling weight.
///
/// A workload is a weighted mixture of segments; each CPU picks a segment
/// per reference according to the weights, then the segment's pattern
/// produces an address and an access kind.
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentSpec {
    /// Per-CPU private data with a three-level working-set hierarchy:
    /// `p_hot` of accesses land in an L1-resident hot set, `p_warm` in an
    /// L2-resident warm set, and the remainder walks sequentially through a
    /// cold region (missing both levels). This is the knob for the paper's
    /// per-application L1/L2 local hit rates.
    Private {
        /// Sampling weight.
        weight: f64,
        /// Hot working set per CPU (choose ≤ half the L1 to mostly hit).
        hot_bytes: u64,
        /// Warm working set per CPU (L2-resident, mostly missing L1).
        warm_bytes: u64,
        /// Cold region per CPU, walked sequentially.
        cold_bytes: u64,
        /// Fraction of accesses to the hot set.
        p_hot: f64,
        /// Fraction of accesses to the warm set.
        p_warm: f64,
        /// Store fraction.
        write_frac: f64,
        /// Physical placement of the per-CPU regions.
        layout: RegionLayout,
    },
    /// Per-CPU streaming scan with no reuse beyond `refs_per_unit`
    /// consecutive references to each 32-byte unit (radix-style permutation
    /// traffic: every unit misses everywhere; zero remote hits).
    Streaming {
        /// Sampling weight.
        weight: f64,
        /// Region per CPU (wraps around).
        bytes: u64,
        /// Consecutive references per 32-byte unit (>= 1); higher values
        /// raise the L1 hit rate without creating sharing.
        refs_per_unit: u32,
        /// Store fraction.
        write_frac: f64,
        /// Physical placement of the per-CPU streams.
        layout: RegionLayout,
    },
    /// A region read (and occasionally written) by *all* CPUs: models
    /// widely-shared read-mostly data such as a Barnes-Hut tree. Accesses
    /// split between a small *hot* subset (widely cached everywhere; the
    /// rare writes to it invalidate every copy and re-reads produce 1-3
    /// remote-hit transactions) and a uniform *tail* over the full region
    /// (whose misses mostly find 0-1 remote copies).
    Shared {
        /// Sampling weight.
        weight: f64,
        /// Full region size (tail accesses are uniform over it).
        bytes: u64,
        /// Hot-subset size (keep it L1-scale). Set `hot_bytes == bytes`
        /// for a uniformly accessed region.
        hot_bytes: u64,
        /// Fraction of accesses that target the hot subset.
        hot_frac: f64,
        /// Mid-band size: popular-but-not-hot data (tree levels below the
        /// root). Mid units live in several L2s at once but get evicted by
        /// capacity pressure, so re-reads become bus transactions that find
        /// 1-3 remote copies *without* any write traffic — the dominant
        /// source of multi-remote-hit snoops in Barnes-style workloads.
        mid_bytes: u64,
        /// Fraction of accesses that target the mid band.
        mid_frac: f64,
        /// Store fraction; stores target the hot subset.
        write_frac: f64,
    },
    /// Producer/consumer channels: channel `c`'s producer is CPU
    /// `c mod ncpu`; the next `consumers` CPUs read it with a one-chunk
    /// lag. Consumer read misses find the producer's copy (one remote
    /// hit); producer rewrites find the consumers' copies.
    ProducerConsumer {
        /// Sampling weight.
        weight: f64,
        /// Channels (use a multiple of the CPU count so every CPU both
        /// produces and consumes).
        channels: usize,
        /// Bytes per channel.
        channel_bytes: u64,
        /// Consumers per channel (1 = pairwise, the common case).
        consumers: usize,
        /// Consecutive references per 32-byte unit.
        refs_per_unit: u32,
    },
    /// Migratory sharing: a pool of records, each owned by one CPU at a
    /// time; ownership rotates every `hold` segment references. Each visit
    /// reads then writes the record (critical-section style), so the next
    /// owner's miss finds exactly one (modified) remote copy.
    Migratory {
        /// Sampling weight.
        weight: f64,
        /// Records in the pool.
        records: usize,
        /// Bytes per record.
        record_bytes: u64,
        /// Segment references between ownership rotations.
        hold: u64,
    },
}

impl SegmentSpec {
    /// The sampling weight of this segment.
    pub fn weight(&self) -> f64 {
        match *self {
            SegmentSpec::Private { weight, .. }
            | SegmentSpec::Streaming { weight, .. }
            | SegmentSpec::Shared { weight, .. }
            | SegmentSpec::ProducerConsumer { weight, .. }
            | SegmentSpec::Migratory { weight, .. } => weight,
        }
    }
}

/// The paper's published numbers for one application (Tables 2 and 3),
/// kept for target-vs-measured reporting in EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperStats {
    /// Memory accesses, in millions (Table 2).
    pub accesses_m: f64,
    /// Memory allocated, in MB (Table 2).
    pub ma_mbytes: f64,
    /// L1 local hit rate (Table 2).
    pub l1_hit: f64,
    /// L2 local hit rate over L1 misses + writebacks (Table 2).
    pub l2_hit: f64,
    /// Snoop-induced L2 accesses, in millions (Table 2).
    pub snoop_accesses_m: f64,
    /// Remote-cache-hit distribution over transactions: fractions finding
    /// 0, 1, 2 or 3 remote copies (Table 3).
    pub remote_hits: [f64; 4],
    /// Snoop misses as a fraction of snoop accesses (Table 3).
    pub snoop_miss_of_snoops: f64,
    /// Snoop misses as a fraction of all L2 accesses (Table 3).
    pub snoop_miss_of_all: f64,
}

/// A complete synthetic workload calibrated to one of the paper's
/// applications.
#[derive(Clone, Debug)]
pub struct AppProfile {
    /// Full application name (e.g. `"Barnes"`).
    pub name: &'static str,
    /// The paper's two-letter abbreviation (e.g. `"ba"`).
    pub abbrev: &'static str,
    /// The paper's input parameters, for documentation.
    pub input_desc: &'static str,
    /// Published target statistics.
    pub paper: PaperStats,
    /// References to generate at scale 1.0 (roughly paper/100, capped).
    pub accesses: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// The weighted pattern mixture.
    pub segments: Vec<SegmentSpec>,
}

impl AppProfile {
    /// Sum of segment weights (the mixture normaliser).
    pub fn total_weight(&self) -> f64 {
        self.segments.iter().map(SegmentSpec::weight).sum()
    }

    /// The processor counts this profile can generate traces for: a
    /// producer/consumer channel needs its producer and `consumers`
    /// readers on distinct CPUs, and migratory sharing needs at least one
    /// record per CPU.
    pub fn supported_cpus(&self) -> RangeInclusive<usize> {
        let (mut lo, mut hi) = (1, usize::MAX);
        for seg in &self.segments {
            match *seg {
                SegmentSpec::ProducerConsumer { consumers, .. } => lo = lo.max(consumers + 1),
                SegmentSpec::Migratory { records, .. } => hi = hi.min(records),
                _ => {}
            }
        }
        lo..=hi
    }

    /// Validates the profile's internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on empty segment lists, non-positive weights, or Private
    /// probabilities that do not fit in `[0, 1]`.
    pub fn validate(&self) {
        assert!(!self.segments.is_empty(), "{}: no segments", self.name);
        for seg in &self.segments {
            assert!(seg.weight() > 0.0, "{}: non-positive weight", self.name);
            if let SegmentSpec::Private { p_hot, p_warm, .. } = *seg {
                assert!(
                    p_hot >= 0.0 && p_warm >= 0.0 && p_hot + p_warm <= 1.0,
                    "{}: hot/warm probabilities out of range",
                    self.name
                );
            }
        }
        assert!(self.accesses > 0, "{}: zero accesses", self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AppProfile {
        AppProfile {
            name: "Test",
            abbrev: "ts",
            input_desc: "n/a",
            paper: PaperStats {
                accesses_m: 1.0,
                ma_mbytes: 1.0,
                l1_hit: 0.9,
                l2_hit: 0.5,
                snoop_accesses_m: 0.1,
                remote_hits: [0.8, 0.2, 0.0, 0.0],
                snoop_miss_of_snoops: 0.9,
                snoop_miss_of_all: 0.5,
            },
            accesses: 1000,
            seed: 42,
            segments: vec![
                SegmentSpec::Private {
                    weight: 3.0,
                    hot_bytes: 1024,
                    warm_bytes: 4096,
                    cold_bytes: 65536,
                    p_hot: 0.9,
                    p_warm: 0.05,
                    write_frac: 0.3,
                    layout: RegionLayout::Arena,
                },
                SegmentSpec::Shared {
                    weight: 1.0,
                    bytes: 8192,
                    hot_bytes: 4096,
                    hot_frac: 0.9,
                    mid_bytes: 0,
                    mid_frac: 0.0,
                    write_frac: 0.05,
                },
            ],
        }
    }

    #[test]
    fn weights_sum() {
        assert!((profile().total_weight() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn validation_passes_for_sane_profile() {
        profile().validate();
    }

    #[test]
    #[should_panic(expected = "probabilities out of range")]
    fn validation_rejects_bad_probabilities() {
        let mut p = profile();
        p.segments[0] = SegmentSpec::Private {
            weight: 1.0,
            hot_bytes: 1,
            warm_bytes: 1,
            cold_bytes: 1,
            p_hot: 0.9,
            p_warm: 0.2,
            write_frac: 0.0,
            layout: RegionLayout::Arena,
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "no segments")]
    fn validation_rejects_empty_segments() {
        let mut p = profile();
        p.segments.clear();
        p.validate();
    }
}
