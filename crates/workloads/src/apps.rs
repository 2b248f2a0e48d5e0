//! The ten calibrated application profiles.
//!
//! The paper traces SPLASH-2 applications plus Em3d and Unstructured with
//! WWT2; we cannot rerun those binaries, so each application is replaced by
//! a synthetic mixture of sharing patterns (private hierarchies, streams,
//! widely-shared data, producer/consumer channels, migratory records) whose
//! parameters are tuned until the simulated statistics approximate the
//! paper's Tables 2 and 3: L1/L2 local hit rates, snoop volume, and the
//! remote-cache-hit distribution. The published targets ride along in
//! [`PaperStats`] so the experiment harness can print target-vs-measured
//! for every row (recorded in EXPERIMENTS.md).
//!
//! Scaling: reference counts are ~1/100 of the paper's (capped to keep the
//! full suite in seconds), and footprints are sized relative to the 64 KB
//! L1 / 1 MB L2 rather than matching the paper's absolute megabytes — hit
//! rates and sharing mix are what JETTY sees, not raw bytes.

use std::ops::RangeInclusive;

use crate::profile::{AppProfile, PaperStats, RegionLayout, SegmentSpec};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// All ten applications, in the paper's table order.
pub fn all() -> Vec<AppProfile> {
    vec![
        barnes(),
        cholesky(),
        em3d(),
        fft(),
        fmm(),
        lu(),
        ocean(),
        radix(),
        raytrace(),
        unstructured(),
    ]
}

/// The processor counts every application can generate traces for: the
/// intersection of each profile's [`AppProfile::supported_cpus`].
pub fn supported_cpus() -> RangeInclusive<usize> {
    all()
        .iter()
        .map(AppProfile::supported_cpus)
        .fold(1..=usize::MAX, |a, b| *a.start().max(b.start())..=*a.end().min(b.end()))
}

/// Looks an application up by its two-letter abbreviation.
pub fn by_abbrev(abbrev: &str) -> Option<AppProfile> {
    all().into_iter().find(|p| p.abbrev == abbrev)
}

/// Barnes-Hut N-body: mostly private tree walks with a widely-read body
/// array and some true sharing at every level — the paper's most spread
/// remote-hit distribution (47/28/15/10).
pub fn barnes() -> AppProfile {
    AppProfile {
        name: "Barnes",
        abbrev: "ba",
        input_desc: "16K particles",
        paper: PaperStats {
            accesses_m: 967.0,
            ma_mbytes: 57.4,
            l1_hit: 0.978,
            l2_hit: 0.317,
            snoop_accesses_m: 47.1,
            remote_hits: [0.47, 0.28, 0.15, 0.10],
            snoop_miss_of_snoops: 0.71,
            snoop_miss_of_all: 0.48,
        },
        accesses: 6_000_000,
        seed: 0xba,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.958,
                hot_bytes: 12 * KB,
                warm_bytes: 64 * KB,
                cold_bytes: 3 * MB,
                p_hot: 0.9905,
                p_warm: 0.0012,
                write_frac: 0.04,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.012,
                channels: 8,
                channel_bytes: 4 * KB,
                consumers: 1,
                refs_per_unit: 4,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.010,
                channels: 4,
                channel_bytes: 4 * KB,
                consumers: 2,
                refs_per_unit: 4,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.014,
                channels: 4,
                channel_bytes: 4 * KB,
                consumers: 3,
                refs_per_unit: 4,
            },
            SegmentSpec::Migratory { weight: 0.006, records: 64, record_bytes: 64, hold: 200 },
        ],
    }
}

/// Sparse Cholesky factorisation: dominated by private panel updates, with
/// light pairwise supernode hand-off.
pub fn cholesky() -> AppProfile {
    AppProfile {
        name: "Cholesky",
        abbrev: "ch",
        input_desc: "tk15.O",
        paper: PaperStats {
            accesses_m: 224.4,
            ma_mbytes: 26.3,
            l1_hit: 0.98,
            l2_hit: 0.642,
            snoop_accesses_m: 9.9,
            remote_hits: [0.92, 0.05, 0.03, 0.0],
            snoop_miss_of_snoops: 0.95,
            snoop_miss_of_all: 0.59,
        },
        accesses: 2_250_000,
        seed: 0xc4,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.994,
                hot_bytes: 16 * KB,
                warm_bytes: 192 * KB,
                cold_bytes: 2 * MB,
                p_hot: 0.977,
                p_warm: 0.016,
                write_frac: 0.42,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.002,
                channels: 8,
                channel_bytes: 4 * KB,
                consumers: 1,
                refs_per_unit: 4,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.004,
                channels: 4,
                channel_bytes: 4 * KB,
                consumers: 2,
                refs_per_unit: 4,
            },
        ],
    }
}

/// Em3d electromagnetic wave propagation: a bipartite graph with 15%
/// remote edges — low hit rates, enormous snoop traffic, pairwise sharing.
pub fn em3d() -> AppProfile {
    AppProfile {
        name: "Em3d",
        abbrev: "em",
        input_desc: "76K nodes, 15% remote, degree 2",
        paper: PaperStats {
            accesses_m: 333.4,
            ma_mbytes: 34.4,
            l1_hit: 0.765,
            l2_hit: 0.233,
            snoop_accesses_m: 252.6,
            remote_hits: [0.80, 0.17, 0.02, 0.01],
            snoop_miss_of_snoops: 0.92,
            snoop_miss_of_all: 0.69,
        },
        accesses: 3_300_000,
        seed: 0xe3,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.64,
                hot_bytes: 16 * KB,
                warm_bytes: 96 * KB,
                cold_bytes: 4 * MB,
                p_hot: 0.925,
                p_warm: 0.002,
                write_frac: 0.02,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::Streaming {
                weight: 0.25,
                bytes: 2 * MB,
                refs_per_unit: 2,
                write_frac: 0.0,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.10,
                channels: 8,
                channel_bytes: 4 * KB,
                consumers: 1,
                refs_per_unit: 2,
            },
            SegmentSpec::Shared {
                weight: 0.01,
                bytes: 512 * KB,
                hot_bytes: 16 * KB,
                hot_frac: 0.7,
                mid_bytes: 64 * KB,
                mid_frac: 0.15,
                write_frac: 0.04,
            },
        ],
    }
}

/// Radix-2 FFT: private butterflies plus an all-to-all transpose whose
/// element-wise hand-offs are pairwise.
pub fn fft() -> AppProfile {
    AppProfile {
        name: "Fft",
        abbrev: "ff",
        input_desc: "256K data points",
        paper: PaperStats {
            accesses_m: 60.2,
            ma_mbytes: 12.7,
            l1_hit: 0.968,
            l2_hit: 0.363,
            snoop_accesses_m: 7.5,
            remote_hits: [0.93, 0.07, 0.0, 0.0],
            snoop_miss_of_snoops: 0.98,
            snoop_miss_of_all: 0.73,
        },
        accesses: 1_200_000,
        seed: 0xff,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.788,
                hot_bytes: 16 * KB,
                warm_bytes: 160 * KB,
                cold_bytes: 1536 * KB,
                p_hot: 0.988,
                p_warm: 0.0015,
                write_frac: 0.1,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::Streaming {
                weight: 0.20,
                bytes: 1536 * KB,
                refs_per_unit: 6,
                write_frac: 0.0,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.012,
                channels: 8,
                channel_bytes: 4 * KB,
                consumers: 1,
                refs_per_unit: 4,
            },
        ],
    }
}

/// Fast Multipole Method: very high hit rates, light pairwise interaction
/// lists.
pub fn fmm() -> AppProfile {
    AppProfile {
        name: "Fmm",
        abbrev: "fm",
        input_desc: "16K particles",
        paper: PaperStats {
            accesses_m: 1751.2,
            ma_mbytes: 36.1,
            l1_hit: 0.996,
            l2_hit: 0.812,
            snoop_accesses_m: 8.1,
            remote_hits: [0.82, 0.15, 0.02, 0.01],
            snoop_miss_of_snoops: 0.93,
            snoop_miss_of_all: 0.39,
        },
        accesses: 6_000_000,
        seed: 0xf1,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.993,
                hot_bytes: 20 * KB,
                warm_bytes: 96 * KB,
                cold_bytes: MB,
                p_hot: 0.9915,
                p_warm: 0.0075,
                write_frac: 0.38,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.003,
                channels: 8,
                channel_bytes: 4 * KB,
                consumers: 1,
                refs_per_unit: 4,
            },
            SegmentSpec::Shared {
                weight: 0.004,
                bytes: 256 * KB,
                hot_bytes: 16 * KB,
                hot_frac: 0.8,
                mid_bytes: 0,
                mid_frac: 0.0,
                write_frac: 0.01,
            },
        ],
    }
}

/// Blocked dense LU: block producers feed single consumers — the paper's
/// strongest pairwise (one-remote-hit) distribution after Unstructured.
pub fn lu() -> AppProfile {
    AppProfile {
        name: "Lu",
        abbrev: "lu",
        input_desc: "512x512 matrix, 16x16 blocks",
        paper: PaperStats {
            accesses_m: 188.7,
            ma_mbytes: 4.6,
            l1_hit: 0.957,
            l2_hit: 0.825,
            snoop_accesses_m: 6.3,
            remote_hits: [0.73, 0.26, 0.01, 0.0],
            snoop_miss_of_snoops: 0.91,
            snoop_miss_of_all: 0.39,
        },
        accesses: 1_900_000,
        seed: 0x10,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.972,
                hot_bytes: 20 * KB,
                warm_bytes: 160 * KB,
                cold_bytes: 768 * KB,
                p_hot: 0.955,
                p_warm: 0.040,
                write_frac: 0.45,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.028,
                channels: 8,
                channel_bytes: 4 * KB,
                consumers: 1,
                refs_per_unit: 4,
            },
        ],
    }
}

/// Ocean current simulation: large per-CPU grids with nearest-neighbour
/// boundary exchange — low hit rates, almost no sharing.
pub fn ocean() -> AppProfile {
    AppProfile {
        name: "Ocean",
        abbrev: "oc",
        input_desc: "258 x 258 ocean",
        paper: PaperStats {
            accesses_m: 182.8,
            ma_mbytes: 41.6,
            l1_hit: 0.835,
            l2_hit: 0.522,
            snoop_accesses_m: 90.0,
            remote_hits: [0.97, 0.03, 0.0, 0.0],
            snoop_miss_of_snoops: 0.99,
            snoop_miss_of_all: 0.66,
        },
        accesses: 1_850_000,
        seed: 0x0c,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.985,
                hot_bytes: 24 * KB,
                warm_bytes: 512 * KB,
                cold_bytes: 3 * MB,
                p_hot: 0.875,
                p_warm: 0.040,
                write_frac: 0.3,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.015,
                channels: 8,
                channel_bytes: 4 * KB,
                consumers: 1,
                refs_per_unit: 3,
            },
        ],
    }
}

/// Radix sort: streaming permutation writes — every miss is cold, nothing
/// is shared (the paper's 100%-zero-remote-hits row).
pub fn radix() -> AppProfile {
    AppProfile {
        name: "Radix",
        abbrev: "ra",
        input_desc: "10M keys",
        paper: PaperStats {
            accesses_m: 399.4,
            ma_mbytes: 82.1,
            l1_hit: 0.962,
            l2_hit: 0.794,
            snoop_accesses_m: 42.6,
            remote_hits: [1.0, 0.0, 0.0, 0.0],
            snoop_miss_of_snoops: 1.0,
            snoop_miss_of_all: 0.56,
        },
        accesses: 4_000_000,
        seed: 0x5a,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.80,
                hot_bytes: 20 * KB,
                warm_bytes: 256 * KB,
                cold_bytes: 768 * KB,
                p_hot: 0.947,
                p_warm: 0.036,
                write_frac: 0.55,
                layout: RegionLayout::Arena,
            },
            SegmentSpec::Streaming {
                weight: 0.20,
                bytes: 256 * KB,
                refs_per_unit: 12,
                write_frac: 0.6,
                layout: RegionLayout::Arena,
            },
        ],
    }
}

/// Raytrace: rays walk a read-shared BSP tree that stays resident
/// everywhere — superb hit rates and effectively zero remote hits.
pub fn raytrace() -> AppProfile {
    AppProfile {
        name: "Raytrace",
        abbrev: "rt",
        input_desc: "car",
        paper: PaperStats {
            accesses_m: 299.9,
            ma_mbytes: 69.1,
            l1_hit: 0.983,
            l2_hit: 0.466,
            snoop_accesses_m: 12.3,
            remote_hits: [1.0, 0.0, 0.0, 0.0],
            snoop_miss_of_snoops: 1.0,
            snoop_miss_of_all: 0.69,
        },
        accesses: 3_000_000,
        seed: 0x27,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.97,
                hot_bytes: 16 * KB,
                warm_bytes: 192 * KB,
                cold_bytes: 2 * MB,
                p_hot: 0.982,
                p_warm: 0.001,
                write_frac: 0.03,
                layout: RegionLayout::Arena,
            },
            SegmentSpec::Shared {
                weight: 0.012,
                bytes: 16 * KB,
                hot_bytes: 16 * KB,
                hot_frac: 1.0,
                mid_bytes: 0,
                mid_frac: 0.0,
                write_frac: 0.0,
            },
        ],
    }
}

/// Unstructured-mesh CFD: edge lists induce heavy pairwise communication —
/// the paper's outlier with only 33% zero-remote-hit snoops.
pub fn unstructured() -> AppProfile {
    AppProfile {
        name: "Unstructured",
        abbrev: "un",
        input_desc: "mesh 2K",
        paper: PaperStats {
            accesses_m: 1693.6,
            ma_mbytes: 3.5,
            l1_hit: 0.924,
            l2_hit: 0.787,
            snoop_accesses_m: 304.8,
            remote_hits: [0.33, 0.55, 0.04, 0.08],
            snoop_miss_of_snoops: 0.71,
            snoop_miss_of_all: 0.28,
        },
        accesses: 6_000_000,
        seed: 0x07,
        segments: vec![
            SegmentSpec::Private {
                weight: 0.825,
                hot_bytes: 20 * KB,
                warm_bytes: 128 * KB,
                cold_bytes: 256 * KB,
                p_hot: 0.965,
                p_warm: 0.031,
                write_frac: 0.45,
                layout: RegionLayout::PageInterleaved,
            },
            SegmentSpec::ProducerConsumer {
                weight: 0.115,
                channels: 8,
                channel_bytes: 4 * KB,
                consumers: 1,
                refs_per_unit: 5,
            },
            SegmentSpec::Migratory { weight: 0.005, records: 128, record_bytes: 64, hold: 50 },
            SegmentSpec::Shared {
                weight: 0.05,
                bytes: 512 * KB,
                hot_bytes: 16 * KB,
                hot_frac: 0.9,
                mid_bytes: 0,
                mid_frac: 0.0,
                write_frac: 0.035,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        let apps = all();
        assert_eq!(apps.len(), 10);
        for p in &apps {
            p.validate();
        }
    }

    #[test]
    fn abbreviations_match_paper_order() {
        let abbrevs: Vec<&str> = all().iter().map(|p| p.abbrev).collect();
        assert_eq!(abbrevs, vec!["ba", "ch", "em", "ff", "fm", "lu", "oc", "ra", "rt", "un"]);
    }

    #[test]
    fn lookup_by_abbrev() {
        assert_eq!(by_abbrev("lu").unwrap().name, "Lu");
        assert!(by_abbrev("zz").is_none());
    }

    #[test]
    fn paper_remote_hit_rows_sum_to_one() {
        for p in all() {
            let sum: f64 = p.paper.remote_hits.iter().sum();
            assert!((sum - 1.0).abs() < 0.02, "{}: remote hits sum {sum}", p.name);
        }
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<u64> = all().iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10);
    }

    #[test]
    fn paper_hit_rates_are_probabilities() {
        for p in all() {
            assert!((0.0..=1.0).contains(&p.paper.l1_hit));
            assert!((0.0..=1.0).contains(&p.paper.l2_hit));
        }
    }
}
