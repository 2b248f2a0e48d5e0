//! Replay kernels for the batched snoop path.
//!
//! The chunked runner (ARCHITECTURE §2a) funnels every hot probe loop
//! through `apply_batch`, which hands each node's whole
//! [`FilterEvent`] chunk to **one kernel call** — no gather pass, no
//! scratch copy: the kernel consumes the event array in place, splits
//! addresses with the filter's [`EjGeom`]/[`VejGeom`] shift/mask
//! geometry as it goes, and fuses find + probe + record around a single
//! lookup per snoop. Each kernel is the one body of its filter family's
//! per-event logic: a filter's one-event calls (`probe`, `on_allocate`,
//! `on_deallocate`) replay a single event through the same kernel, so
//! there is no second path to drift from. The reference models in
//! `jetty-core`'s `reference_models` tests check each kernel against a
//! naive implementation of the paper's structures.
//!
//! # Why the way scans need no empty-way masking
//!
//! EJ keys (`tag << 1 | present`) and VEJ tags mark never-used ways with
//! the all-ones sentinel (`u64::MAX`). Real tags are bounded by the
//! address space (at most ~34 bits), so a sentinel can never compare
//! equal to a probe tag. Likewise IJ's packed p-bit bitmap is a plain
//! dense array indexed by masked address bits, so every index stays in
//! bounds by construction — asserted once per call in the entry points
//! below, which are the kernels' input checks.

// Kernel signatures pass the filter geometry as flat scalars (shifts,
// masks, widths) rather than bundling them into structs: the arguments
// mirror the paper's array parameters one-to-one and keep the hot call
// ABI register-only.
#![allow(clippy::too_many_arguments)]

use crate::filter::{FilterEvent, MissScope};

/// Address-split geometry of an Exclude-Jetty, precomputed so the
/// replay kernel can turn a raw unit address into (set, tag) with two
/// shifts and a mask — no per-event method calls back into the filter.
#[derive(Clone, Copy, Debug)]
pub struct EjGeom {
    /// Right-shift turning a raw unit address into a block address.
    pub block_shift: u32,
    /// `sets - 1`: the set-index mask applied to the block address.
    pub set_mask: u64,
    /// `log2(sets)`: the tag shift.
    pub set_bits: u32,
}

/// Address-split geometry of a Vector-Exclude-Jetty: like [`EjGeom`]
/// with a present-vector lane peeled off the block address first.
#[derive(Clone, Copy, Debug)]
pub struct VejGeom {
    /// Right-shift turning a raw unit address into a block address.
    pub block_shift: u32,
    /// `vector_len - 1`: the lane mask applied to the block address.
    pub lane_mask: u64,
    /// `log2(vector_len)`: the chunk shift.
    pub lane_bits: u32,
    /// `sets - 1`: the set-index mask applied to the chunk address.
    pub set_mask: u64,
    /// `log2(sets)`: the tag shift.
    pub set_bits: u32,
}

/// Result of replaying one event chunk through an EJ/VEJ kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayOut {
    /// Snoop events in the chunk (uniform tag-read probe charges).
    pub probes: u64,
    /// Allocate events in the chunk (uniform tag-read charges).
    pub allocates: u64,
    /// Snoops this component itself answered `NotCached`.
    pub filtered: u64,
    /// Snoops filtered by this component *or* by the paired IJ verdict
    /// slice — the hybrid's union verdict count. Equals `filtered` for
    /// standalone replays.
    pub union_filtered: u64,
    /// Block records inserted or refreshed.
    pub records: u64,
    /// Tag-array writes caused by allocate events clearing a present
    /// bit/lane.
    pub writes: u64,
    /// The LRU clock after the chunk.
    pub clock: u64,
    /// Index (into the event chunk) of the first snoop whose union
    /// verdict filtered a `would_hit` event — an unsafe-filter bug the
    /// caller must turn into the standard panic (the kernel stops
    /// there, leaving the state of every earlier event applied).
    pub unsafe_at: Option<usize>,
}

/// Result of replaying one event chunk through the IJ kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IjReplayOut {
    /// Snoop events in the chunk (uniform p-bit-read probe charges).
    pub probes: u64,
    /// Allocate events in the chunk (uniform counter-RMW charges).
    pub allocates: u64,
    /// Deallocate events in the chunk (uniform counter-RMW charges).
    pub deallocates: u64,
    /// Snoops the Include-Jetty answered `NotCached` (each also pushed
    /// as `true` into the verdict vector).
    pub filtered: u64,
    /// Index of the first snoop that filtered a `would_hit` event. The
    /// kernel keeps going (the hybrid's EJ/VEJ pass is the panic
    /// authority and must see every verdict); a standalone IJ replay
    /// panics on it after the call, and any state mutated past that
    /// point is unobservable behind the panic.
    pub unsafe_at: Option<usize>,
}

/// Lowest way index in one Exclude-Jetty set window `keys` whose key
/// matches `tag` (`key >> 1 == tag`; the all-ones empty key can never
/// match a real tag), used by [`ej_replay`].
///
/// The scan is branchless — every way is compared and the match
/// selected with a conditional move — because the matching way's
/// position is data-dependent: an early-exit scan mispredicts on nearly
/// every hit, and sets are at most a few ways wide anyway. Tags are
/// unique within a set (records only insert after a failed find), so
/// scan order cannot change the answer.
#[inline]
fn find_key_ej(keys: &[u64], tag: u64) -> Option<usize> {
    let mut found = usize::MAX;
    for (way, &k) in keys.iter().enumerate().rev() {
        if k >> 1 == tag {
            found = way;
        }
    }
    (found != usize::MAX).then_some(found)
}

/// Lowest way index in one Vector-Exclude-Jetty set window `tags` equal
/// to `tag` (the all-ones empty tag can never match a real chunk tag),
/// used by [`vej_replay`]; branchless for the same reason as
/// [`find_key_ej`].
#[inline]
fn find_key_vej(tags: &[u64], tag: u64) -> Option<usize> {
    let mut found = usize::MAX;
    for (way, &t) in tags.iter().enumerate().rev() {
        if t == tag {
            found = way;
        }
    }
    (found != usize::MAX).then_some(found)
}

/// Replays one [`FilterEvent`] chunk against an Exclude-Jetty's flat
/// `keys`/`stamps` arrays, splitting each unit address with `geom` as
/// it goes — a probe fused with the record of an unfiltered miss. Per
/// snoop: find the way (lowest match), stamp the LRU
/// clock on a hit, count the filtered/union-filtered snoop (stopping at
/// the first unsafe one), set
/// the present bit or insert via a first-minimum victim scan on
/// recordable misses that nothing filtered. Per allocate: find + clear
/// the present bit (counted in [`ReplayOut::writes`]). A deallocate
/// never changes EJ state.
///
/// `ij_filtered` is the hybrid's IJ verdict slice, parallel to
/// `events` (one `bool` per event, `true` only for IJ-filtered
/// snoops); pass an empty slice for a standalone replay. An
/// IJ-filtered snoop is treated as already filtered: it cannot record,
/// and it counts toward [`ReplayOut::union_filtered`] and the
/// unsafe-filter check.
///
/// # Panics
///
/// Panics if `ways` is zero, the arrays' lengths differ from
/// `sets * ways` per `geom`, or `ij_filtered` is neither empty nor
/// parallel to `events`.
pub fn ej_replay(
    keys: &mut [u64],
    stamps: &mut [u64],
    ways: usize,
    clock: u64,
    geom: EjGeom,
    events: &[FilterEvent],
    ij_filtered: &[bool],
) -> ReplayOut {
    assert!(ways > 0, "EJ replay needs a nonzero associativity");
    assert_eq!(keys.len(), stamps.len(), "EJ keys and stamps must be parallel");
    assert_eq!(
        keys.len(),
        (geom.set_mask as usize + 1) * ways,
        "EJ arrays must hold sets * ways entries"
    );
    assert!(
        ij_filtered.is_empty() || ij_filtered.len() == events.len(),
        "IJ verdict slice must be empty or parallel to the event chunk"
    );
    let mut out = ReplayOut { clock, ..ReplayOut::default() };
    for (i, e) in events.iter().enumerate() {
        match *e {
            FilterEvent::Snoop { unit, would_hit, scope } => {
                out.probes += 1;
                let block = unit.raw() >> geom.block_shift;
                let base = (block & geom.set_mask) as usize * ways;
                let tag = block >> geom.set_bits;
                let keys = &mut keys[base..base + ways];
                let stamps = &mut stamps[base..base + ways];
                let ijf = !ij_filtered.is_empty() && ij_filtered[i];
                let recordable = !would_hit && scope == MissScope::Block && !ijf;
                let mut ej_filtered = false;
                if let Some(way) = find_key_ej(keys, tag) {
                    out.clock += 1;
                    stamps[way] = out.clock;
                    if keys[way] & 1 != 0 {
                        ej_filtered = true;
                        out.filtered += 1;
                    } else if recordable {
                        out.records += 1;
                        keys[way] |= 1;
                        out.clock += 1;
                        stamps[way] = out.clock;
                    }
                } else if recordable {
                    out.records += 1;
                    out.clock += 1;
                    let victim = lru_victim(stamps);
                    keys[victim] = tag << 1 | 1;
                    stamps[victim] = out.clock;
                }
                if ej_filtered || ijf {
                    out.union_filtered += 1;
                    if would_hit {
                        out.unsafe_at = Some(i);
                        return out;
                    }
                }
            }
            FilterEvent::Allocate(unit) => {
                out.allocates += 1;
                let block = unit.raw() >> geom.block_shift;
                let base = (block & geom.set_mask) as usize * ways;
                let tag = block >> geom.set_bits;
                let keys = &mut keys[base..base + ways];
                if let Some(way) = find_key_ej(keys, tag) {
                    if keys[way] & 1 != 0 {
                        keys[way] &= !1;
                        out.writes += 1;
                    }
                }
            }
            FilterEvent::Deallocate(_) => {}
        }
    }
    out
}

/// Replays one [`FilterEvent`] chunk against a Vector-Exclude-Jetty's
/// flat `tags`/`vectors`/`stamps` arrays (the [`ej_replay`] logic with
/// a present-vector lane test in place of the present bit; `geom`
/// additionally peels the lane off the block address).
///
/// # Panics
///
/// Panics if `ways` is zero, the arrays' lengths differ from
/// `sets * ways` per `geom`, or `ij_filtered` is neither empty nor
/// parallel to `events`.
pub fn vej_replay(
    tags: &mut [u64],
    vectors: &mut [u64],
    stamps: &mut [u64],
    ways: usize,
    clock: u64,
    geom: VejGeom,
    events: &[FilterEvent],
    ij_filtered: &[bool],
) -> ReplayOut {
    assert!(ways > 0, "VEJ replay needs a nonzero associativity");
    assert_eq!(tags.len(), vectors.len(), "VEJ tags and vectors must be parallel");
    assert_eq!(tags.len(), stamps.len(), "VEJ tags and stamps must be parallel");
    assert_eq!(
        tags.len(),
        (geom.set_mask as usize + 1) * ways,
        "VEJ arrays must hold sets * ways entries"
    );
    assert!(
        ij_filtered.is_empty() || ij_filtered.len() == events.len(),
        "IJ verdict slice must be empty or parallel to the event chunk"
    );
    let mut out = ReplayOut { clock, ..ReplayOut::default() };
    for (i, e) in events.iter().enumerate() {
        match *e {
            FilterEvent::Snoop { unit, would_hit, scope } => {
                out.probes += 1;
                let block = unit.raw() >> geom.block_shift;
                let bit = 1u64 << (block & geom.lane_mask);
                let chunk = block >> geom.lane_bits;
                let base = (chunk & geom.set_mask) as usize * ways;
                let tag = chunk >> geom.set_bits;
                let tags = &mut tags[base..base + ways];
                let vectors = &mut vectors[base..base + ways];
                let stamps = &mut stamps[base..base + ways];
                let ijf = !ij_filtered.is_empty() && ij_filtered[i];
                let recordable = !would_hit && scope == MissScope::Block && !ijf;
                let mut ej_filtered = false;
                if let Some(way) = find_key_vej(tags, tag) {
                    out.clock += 1;
                    stamps[way] = out.clock;
                    if vectors[way] & bit != 0 {
                        ej_filtered = true;
                        out.filtered += 1;
                    } else if recordable {
                        out.records += 1;
                        vectors[way] |= bit;
                        out.clock += 1;
                        stamps[way] = out.clock;
                    }
                } else if recordable {
                    out.records += 1;
                    out.clock += 1;
                    let victim = lru_victim(stamps);
                    tags[victim] = tag;
                    vectors[victim] = bit;
                    stamps[victim] = out.clock;
                }
                if ej_filtered || ijf {
                    out.union_filtered += 1;
                    if would_hit {
                        out.unsafe_at = Some(i);
                        return out;
                    }
                }
            }
            FilterEvent::Allocate(unit) => {
                out.allocates += 1;
                let block = unit.raw() >> geom.block_shift;
                let bit = 1u64 << (block & geom.lane_mask);
                let chunk = block >> geom.lane_bits;
                let base = (chunk & geom.set_mask) as usize * ways;
                let tag = chunk >> geom.set_bits;
                let tags = &mut tags[base..base + ways];
                let vectors = &mut vectors[base..base + ways];
                if let Some(way) = find_key_vej(tags, tag) {
                    if vectors[way] & bit != 0 {
                        vectors[way] &= !bit;
                        out.writes += 1;
                    }
                }
            }
            FilterEvent::Deallocate(_) => {}
        }
    }
    out
}

/// Way index of the least recently stamped entry in one set's LRU
/// `stamps` (the first minimum). Shared by the EJ/VEJ replay kernels.
#[inline]
fn lru_victim(stamps: &[u64]) -> usize {
    let mut victim = 0;
    let mut oldest = stamps[0];
    for (w, &st) in stamps.iter().enumerate().skip(1) {
        if st < oldest {
            oldest = st;
            victim = w;
        }
    }
    victim
}

/// The lowest sub-array whose Include-Jetty p-bit selected by `unit` is
/// clear (`Some` means the unit is guaranteed absent). Sub-array `i` is
/// indexed by bits `[i*skip, i*skip + index_bits)` of the unit address;
/// entry `idx` of sub-array `i` lives at packed bit `(i << index_bits) |
/// idx` of `pbits`. The hardware reads all N rows in parallel; exiting
/// on the first clear bit changes neither the verdict nor the uniform
/// per-probe energy charge, and tells the eager-ablation hybrid's block
/// test how many rows it read.
#[inline]
pub(crate) fn first_clear_pbit(
    pbits: &[u64],
    unit: u64,
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
) -> Option<u32> {
    let mask = (1u64 << index_bits) - 1;
    for i in 0..sub_arrays {
        let lo = i * skip;
        let idx = if lo >= 64 { 0 } else { (unit >> lo) & mask };
        let slot = ((i as usize) << index_bits) | idx as usize;
        if pbits[slot >> 6] & (1u64 << (slot & 63)) == 0 {
            return Some(i);
        }
    }
    None
}

/// One Include-Jetty allocate: per sub-array, the counter
/// read-modify-write plus the data-dependent p-bit `0 -> 1` transition,
/// counted into `pbit_writes[sub_array]`. The counter read-modify-write
/// itself is a uniform charge the caller derives from event counts.
fn ij_allocate(
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    unit: u64,
    pbit_writes: &mut [u64],
) {
    let mask = (1u64 << index_bits) - 1;
    for i in 0..sub_arrays {
        let lo = i * skip;
        let idx = if lo >= 64 { 0 } else { (unit >> lo) & mask } as usize;
        let slot = ((i as usize) << index_bits) | idx;
        let count = &mut counts[slot];
        assert!(
            *count < u16::MAX,
            "IJ counter saturated in sub-array {i} entry {idx}: cache population \
             exceeds the u16 counter range for this configuration"
        );
        let was_zero = *count == 0;
        *count += 1;
        if was_zero {
            pbit_writes[i as usize] += 1;
            pbits[slot >> 6] |= 1u64 << (slot & 63);
        }
    }
}

/// One Include-Jetty deallocate: the [`ij_allocate`] sequence in reverse
/// (counter decrement, p-bit `1 -> 0` on the last departure), asserting
/// against underflow.
fn ij_deallocate(
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    unit: u64,
    pbit_writes: &mut [u64],
) {
    let mask = (1u64 << index_bits) - 1;
    for i in 0..sub_arrays {
        let lo = i * skip;
        let idx = if lo >= 64 { 0 } else { (unit >> lo) & mask } as usize;
        let slot = ((i as usize) << index_bits) | idx;
        let count = &mut counts[slot];
        assert!(
            *count > 0,
            "IJ counter underflow in sub-array {i} entry {idx}: \
             deallocate without matching allocate (protocol bug)"
        );
        *count -= 1;
        if *count == 0 {
            pbit_writes[i as usize] += 1;
            pbits[slot >> 6] &= !(1u64 << (slot & 63));
        }
    }
}

/// Replays one [`FilterEvent`] chunk against an Include-Jetty's
/// `counts`/`pbits` arrays. Snoops are pure p-bit tests;
/// allocates/deallocates perform the counter read-modify-writes in
/// event order, accumulating the data-dependent p-bit writes per
/// sub-array into `pbit_writes`. When `verdicts` is `Some`, one verdict
/// per event is appended (`true` only for IJ-filtered snoops; non-snoop
/// events push `false`), keeping it parallel to `events` for the
/// hybrid's EJ/VEJ pass; standalone callers pass `None` and skip
/// verdict recording entirely (the counters and `unsafe_at` carry
/// everything a lone IJ needs).
///
/// Unlike the EJ/VEJ replays this does **not** stop at the first unsafe
/// filter — the hybrid needs every snoop's verdict regardless (its EJ
/// pass is the panic authority), and for a standalone IJ the caller
/// panics right after the call, so the extra post-panic state is
/// unobservable.
///
/// # Panics
///
/// Panics unless `sub_arrays >= 1`, `index_bits < 32`, `counts` holds
/// exactly `sub_arrays << index_bits` entries covered by `pbits`, and
/// `pbit_writes` has one slot per sub-array. Also panics on counter
/// saturation/underflow.
pub fn ij_replay(
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    events: &[FilterEvent],
    verdicts: Option<&mut Vec<bool>>,
    pbit_writes: &mut [u64],
) -> IjReplayOut {
    assert!(sub_arrays >= 1, "IJ needs at least one sub-array");
    assert!(index_bits < 32, "IJ index width out of range");
    assert_eq!(
        counts.len(),
        (sub_arrays as usize) << index_bits,
        "IJ counts must hold sub_arrays << index_bits entries"
    );
    assert!(
        pbits.len() * 64 >= counts.len(),
        "p-bit bitmap too small for {sub_arrays} sub-arrays of 2^{index_bits} entries"
    );
    assert_eq!(pbit_writes.len(), sub_arrays as usize, "one p-bit write counter per sub-array");
    match verdicts {
        Some(v) => ij_replay_impl::<true>(
            counts,
            pbits,
            index_bits,
            sub_arrays,
            skip,
            events,
            v,
            pbit_writes,
        ),
        None => ij_replay_impl::<false>(
            counts,
            pbits,
            index_bits,
            sub_arrays,
            skip,
            events,
            &mut Vec::new(),
            pbit_writes,
        ),
    }
}

/// [`ij_replay`] body, monomorphised over whether verdicts are recorded
/// so the standalone path carries no per-event push.
fn ij_replay_impl<const RECORD: bool>(
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    events: &[FilterEvent],
    verdicts: &mut Vec<bool>,
    pbit_writes: &mut [u64],
) -> IjReplayOut {
    let mut out = IjReplayOut::default();
    for (i, e) in events.iter().enumerate() {
        match *e {
            FilterEvent::Snoop { unit, would_hit, .. } => {
                out.probes += 1;
                let absent =
                    first_clear_pbit(pbits, unit.raw(), index_bits, sub_arrays, skip).is_some();
                if RECORD {
                    verdicts.push(absent);
                }
                if absent {
                    out.filtered += 1;
                    if would_hit && out.unsafe_at.is_none() {
                        out.unsafe_at = Some(i);
                    }
                }
            }
            FilterEvent::Allocate(unit) => {
                out.allocates += 1;
                if RECORD {
                    verdicts.push(false);
                }
                ij_allocate(counts, pbits, index_bits, sub_arrays, skip, unit.raw(), pbit_writes);
            }
            FilterEvent::Deallocate(unit) => {
                out.deallocates += 1;
                if RECORD {
                    verdicts.push(false);
                }
                ij_deallocate(counts, pbits, index_bits, sub_arrays, skip, unit.raw(), pbit_writes);
            }
        }
    }
    out
}
