//! Naive reference models of the JETTY filters, written from the paper's
//! description (§3) and sharing no code with the flat filters they check.
//!
//! * Exclude-Jetty and Vector-Exclude-Jetty: per-set recency lists of
//!   `(tag, present bits)` records, most recently used first. An EJ is a
//!   VEJ whose records have a single lane.
//! * Include-Jetty: one count map per sub-array; a p-bit is "count > 0".
//! * Hybrid-Jetty: the composition of the two, under the paper's backup
//!   policy or the eager-allocation ablation.
//!
//! Each model consumes [`FilterEvent`]s one at a time, answers every
//! snoop's verdict, and keeps the [`FilterActivity`] the energy model
//! charges (probes, filtered snoops, per-array reads and writes), so a
//! test can compare a flat filter against it event by event. The models
//! are shared by `jetty-core`'s `reference_models` proptests and
//! `jetty-sim`'s `batch_equivalence` suite.

use std::collections::HashMap;

use jetty_core::{
    AddrSpace, ArrayActivity, EjAllocation, ExcludePart, FilterActivity, FilterEvent, FilterSpec,
    MissScope, UnitAddr,
};

/// One exclude record: a tag and the present bits of its lanes.
#[derive(Clone, Debug)]
struct Record {
    tag: u64,
    present: u64,
}

/// EJ/VEJ model: `sets` recency lists of at most `ways` records each.
#[derive(Clone, Debug)]
pub(crate) struct ExcludeModel {
    sets: u64,
    ways: usize,
    /// Blocks per record (1 for an EJ, the vector length for a VEJ).
    lanes: u64,
    /// log2 of the units per block.
    block_unit_shift: u32,
    /// Per set, most recently used record first.
    lists: Vec<Vec<Record>>,
    reads: u64,
    writes: u64,
    probes: u64,
    filtered: u64,
}

impl ExcludeModel {
    fn new(sets: usize, ways: usize, lanes: usize, space: AddrSpace) -> Self {
        Self {
            sets: sets as u64,
            ways,
            lanes: lanes as u64,
            block_unit_shift: space.block_unit_shift(),
            lists: vec![Vec::new(); sets],
            reads: 0,
            writes: 0,
            probes: 0,
            filtered: 0,
        }
    }

    /// `(set, tag, lane bit)` of the record covering `unit`'s block.
    fn locate(&self, unit: UnitAddr) -> (usize, u64, u64) {
        let block = unit.raw() >> self.block_unit_shift;
        let chunk = block / self.lanes;
        ((chunk % self.sets) as usize, chunk / self.sets, 1 << (block % self.lanes))
    }

    /// Reads one set; a matching record becomes the most recently used,
    /// and covers the snoop when its lane is present.
    fn probe(&mut self, unit: UnitAddr) -> bool {
        self.probes += 1;
        self.reads += 1;
        let (set, tag, bit) = self.locate(unit);
        let list = &mut self.lists[set];
        let Some(pos) = list.iter().position(|r| r.tag == tag) else {
            return false;
        };
        let record = list.remove(pos);
        let covered = record.present & bit != 0;
        list.insert(0, record);
        if covered {
            self.filtered += 1;
        }
        covered
    }

    /// Learns a snoop miss. Only a whole-block miss proves the block
    /// absent; recording it writes the set once and makes the record the
    /// most recently used, evicting the least recently used record of a
    /// full set when the tag is new.
    fn record(&mut self, unit: UnitAddr, scope: MissScope) {
        if scope != MissScope::Block {
            return;
        }
        self.writes += 1;
        let (set, tag, bit) = self.locate(unit);
        let ways = self.ways;
        let list = &mut self.lists[set];
        let record = match list.iter().position(|r| r.tag == tag) {
            Some(pos) => {
                let mut record = list.remove(pos);
                record.present |= bit;
                record
            }
            None => {
                if list.len() == ways {
                    list.pop();
                }
                Record { tag, present: bit }
            }
        };
        list.insert(0, record);
    }

    /// A local fill reads the set and clears the block's lane (one write
    /// when it was present); recency is untouched.
    fn allocate(&mut self, unit: UnitAddr) {
        self.reads += 1;
        let (set, tag, bit) = self.locate(unit);
        if let Some(record) = self.lists[set].iter_mut().find(|r| r.tag == tag) {
            if record.present & bit != 0 {
                record.present &= !bit;
                self.writes += 1;
            }
        }
    }

    /// A standalone EJ/VEJ snoop: probe, and learn a genuine miss that
    /// got through.
    fn snoop(&mut self, unit: UnitAddr, would_hit: bool, scope: MissScope) -> bool {
        let covered = self.probe(unit);
        if !covered && !would_hit {
            self.record(unit, scope);
        }
        covered
    }

    fn arrays(&self) -> Vec<ArrayActivity> {
        vec![ArrayActivity { reads: self.reads, writes: self.writes }]
    }
}

/// IJ model: one count map per sub-array.
#[derive(Clone, Debug)]
pub(crate) struct IncludeModel {
    index_bits: u32,
    skip: u32,
    block_unit_shift: u32,
    counts: Vec<HashMap<u64, u32>>,
    pbit_reads: Vec<u64>,
    pbit_writes: Vec<u64>,
    /// Allocates plus deallocates: each reads and writes one counter per
    /// sub-array.
    counter_updates: u64,
    probes: u64,
    filtered: u64,
}

impl IncludeModel {
    fn new(index_bits: u32, sub_arrays: u32, skip: u32, space: AddrSpace) -> Self {
        let n = sub_arrays as usize;
        Self {
            index_bits,
            skip,
            block_unit_shift: space.block_unit_shift(),
            counts: vec![HashMap::new(); n],
            pbit_reads: vec![0; n],
            pbit_writes: vec![0; n],
            counter_updates: 0,
            probes: 0,
            filtered: 0,
        }
    }

    fn index(&self, i: usize, unit: UnitAddr) -> u64 {
        unit.bits(i as u32 * self.skip, self.index_bits)
    }

    fn pbit(&self, i: usize, unit: UnitAddr) -> bool {
        self.counts[i].get(&self.index(i, unit)).is_some_and(|&c| c > 0)
    }

    /// A snoop reads one p-bit per sub-array and is filtered when any is
    /// clear.
    fn probe(&mut self, unit: UnitAddr) -> bool {
        self.probes += 1;
        for reads in &mut self.pbit_reads {
            *reads += 1;
        }
        let absent = (0..self.counts.len()).any(|i| !self.pbit(i, unit));
        if absent {
            self.filtered += 1;
        }
        absent
    }

    fn allocate(&mut self, unit: UnitAddr) {
        self.counter_updates += 1;
        for i in 0..self.counts.len() {
            let idx = self.index(i, unit);
            let count = self.counts[i].entry(idx).or_insert(0);
            if *count == 0 {
                self.pbit_writes[i] += 1;
            }
            *count += 1;
        }
    }

    fn deallocate(&mut self, unit: UnitAddr) {
        self.counter_updates += 1;
        for i in 0..self.counts.len() {
            let idx = self.index(i, unit);
            let count = self.counts[i].get_mut(&idx).expect("model deallocate without allocate");
            *count -= 1;
            if *count == 0 {
                self.pbit_writes[i] += 1;
                self.counts[i].remove(&idx);
            }
        }
    }

    /// The eager hybrid's block test: every unit of the block is absent.
    /// Each tested unit reads its sub-arrays' p-bits in order up to the
    /// first clear one; the test stops at the first unit that may be
    /// cached.
    fn block_absent(&mut self, unit: UnitAddr) -> bool {
        let block_units = 1u64 << self.block_unit_shift;
        let base = unit.raw() & !(block_units - 1);
        (0..block_units).all(|off| {
            let u = UnitAddr::new(base | off);
            for i in 0..self.counts.len() {
                self.pbit_reads[i] += 1;
                if !self.pbit(i, u) {
                    return true;
                }
            }
            false
        })
    }

    /// `[pbits[0], cnt[0], pbits[1], cnt[1], ...]`.
    fn arrays(&self) -> Vec<ArrayActivity> {
        (0..self.counts.len())
            .flat_map(|i| {
                [
                    ArrayActivity { reads: self.pbit_reads[i], writes: self.pbit_writes[i] },
                    ArrayActivity { reads: self.counter_updates, writes: self.counter_updates },
                ]
            })
            .collect()
    }
}

/// HJ model: an IJ and an EJ/VEJ probed in parallel.
#[derive(Clone, Debug)]
pub(crate) struct HybridModel {
    include: IncludeModel,
    exclude: ExcludeModel,
    eager: bool,
    probes: u64,
    filtered: u64,
}

impl HybridModel {
    /// Both parts are probed. Under the backup policy the exclude part
    /// learns only a genuine miss neither part filtered; the eager
    /// ablation also records an IJ-filtered snoop the exclude part missed,
    /// at block grain only when the IJ rules out the whole block.
    fn snoop(&mut self, unit: UnitAddr, would_hit: bool, scope: MissScope) -> bool {
        self.probes += 1;
        let ij = self.include.probe(unit);
        let ej = self.exclude.probe(unit);
        if ij && !ej && self.eager {
            let scope =
                if self.include.block_absent(unit) { MissScope::Block } else { MissScope::Unit };
            self.exclude.record(unit, scope);
        }
        if !ij && !ej && !would_hit {
            self.exclude.record(unit, scope);
        }
        if ij || ej {
            self.filtered += 1;
        }
        ij || ej
    }
}

/// A reference model of any [`FilterSpec`].
#[derive(Clone, Debug)]
pub(crate) enum Model {
    /// The null filter: counts probes, filters nothing.
    Null(u64),
    /// EJ or VEJ.
    Exclude(ExcludeModel),
    /// IJ.
    Include(IncludeModel),
    /// HJ.
    Hybrid(HybridModel),
}

fn exclude_model(part: ExcludePart, space: AddrSpace) -> ExcludeModel {
    match part {
        ExcludePart::Scalar(c) => ExcludeModel::new(c.sets, c.ways, 1, space),
        ExcludePart::Vector(c) => ExcludeModel::new(c.sets, c.ways, c.vector_len, space),
    }
}

impl Model {
    /// A fresh (empty) model of `spec`.
    pub(crate) fn new(spec: &FilterSpec, space: AddrSpace) -> Self {
        match *spec {
            FilterSpec::Null => Model::Null(0),
            FilterSpec::Exclude(c) => Model::Exclude(exclude_model(c.into(), space)),
            FilterSpec::VectorExclude(c) => Model::Exclude(exclude_model(c.into(), space)),
            FilterSpec::Include(c) => {
                Model::Include(IncludeModel::new(c.index_bits, c.sub_arrays, c.skip, space))
            }
            FilterSpec::Hybrid(c) => Model::Hybrid(HybridModel {
                include: IncludeModel::new(
                    c.include.index_bits,
                    c.include.sub_arrays,
                    c.include.skip,
                    space,
                ),
                exclude: exclude_model(c.exclude, space),
                eager: c.ej_allocation == EjAllocation::Eager,
                probes: 0,
                filtered: 0,
            }),
        }
    }

    /// Applies one event; a snoop returns `Some(filtered)`.
    pub(crate) fn apply(&mut self, event: FilterEvent) -> Option<bool> {
        match event {
            FilterEvent::Snoop { unit, would_hit, scope } => Some(match self {
                Model::Null(probes) => {
                    *probes += 1;
                    false
                }
                Model::Exclude(m) => m.snoop(unit, would_hit, scope),
                Model::Include(m) => m.probe(unit),
                Model::Hybrid(m) => m.snoop(unit, would_hit, scope),
            }),
            FilterEvent::Allocate(unit) => {
                match self {
                    Model::Null(_) => {}
                    Model::Exclude(m) => m.allocate(unit),
                    Model::Include(m) => m.allocate(unit),
                    Model::Hybrid(m) => {
                        m.include.allocate(unit);
                        m.exclude.allocate(unit);
                    }
                }
                None
            }
            FilterEvent::Deallocate(unit) => {
                match self {
                    Model::Include(m) => m.deallocate(unit),
                    Model::Hybrid(m) => m.include.deallocate(unit),
                    Model::Null(_) | Model::Exclude(_) => {}
                }
                None
            }
        }
    }

    /// The activity a flat filter of the same spec must report.
    pub(crate) fn activity(&self) -> FilterActivity {
        match self {
            Model::Null(probes) => {
                FilterActivity { arrays: Vec::new(), probes: *probes, filtered: 0 }
            }
            Model::Exclude(m) => {
                FilterActivity { arrays: m.arrays(), probes: m.probes, filtered: m.filtered }
            }
            Model::Include(m) => {
                FilterActivity { arrays: m.arrays(), probes: m.probes, filtered: m.filtered }
            }
            Model::Hybrid(m) => {
                let mut arrays = m.include.arrays();
                arrays.extend(m.exclude.arrays());
                FilterActivity { arrays, probes: m.probes, filtered: m.filtered }
            }
        }
    }
}
