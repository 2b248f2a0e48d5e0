//! Declarative filter specifications.
//!
//! Experiments enumerate many filter configurations per run; [`FilterSpec`]
//! names a configuration as data so the harness can build one instance per
//! SMP node and label result rows with the paper's naming scheme.

use std::fmt;

use crate::addr::AddrSpace;
use crate::exclude::{ExcludeConfig, ExcludeJetty};
use crate::filter::{ArraySpec, FilterActivity, FilterEvent, SnoopFilter};
use crate::hybrid::{EjAllocation, ExcludePart, HybridConfig, HybridJetty};
use crate::include::{IncludeConfig, IncludeJetty};
use crate::null::NullFilter;
use crate::vector_exclude::{VectorExcludeConfig, VectorExcludeJetty};

/// A buildable description of a JETTY configuration.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, FilterSpec, SnoopFilter};
///
/// let spec = FilterSpec::hybrid_scalar(10, 4, 7, 32, 4);
/// assert_eq!(spec.label(), "(IJ-10x4x7, EJ-32x4)");
/// let filter = spec.build(AddrSpace::default());
/// assert_eq!(filter.name(), spec.label());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterSpec {
    /// No filtering (baseline).
    Null,
    /// An [`ExcludeJetty`].
    Exclude(ExcludeConfig),
    /// A [`VectorExcludeJetty`].
    VectorExclude(VectorExcludeConfig),
    /// An [`IncludeJetty`].
    Include(IncludeConfig),
    /// A [`HybridJetty`].
    Hybrid(HybridConfig),
}

impl FilterSpec {
    /// Shorthand for an `EJ-SxA` spec.
    pub fn exclude(sets: usize, ways: usize) -> Self {
        FilterSpec::Exclude(ExcludeConfig::new(sets, ways))
    }

    /// Shorthand for a `VEJ-SxA-V` spec.
    pub fn vector_exclude(sets: usize, ways: usize, vector_len: usize) -> Self {
        FilterSpec::VectorExclude(VectorExcludeConfig::new(sets, ways, vector_len))
    }

    /// Shorthand for an `IJ-ExNxS` spec.
    pub fn include(index_bits: u32, sub_arrays: u32, skip: u32) -> Self {
        FilterSpec::Include(IncludeConfig::new(index_bits, sub_arrays, skip))
    }

    /// Shorthand for an `(IJ-ExNxS, EJ-SxA)` hybrid spec.
    pub fn hybrid_scalar(e: u32, n: u32, s: u32, sets: usize, ways: usize) -> Self {
        FilterSpec::Hybrid(HybridConfig::new(
            IncludeConfig::new(e, n, s),
            ExcludeConfig::new(sets, ways),
        ))
    }

    /// Shorthand for an `(IJ-ExNxS, VEJ-SxA-V)` hybrid spec.
    pub fn hybrid_vector(e: u32, n: u32, s: u32, sets: usize, ways: usize, v: usize) -> Self {
        FilterSpec::Hybrid(HybridConfig::new(
            IncludeConfig::new(e, n, s),
            VectorExcludeConfig::new(sets, ways, v),
        ))
    }

    /// Shorthand for the eager-EJ-allocation ablation variant of
    /// [`FilterSpec::hybrid_scalar`].
    pub fn hybrid_scalar_eager(e: u32, n: u32, s: u32, sets: usize, ways: usize) -> Self {
        FilterSpec::Hybrid(
            HybridConfig::new(IncludeConfig::new(e, n, s), ExcludeConfig::new(sets, ways))
                .with_eager_allocation(),
        )
    }

    /// Largest filter [`FilterSpec::from_id`] accepts, in entries per
    /// node: EJ/VEJ sets × ways, or IJ sub-arrays × 2^index-bits counters
    /// (each half of a hybrid is capped on its own). A JETTY saves energy
    /// only while it is much smaller than the L2 tag array it shields: the
    /// paper's largest filter, IJ-10x4x7, has 4096 counters beside the
    /// 32768 subblock tags of a 1 MB L2 with 32-byte subblocks, so 65536
    /// entries is already twice that tag array. The cap turns a mistyped
    /// size into an error instead of a per-node allocation that aborts the
    /// process.
    pub const MAX_ENTRIES: usize = 1 << 16;

    /// Builds a fresh filter instance for one SMP node, as an
    /// [`AnyFilter`] value (no heap box, no vtable): the representation
    /// a [`FilterBank`](crate::FilterBank) stores its self-contained
    /// filters in, so every chunk replay is a direct, inlinable call on
    /// contiguous memory. The filter is [`Send`]
    /// ([`SnoopFilter`] requires it), so a built bank — and the simulated
    /// system holding it — can be handed to a worker thread.
    pub fn build(&self, space: AddrSpace) -> AnyFilter {
        match *self {
            FilterSpec::Null => AnyFilter::Null(NullFilter::new()),
            FilterSpec::Exclude(c) => AnyFilter::Exclude(ExcludeJetty::new(c, space)),
            FilterSpec::VectorExclude(c) => {
                AnyFilter::VectorExclude(VectorExcludeJetty::new(c, space))
            }
            FilterSpec::Include(c) => AnyFilter::Include(IncludeJetty::new(c, space)),
            FilterSpec::Hybrid(c) => AnyFilter::Hybrid(HybridJetty::new(c, space)),
        }
    }

    /// Stable machine-readable identifier: lowercase, and free of the
    /// spaces, commas and parentheses the paper-style [`FilterSpec::label`]
    /// uses — safe as a CSV cell, a JSON key, a file name, or a CLI axis
    /// value. Round-trips through [`FilterSpec::from_id`].
    ///
    /// # Examples
    ///
    /// ```
    /// use jetty_core::FilterSpec;
    ///
    /// let spec = FilterSpec::hybrid_scalar(10, 4, 7, 32, 4);
    /// assert_eq!(spec.id(), "hj-ij10x4x7-ej32x4");
    /// assert_eq!(FilterSpec::from_id(&spec.id()), Some(spec));
    /// ```
    pub fn id(&self) -> String {
        match self {
            FilterSpec::Null => "none".to_owned(),
            FilterSpec::Exclude(c) => format!("ej-{}x{}", c.sets, c.ways),
            FilterSpec::VectorExclude(c) => {
                format!("vej-{}x{}-{}", c.sets, c.ways, c.vector_len)
            }
            FilterSpec::Include(c) => {
                format!("ij-{}x{}x{}", c.index_bits, c.sub_arrays, c.skip)
            }
            FilterSpec::Hybrid(c) => {
                let ij = &c.include;
                let ej = match &c.exclude {
                    ExcludePart::Scalar(x) => format!("ej{}x{}", x.sets, x.ways),
                    ExcludePart::Vector(x) => format!("vej{}x{}-{}", x.sets, x.ways, x.vector_len),
                };
                let eager = match c.ej_allocation {
                    EjAllocation::Backup => "",
                    EjAllocation::Eager => "-eager",
                };
                format!("hj-ij{}x{}x{}-{}{}", ij.index_bits, ij.sub_arrays, ij.skip, ej, eager)
            }
        }
    }

    /// Parses a stable identifier produced by [`FilterSpec::id`]
    /// (case-insensitive, surrounding whitespace ignored). Returns `None`
    /// for unknown shapes *and* for invalid geometries (non-power-of-two
    /// set counts, zero ways, out-of-range IJ widths, VEJ vectors longer
    /// than 64, filters over [`FilterSpec::MAX_ENTRIES`]), so CLI surfaces
    /// can report errors instead of panicking in a config constructor or
    /// aborting on an impossible allocation.
    pub fn from_id(id: &str) -> Option<Self> {
        let id = id.trim().to_ascii_lowercase();
        if id == "none" {
            return Some(FilterSpec::Null);
        }
        if let Some(rest) = id.strip_prefix("hj-") {
            let (rest, eager) = match rest.strip_suffix("-eager") {
                Some(r) => (r, true),
                None => (rest, false),
            };
            let rest = rest.strip_prefix("ij")?;
            // The IJ dims contain no dashes, so the first `-ej` / `-vej`
            // cleanly separates the two components.
            let (ij_part, ej_part, vector) = if let Some(i) = rest.find("-vej") {
                (&rest[..i], &rest[i + 4..], true)
            } else if let Some(i) = rest.find("-ej") {
                (&rest[..i], &rest[i + 3..], false)
            } else {
                return None;
            };
            let (e, n, s) = parse_ij_dims(ij_part)?;
            let include = IncludeConfig::new(e, n, s);
            let config = if vector {
                let (sets, ways, v) = parse_vej_dims(ej_part)?;
                HybridConfig::new(include, VectorExcludeConfig::new(sets, ways, v))
            } else {
                let (sets, ways) = parse_ej_dims(ej_part)?;
                HybridConfig::new(include, ExcludeConfig::new(sets, ways))
            };
            let config = if eager { config.with_eager_allocation() } else { config };
            return Some(FilterSpec::Hybrid(config));
        }
        if let Some(rest) = id.strip_prefix("vej-") {
            let (sets, ways, v) = parse_vej_dims(rest)?;
            return Some(Self::vector_exclude(sets, ways, v));
        }
        if let Some(rest) = id.strip_prefix("ej-") {
            let (sets, ways) = parse_ej_dims(rest)?;
            return Some(Self::exclude(sets, ways));
        }
        if let Some(rest) = id.strip_prefix("ij-") {
            let (e, n, s) = parse_ij_dims(rest)?;
            return Some(Self::include(e, n, s));
        }
        None
    }

    /// Paper-style label for result rows.
    pub fn label(&self) -> String {
        match self {
            FilterSpec::Null => "none".to_owned(),
            FilterSpec::Exclude(c) => c.label(),
            FilterSpec::VectorExclude(c) => c.label(),
            FilterSpec::Include(c) => c.label(),
            FilterSpec::Hybrid(c) => c.label(),
        }
    }

    /// The six EJ configurations of Figure 4(a).
    pub fn figure4a_set() -> Vec<FilterSpec> {
        vec![
            Self::exclude(32, 4),
            Self::exclude(32, 2),
            Self::exclude(16, 4),
            Self::exclude(16, 2),
            Self::exclude(8, 4),
            Self::exclude(8, 2),
        ]
    }

    /// The four VEJ configurations of Figure 4(b) (the figure also repeats
    /// EJ-32x4 and EJ-16x4 for comparison; include those via
    /// [`FilterSpec::figure4a_set`]).
    pub fn figure4b_set() -> Vec<FilterSpec> {
        vec![
            Self::vector_exclude(32, 4, 8),
            Self::vector_exclude(32, 4, 4),
            Self::vector_exclude(16, 4, 8),
            Self::vector_exclude(16, 4, 4),
        ]
    }

    /// The five IJ configurations of Figure 5(a).
    pub fn figure5a_set() -> Vec<FilterSpec> {
        vec![
            Self::include(10, 4, 7),
            Self::include(9, 4, 7),
            Self::include(8, 4, 7),
            Self::include(7, 5, 6),
            Self::include(6, 5, 6),
        ]
    }

    /// The six HJ configurations of Figure 5(b) / Figure 6(a):
    /// (Ia..Ic, Ea..Eb) with Ia=IJ-10x4x7, Ib=IJ-9x4x7, Ic=IJ-8x4x7,
    /// Ea=EJ-32x4, Eb=EJ-16x2.
    pub fn figure5b_set() -> Vec<FilterSpec> {
        let mut specs = Vec::new();
        for ej in [(32usize, 4usize), (16, 2)] {
            for ij in [(10u32, 4u32, 7u32), (9, 4, 7), (8, 4, 7)] {
                specs.push(Self::hybrid_scalar(ij.0, ij.1, ij.2, ej.0, ej.1));
            }
        }
        specs
    }

    /// Every configuration evaluated anywhere in the paper, deduplicated —
    /// the full bank attached to each node in a reproduction run.
    pub fn paper_bank() -> Vec<FilterSpec> {
        let mut bank = Vec::new();
        bank.extend(Self::figure4a_set());
        bank.extend(Self::figure4b_set());
        bank.extend(Self::figure5a_set());
        bank.extend(Self::figure5b_set());
        // §4.3.4 also mentions (IJ-10x4x7, VEJ-32x4-8) reaching 77%.
        bank.push(Self::hybrid_vector(10, 4, 7, 32, 4, 8));
        bank
    }
}

/// Parses `SETSxWAYS`, validating what [`ExcludeConfig::new`] asserts
/// and the [`FilterSpec::MAX_ENTRIES`] cap.
fn parse_ej_dims(s: &str) -> Option<(usize, usize)> {
    let (sets, ways) = s.split_once('x')?;
    let (sets, ways): (usize, usize) = (sets.parse().ok()?, ways.parse().ok()?);
    let capped = sets.checked_mul(ways).is_some_and(|n| n <= FilterSpec::MAX_ENTRIES);
    (sets.is_power_of_two() && ways > 0 && capped).then_some((sets, ways))
}

/// Parses `SETSxWAYS-VLEN`, validating what [`VectorExcludeConfig::new`]
/// asserts.
fn parse_vej_dims(s: &str) -> Option<(usize, usize, usize)> {
    let (dims, vlen) = s.split_once('-')?;
    let (sets, ways) = parse_ej_dims(dims)?;
    let vlen: usize = vlen.parse().ok()?;
    (vlen.is_power_of_two() && (2..=64).contains(&vlen)).then_some((sets, ways, vlen))
}

/// Parses `ExNxS`, validating what [`IncludeConfig::new`] asserts and the
/// [`FilterSpec::MAX_ENTRIES`] cap.
fn parse_ij_dims(s: &str) -> Option<(u32, u32, u32)> {
    let mut it = s.split('x');
    let (e, n, s) = (it.next()?.parse().ok()?, it.next()?.parse().ok()?, it.next()?.parse().ok()?);
    let valid = it.next().is_none() && (1..=30).contains(&e) && n > 0 && s > 0;
    (valid && (u64::from(n) << e) <= FilterSpec::MAX_ENTRIES as u64).then_some((e, n, s))
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A concrete filter instance behind an enum instead of a `dyn` box.
///
/// The simulator replays every filter of every node's bank once per
/// chunk; storing a bank's filters as `AnyFilter` values keeps their
/// states in one contiguous allocation and turns each replay into a
/// statically-dispatched (and inlinable) call, with no pointer chase or
/// indirect call per filter. `AnyFilter` implements [`SnoopFilter`].
// The size spread between variants is deliberate: banks store filters by
// value precisely to avoid the per-replay pointer chase a boxed large
// variant would reintroduce, and banks are small (tens of filters).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum AnyFilter {
    /// A [`NullFilter`].
    Null(NullFilter),
    /// An [`ExcludeJetty`].
    Exclude(ExcludeJetty),
    /// A [`VectorExcludeJetty`].
    VectorExclude(VectorExcludeJetty),
    /// An [`IncludeJetty`].
    Include(IncludeJetty),
    /// A [`HybridJetty`].
    Hybrid(HybridJetty),
}

/// Forwards one method call to whichever variant is live.
macro_rules! dispatch {
    ($self:expr, $f:ident ( $($arg:expr),* )) => {
        match $self {
            AnyFilter::Null(inner) => inner.$f($($arg),*),
            AnyFilter::Exclude(inner) => inner.$f($($arg),*),
            AnyFilter::VectorExclude(inner) => inner.$f($($arg),*),
            AnyFilter::Include(inner) => inner.$f($($arg),*),
            AnyFilter::Hybrid(inner) => inner.$f($($arg),*),
        }
    };
}

impl SnoopFilter for AnyFilter {
    /// Replays a node's event list through this filter. The variant match
    /// is hoisted *outside* the event loop: one filter's arrays stay
    /// cache-resident across thousands of events instead of a whole bank
    /// thrashing per snoop, which is the point of batching.
    #[inline]
    fn apply_batch(&mut self, events: &[FilterEvent], node: usize) -> u64 {
        dispatch!(self, apply_batch(events, node))
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        dispatch!(self, arrays())
    }

    fn activity(&self) -> FilterActivity {
        dispatch!(self, activity())
    }

    fn reset_activity(&mut self) {
        dispatch!(self, reset_activity())
    }

    fn name(&self) -> String {
        dispatch!(self, name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::UnitAddr;
    use crate::filter::Verdict;

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(FilterSpec::Null.label(), "none");
        assert_eq!(FilterSpec::exclude(32, 4).label(), "EJ-32x4");
        assert_eq!(FilterSpec::vector_exclude(16, 4, 8).label(), "VEJ-16x4-8");
        assert_eq!(FilterSpec::include(7, 5, 6).label(), "IJ-7x5x6");
        assert_eq!(
            FilterSpec::hybrid_vector(10, 4, 7, 32, 4, 8).label(),
            "(IJ-10x4x7, VEJ-32x4-8)"
        );
    }

    #[test]
    fn figure_sets_have_paper_cardinalities() {
        assert_eq!(FilterSpec::figure4a_set().len(), 6);
        assert_eq!(FilterSpec::figure4b_set().len(), 4);
        assert_eq!(FilterSpec::figure5a_set().len(), 5);
        assert_eq!(FilterSpec::figure5b_set().len(), 6);
        assert_eq!(FilterSpec::paper_bank().len(), 6 + 4 + 5 + 6 + 1);
    }

    #[test]
    fn build_produces_working_filters() {
        let space = AddrSpace::default();
        for spec in FilterSpec::paper_bank() {
            let mut filter = spec.build(space);
            assert_eq!(filter.name(), spec.label());
            // Allocate then probe: must never filter a cached unit.
            let u = UnitAddr::new(0xABC);
            filter.on_allocate(u);
            assert_eq!(filter.probe(u), Verdict::MaybeCached, "{}", spec);
        }
    }

    #[test]
    fn built_filters_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        for spec in FilterSpec::paper_bank() {
            assert_send(&spec.build(AddrSpace::default()));
        }
    }

    #[test]
    fn ids_are_machine_readable() {
        assert_eq!(FilterSpec::Null.id(), "none");
        assert_eq!(FilterSpec::exclude(32, 4).id(), "ej-32x4");
        assert_eq!(FilterSpec::vector_exclude(16, 4, 8).id(), "vej-16x4-8");
        assert_eq!(FilterSpec::include(7, 5, 6).id(), "ij-7x5x6");
        assert_eq!(FilterSpec::hybrid_scalar(10, 4, 7, 32, 4).id(), "hj-ij10x4x7-ej32x4");
        assert_eq!(FilterSpec::hybrid_vector(10, 4, 7, 32, 4, 8).id(), "hj-ij10x4x7-vej32x4-8");
        assert_eq!(FilterSpec::hybrid_scalar_eager(9, 4, 7, 32, 4).id(), "hj-ij9x4x7-ej32x4-eager");
        for spec in FilterSpec::paper_bank() {
            let id = spec.id();
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{id:?} must stay lowercase alphanumeric + dashes"
            );
        }
    }

    #[test]
    fn ids_round_trip_through_from_id() {
        let mut bank = FilterSpec::paper_bank();
        bank.push(FilterSpec::Null);
        bank.push(FilterSpec::hybrid_scalar_eager(9, 4, 7, 32, 4));
        // The largest sizes under the caps.
        bank.push(FilterSpec::exclude(FilterSpec::MAX_ENTRIES, 1));
        bank.push(FilterSpec::include(16, 1, 1));
        bank.push(FilterSpec::vector_exclude(32, 4, 64));
        for spec in bank {
            assert_eq!(FilterSpec::from_id(&spec.id()), Some(spec), "{}", spec.id());
        }
        // Case and whitespace are forgiven.
        assert_eq!(FilterSpec::from_id(" EJ-32x4 "), Some(FilterSpec::exclude(32, 4)));
        assert_eq!(FilterSpec::from_id("NONE"), Some(FilterSpec::Null));
    }

    #[test]
    fn from_id_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "ej-",
            "ej-32",
            "ej-31x4",
            "ej-32x0",
            "ej-axb",
            "vej-16x4",
            "vej-16x4-3",
            "ij-0x4x7",
            "ij-31x4x7",
            "ij-10x4",
            "ij-10x4x7x2",
            "ij-30x100000x1",
            "ij-17x1x1",
            "ej-1048576x1048576",
            "ej-65536x2",
            "ej-9223372036854775808x4",
            "vej-32x4-128",
            "vej-16x4-1",
            "hj-ij10x4x7-ej65536x2",
            "hj-ij17x1x1-ej32x4",
            "hj-ij10x4x7-vej32x4-128",
            "hj-ej32x4",
            "hj-ij10x4x7",
            "hj-ij10x4x7-xx",
            "moesi",
            "ej_32x4",
        ] {
            assert_eq!(FilterSpec::from_id(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn display_matches_label() {
        let spec = FilterSpec::include(10, 4, 7);
        assert_eq!(spec.to_string(), spec.label());
    }

    #[test]
    fn figure5b_ordering_matches_figure_legend() {
        // (Ia,Ea) (Ib,Ea) (Ic,Ea) (Ia,Eb) (Ib,Eb) (Ic,Eb)
        let labels: Vec<String> =
            FilterSpec::figure5b_set().iter().map(FilterSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "(IJ-10x4x7, EJ-32x4)",
                "(IJ-9x4x7, EJ-32x4)",
                "(IJ-8x4x7, EJ-32x4)",
                "(IJ-10x4x7, EJ-16x2)",
                "(IJ-9x4x7, EJ-16x2)",
                "(IJ-8x4x7, EJ-16x2)",
            ]
        );
    }
}
