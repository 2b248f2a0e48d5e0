//! The do-nothing filter: every snoop probes the L2 tag array, exactly as in
//! an unfiltered SMP. Used as the energy baseline and as a sanity check in
//! tests (a `NullFilter` system must behave identically to one with no
//! filter at all).

use crate::filter::{ArraySpec, FilterActivity, FilterEvent, SnoopFilter};

/// A filter that never filters. Baseline for coverage and energy
/// comparisons.
///
/// # Examples
///
/// ```
/// use jetty_core::{NullFilter, SnoopFilter, UnitAddr, Verdict};
///
/// let mut f = NullFilter::new();
/// assert_eq!(f.probe(UnitAddr::new(1)), Verdict::MaybeCached);
/// assert_eq!(f.storage_bits(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NullFilter {
    probes: u64,
}

impl NullFilter {
    /// Creates a null filter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnoopFilter for NullFilter {
    /// A null filter only counts the snoop probes (it never filters and
    /// ignores every other event), so the whole batch reduces to one
    /// counter addition.
    fn apply_batch(&mut self, events: &[FilterEvent], _node: usize) -> u64 {
        self.probes +=
            events.iter().filter(|ev| matches!(ev, FilterEvent::Snoop { .. })).count() as u64;
        0
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        Vec::new()
    }

    fn activity(&self) -> FilterActivity {
        FilterActivity { arrays: Vec::new(), probes: self.probes, filtered: 0 }
    }

    fn reset_activity(&mut self) {
        self.probes = 0;
    }

    fn name(&self) -> String {
        "none".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::snoop_miss;
    use crate::{MissScope, UnitAddr, Verdict};

    #[test]
    fn never_filters_and_has_no_storage() {
        let mut f = NullFilter::new();
        for i in 0..10 {
            assert_eq!(f.probe(UnitAddr::new(i)), Verdict::MaybeCached);
        }
        snoop_miss(&mut f, UnitAddr::new(0), MissScope::Block);
        f.on_allocate(UnitAddr::new(0));
        f.on_deallocate(UnitAddr::new(0));
        assert_eq!(f.probe(UnitAddr::new(0)), Verdict::MaybeCached);
        let act = f.activity();
        assert_eq!(act.probes, 12);
        assert_eq!(act.filtered, 0);
        assert_eq!(f.storage_bits(), 0);
        assert_eq!(f.name(), "none");
    }

    #[test]
    fn reset_clears_probe_count() {
        let mut f = NullFilter::new();
        f.probe(UnitAddr::new(1));
        f.reset_activity();
        assert_eq!(f.activity().probes, 0);
    }
}
