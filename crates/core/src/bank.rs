//! A node's filter bank, planned so that each distinct Include-Jetty is
//! replayed once per chunk.
//!
//! An IJ's state depends only on the allocate and deallocate events of
//! its node, never on snoops or on any other filter. Two filters in one
//! bank that contain the same [`IncludeConfig`] — a standalone IJ and the
//! IJ half of a backup-policy hybrid, or the IJ halves of several
//! hybrids — therefore hold identical IJ states at every point of a run.
//! The paper's bank has five IJs and seven hybrids whose IJ halves are
//! all among those five, so replaying every IJ copy is mostly repeated
//! work.
//!
//! [`FilterBank::new`] plans the bank once: every distinct IJ
//! configuration becomes one *lane*, shared by the standalone IJs of that
//! configuration and by the backup hybrids built on it. Each chunk, a
//! lane replays once — recording per-event verdicts when a hybrid reads
//! them — and each dependent hybrid runs only its EJ/VEJ pass on the
//! lane's verdicts ([`ExcludeHalf::replay_backup`], the same pass a
//! standalone [`HybridJetty`](crate::HybridJetty) runs after its own IJ
//! pass). Eager-policy hybrids interleave their IJ with their EJ event
//! by event, so they keep their own IJ.
//!
//! Members replay in bank order, and a lane replays at its first member,
//! so an unsafe filter still panics at the same member, with the same
//! `UNSAFE FILTER` message, as in a bank of independent filters. The IJ
//! charges of [`FilterActivity`] are derived from event counts, so every
//! member's activity equals that of the same filter replayed alone.

use crate::addr::AddrSpace;
use crate::filter::{self, ArraySpec, FilterActivity, FilterEvent, SnoopFilter};
use crate::hybrid::{EjAllocation, ExcludeHalf, HybridConfig};
use crate::include::{IncludeConfig, IncludeJetty};
use crate::kernels::IjReplayOut;
use crate::spec::{AnyFilter, FilterSpec};

/// One distinct Include-Jetty configuration of a bank and its state.
#[derive(Debug)]
struct Lane {
    include: IncludeJetty,
    /// Whether a backup hybrid reads this lane's per-event verdicts; a
    /// lane serving only standalone IJs skips recording them.
    verdicts_needed: bool,
    verdicts: Vec<bool>,
    /// This chunk's replay result, once the lane has replayed it.
    replayed: Option<IjReplayOut>,
}

impl Lane {
    /// Replays `events` unless this chunk's replay already ran.
    fn replay(&mut self, events: &[FilterEvent]) -> IjReplayOut {
        if let Some(out) = self.replayed {
            return out;
        }
        let verdicts = if self.verdicts_needed { Some(&mut self.verdicts) } else { None };
        let out = self.include.replay_events(events, verdicts);
        self.replayed = Some(out);
        out
    }
}

/// One filter of the bank, in bank order.
#[derive(Debug)]
enum Member {
    /// A filter that replays on its own: EJ, VEJ, null, eager hybrid.
    Own(AnyFilter),
    /// A standalone IJ: its lane is its whole state.
    Include { lane: usize },
    /// A backup hybrid: its lane's verdicts feed its exclude half.
    Hybrid { lane: usize, half: ExcludeHalf, config: HybridConfig },
}

/// The filters attached to one SMP node, one per [`FilterSpec`], with
/// each distinct IJ replayed once per chunk (see the module docs).
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, FilterBank, FilterEvent, FilterSpec, MissScope, UnitAddr};
///
/// let specs = [FilterSpec::include(8, 4, 7), FilterSpec::hybrid_scalar(8, 4, 7, 16, 2)];
/// // One IJ lane serves both filters.
/// let mut bank = FilterBank::new(&specs, AddrSpace::default());
/// let snoop =
///     FilterEvent::Snoop { unit: UnitAddr::new(9), would_hit: false, scope: MissScope::Block };
/// bank.apply_batch(&[snoop], 0);
/// assert_eq!(bank.activity(0).filtered, 1);
/// assert_eq!(bank.activity(1).filtered, 1);
/// ```
#[derive(Debug)]
pub struct FilterBank {
    lanes: Vec<Lane>,
    members: Vec<Member>,
}

impl FilterBank {
    /// Plans and builds a bank with one filter per spec, in spec order.
    pub fn new(specs: &[FilterSpec], space: AddrSpace) -> Self {
        let mut lanes: Vec<Lane> = Vec::new();
        let mut lane_of = |config: IncludeConfig, verdicts_needed: bool| {
            let lane =
                lanes.iter().position(|l| l.include.config() == config).unwrap_or_else(|| {
                    lanes.push(Lane {
                        include: IncludeJetty::new(config, space),
                        verdicts_needed: false,
                        verdicts: Vec::new(),
                        replayed: None,
                    });
                    lanes.len() - 1
                });
            lanes[lane].verdicts_needed |= verdicts_needed;
            lane
        };
        let members = specs
            .iter()
            .map(|spec| match *spec {
                FilterSpec::Include(config) => Member::Include { lane: lane_of(config, false) },
                FilterSpec::Hybrid(config) if config.ej_allocation == EjAllocation::Backup => {
                    Member::Hybrid {
                        lane: lane_of(config.include, true),
                        half: ExcludeHalf::new(config.exclude, space),
                        config,
                    }
                }
                _ => Member::Own(spec.build(space)),
            })
            .collect();
        Self { lanes, members }
    }

    /// `true` for a bank with no filters.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Replays a node's ordered event list through every filter of the
    /// bank, in bank order, each IJ lane once.
    ///
    /// # Panics
    ///
    /// Panics with the `UNSAFE FILTER` message of the first filter, in
    /// bank order, that answers `NotCached` to a snoop whose `would_hit`
    /// is set (see [`SnoopFilter::apply_batch`]).
    pub fn apply_batch(&mut self, events: &[FilterEvent], node: usize) {
        let Self { lanes, members } = self;
        for lane in lanes.iter_mut() {
            lane.replayed = None;
        }
        for member in members {
            match member {
                Member::Own(f) => {
                    f.apply_batch(events, node);
                }
                Member::Include { lane } => {
                    let lane = &mut lanes[*lane];
                    let out = lane.replay(events);
                    filter::assert_safe(|| lane.include.name(), events, out.unsafe_at, node);
                }
                Member::Hybrid { lane, half, config } => {
                    let lane = &mut lanes[*lane];
                    lane.replay(events);
                    let out = half.replay_backup(events, &lane.verdicts);
                    filter::assert_safe(|| config.label(), events, out.unsafe_at, node);
                }
            }
        }
    }

    /// The array geometry of filter `k`.
    pub fn arrays(&self, k: usize) -> Vec<ArraySpec> {
        match &self.members[k] {
            Member::Own(f) => f.arrays(),
            Member::Include { lane } => self.lanes[*lane].include.arrays(),
            Member::Hybrid { lane, half, .. } => half.arrays(&self.lanes[*lane].include),
        }
    }

    /// The accumulated activity of filter `k`: the same counts the filter
    /// would have accumulated replaying alone.
    pub fn activity(&self, k: usize) -> FilterActivity {
        match &self.members[k] {
            Member::Own(f) => f.activity(),
            Member::Include { lane } => self.lanes[*lane].include.activity(),
            Member::Hybrid { lane, half, .. } => half.activity(&self.lanes[*lane].include),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MissScope, UnitAddr};

    fn snoop(unit: u64, would_hit: bool) -> FilterEvent {
        FilterEvent::Snoop { unit: UnitAddr::new(unit), would_hit, scope: MissScope::Block }
    }

    #[test]
    fn paper_bank_plans_five_lanes() {
        let bank = FilterBank::new(&FilterSpec::paper_bank(), AddrSpace::default());
        assert_eq!(bank.members.len(), 22);
        assert_eq!(bank.lanes.len(), 5, "the seven hybrids reuse the five Fig. 5a IJs");
    }

    #[test]
    fn eager_hybrids_keep_their_own_ij() {
        let specs = [
            FilterSpec::hybrid_scalar(9, 4, 7, 32, 4),
            FilterSpec::hybrid_scalar_eager(9, 4, 7, 32, 4),
        ];
        let bank = FilterBank::new(&specs, AddrSpace::default());
        assert_eq!(bank.lanes.len(), 1);
        assert!(matches!(bank.members[1], Member::Own(AnyFilter::Hybrid(_))));
    }

    #[test]
    fn members_match_filters_replayed_alone() {
        let space = AddrSpace::default();
        let specs = [
            FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
            FilterSpec::include(8, 4, 7),
            FilterSpec::exclude(8, 2),
            FilterSpec::hybrid_vector(8, 4, 7, 8, 2, 4),
        ];
        let mut bank = FilterBank::new(&specs, space);
        let mut alone: Vec<AnyFilter> = specs.iter().map(|s| s.build(space)).collect();
        let mut events = Vec::new();
        for i in 0..400u64 {
            let unit = (i * 7919) % 997;
            events.push(match i % 5 {
                0 | 1 => FilterEvent::Allocate(UnitAddr::new(unit)),
                _ => snoop(unit | 1 << 30, false),
            });
        }
        for chunk in events.chunks(37) {
            bank.apply_batch(chunk, 0);
            for f in &mut alone {
                f.apply_batch(chunk, 0);
            }
        }
        for (k, f) in alone.iter().enumerate() {
            assert_eq!(bank.activity(k), f.activity(), "{}", f.name());
            assert_eq!(bank.arrays(k), f.arrays(), "{}", f.name());
        }
    }

    /// The panic message of replaying `replay`, if it panics.
    fn panic_of(replay: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(replay)).err()?;
        Some(match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast_ref::<&str>().map_or("?", |m| m).to_owned(),
        })
    }

    /// Every ordering of `items`.
    fn orderings<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &first) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in orderings(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    #[test]
    fn an_unsafe_bank_panics_at_its_first_unsafe_filter() {
        // Event streams that break the safety contract: snoops that claim
        // to hit units no allocate announced (an IJ filters those), after
        // a miss that EJs record. Whatever the bank order, the bank must
        // panic exactly as independent filters replayed in that order do:
        // at the first unsafe one, with its `UNSAFE FILTER` message.
        let space = AddrSpace::default();
        let streams = [
            vec![snoop(5, true)],
            vec![FilterEvent::Allocate(UnitAddr::new(5)), snoop(5, true), snoop(6, true)],
            vec![snoop(64, false), snoop(64, true)],
        ];
        let specs = [
            FilterSpec::include(8, 4, 7),
            FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
            FilterSpec::exclude(8, 2),
            FilterSpec::hybrid_scalar_eager(8, 4, 7, 16, 2),
        ];
        for events in &streams {
            for bank in orderings(&specs) {
                let expected = panic_of(|| {
                    for spec in &bank {
                        spec.build(space).apply_batch(events, 3);
                    }
                });
                let got = panic_of(|| FilterBank::new(&bank, space).apply_batch(events, 3));
                assert!(got.as_deref().is_some_and(|m| m.starts_with("UNSAFE FILTER: ")));
                assert_eq!(got, expected, "bank {bank:?}");
            }
        }
    }
}
