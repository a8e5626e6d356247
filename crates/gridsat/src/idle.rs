//! The master's index of idle clients (derived scheduling state).
//!
//! Every grant, recovery dispatch and migration asks "which idle client
//! next?". [`IdleIndex`] keeps the idle clients ordered for that question,
//! so the answer is a few ordered-set reads instead of a walk over the
//! whole roster. [`MasterCore`](crate::journal::MasterCore) updates it at
//! the one place a client's state or rank changes; every replay rebuilds
//! it, and it is never journaled.

use crate::config::SchedPolicy;
use gridsat_grid::{NodeId, Site};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// What a client on another site than the requester's is worth relative
/// to a same-site one: subproblem transfers are large, so "the master
/// [can] select machines that are near the splitting client, leading to
/// more efficient use of the available bandwidth" (Section 3.4).
pub(crate) const REMOTE_DISCOUNT: f64 = 0.4;

/// Static per-host information from the Grid information service: peak
/// speed and site.
pub(crate) type Hosts = Arc<BTreeMap<NodeId, (f64, Site)>>;

/// A rank, ordered by [`f64::total_cmp`].
#[derive(Clone, Copy, Debug)]
struct Rank(f64);

impl PartialEq for Rank {
    fn eq(&self, other: &Rank) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Rank) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Rank) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Best rank first, then lower node id first.
type Key = (Reverse<Rank>, NodeId);

/// The idle clients, grouped by site and ordered by rank.
#[derive(Default)]
pub(crate) struct IdleIndex {
    hosts: Hosts,
    /// Per site (`None`: a host the information service does not list),
    /// best rank first and lower id first among equal ranks.
    by_site: BTreeMap<Option<Site>, BTreeSet<Key>>,
    /// Ascending by id.
    ids: BTreeSet<NodeId>,
}

impl IdleIndex {
    pub(crate) fn new(hosts: Hosts) -> IdleIndex {
        IdleIndex {
            hosts,
            ..IdleIndex::default()
        }
    }

    fn site(&self, id: NodeId) -> Option<Site> {
        self.hosts.get(&id).map(|(_, site)| *site)
    }

    pub(crate) fn insert(&mut self, id: NodeId, rank: f64) {
        let site = self.site(id);
        let fresh = self
            .by_site
            .entry(site)
            .or_default()
            .insert((Reverse(Rank(rank)), id));
        let fresh_id = self.ids.insert(id);
        debug_assert!(fresh && fresh_id, "{id} indexed twice");
    }

    /// Take out `id`, indexed under `rank`.
    pub(crate) fn remove(&mut self, id: NodeId, rank: f64) {
        let site = self.site(id);
        let held = self
            .by_site
            .get_mut(&site)
            .is_some_and(|set| set.remove(&(Reverse(Rank(rank)), id)));
        let held_id = self.ids.remove(&id);
        debug_assert!(held && held_id, "{id} was not indexed");
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// How many idle clients there are besides `exclude`.
    pub(crate) fn count_except(&self, exclude: NodeId) -> usize {
        self.ids.len() - usize::from(self.ids.contains(&exclude))
    }

    /// The idle client besides `exclude` that `policy` picks. `near` is
    /// the requester's site (NWS policy); `draw` is the Random policy's
    /// draw, taken as an index into the candidates ascending by id.
    pub(crate) fn pick(
        &self,
        policy: SchedPolicy,
        exclude: NodeId,
        near: Option<Site>,
        draw: u64,
    ) -> Option<NodeId> {
        match policy {
            SchedPolicy::NwsRank => self.best(exclude, near),
            SchedPolicy::WorstRank => self.worst(exclude),
            SchedPolicy::Random(_) => match self.count_except(exclude) as u64 {
                0 => None,
                n => {
                    let mut candidates = self.ids.iter().filter(|&&id| id != exclude);
                    candidates.nth((draw % n) as usize).copied()
                }
            },
        }
    }

    /// The best-placed idle client besides `exclude`: the highest score,
    /// lower id on equal scores. A client's score is its rank, times
    /// [`REMOTE_DISCOUNT`] when it and `near` are on known, different
    /// sites.
    fn best(&self, exclude: NodeId, near: Option<Site>) -> Option<NodeId> {
        let mut best: Option<(f64, NodeId)> = None;
        for (site, set) in &self.by_site {
            let remote = matches!((near, site), (Some(a), Some(b)) if a != *b);
            let candidate = if remote {
                best_discounted(set, exclude)
            } else {
                first_except(set.iter(), exclude)
            };
            let Some((score, id)) = candidate else {
                continue;
            };
            let wins = best.is_none_or(|(top, top_id)| {
                score.total_cmp(&top).then(top_id.cmp(&id)) == Ordering::Greater
            });
            if wins {
                best = Some((score, id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// The worst-ranked idle client besides `exclude`, lower id on equal
    /// ranks.
    fn worst(&self, exclude: NodeId) -> Option<NodeId> {
        self.by_site
            .values()
            .filter_map(|set| {
                let (Reverse(low), _) = set.iter().rev().find(|(_, id)| *id != exclude)?;
                // the lowest id of the lowest rank opens that rank's run
                first_except(set.range((Reverse(*low), NodeId(0))..), exclude)
            })
            .min_by(|(ra, a), (rb, b)| ra.total_cmp(rb).then(a.cmp(b)))
            .map(|(_, id)| id)
    }
}

/// The first key besides `exclude`'s, as (rank, id).
fn first_except<'a>(
    mut keys: impl Iterator<Item = &'a Key>,
    exclude: NodeId,
) -> Option<(f64, NodeId)> {
    keys.find(|(_, id)| *id != exclude)
        .map(|(Reverse(Rank(rank)), id)| (*rank, *id))
}

/// The best discounted score in `set` and the lowest id that reaches it.
/// Discounting can round two different ranks to one score, so the lowest
/// id of every rank that rounds to the top score competes, not only the
/// top rank's.
fn best_discounted(set: &BTreeSet<Key>, exclude: NodeId) -> Option<(f64, NodeId)> {
    let (mut rank, mut id) = first_except(set.iter(), exclude)?;
    let score = rank * REMOTE_DISCOUNT;
    loop {
        // the lowest id of the next lower rank
        let below = (
            Bound::Excluded((Reverse(Rank(rank)), NodeId(u32::MAX))),
            Bound::Unbounded,
        );
        match first_except(set.range(below), exclude) {
            Some((next, next_id)) if (next * REMOTE_DISCOUNT).total_cmp(&score).is_eq() => {
                rank = next;
                id = id.min(next_id);
            }
            _ => return Some((score, id)),
        }
    }
}
