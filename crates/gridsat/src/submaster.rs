//! Per-site sub-master (hierarchical control plane, scaling extension).
//!
//! A sub-master is a pure matchmaker: idle clients of its site announce
//! themselves ([`GridMsg::StealRequest`]), loaded siblings offer their
//! subproblem for splitting ([`GridMsg::SplitRequest`] routed site-
//! locally instead of to the root), and the sub-master pairs the two
//! with a [`GridMsg::StealTicket`]. The stolen transfer then runs
//! entirely between the two clients; the root master only hears about
//! it through the donor's [`GridMsg::StealNotice`] and the thief's
//! confirmation, which it folds into its journal as steal records.
//!
//! The sub-master holds **no durable state**: its idle set and offer
//! queue are soft, rebuilt from periodic re-announcements and re-arising
//! split requests. Losing a sub-master therefore loses no work — the
//! clients fall back to the root until it returns (the sub-master-loss
//! chaos plan exercises exactly this).
//!
//! When a whole site is saturated (offers but no idle capacity), the
//! sub-master hands its oldest offer to the root at once
//! ([`GridMsg::SplitEscalate`]); the root brokers it like a plain split
//! request and counts the site as saturated. The rest of the site's
//! offers wait for the root to pull them ([`GridMsg::OfferSolicit`]):
//! once per master period it asks for as many as it has idle clients,
//! so the root's queue sees O(sites) unasked traffic, and what it asks
//! for it can place. A site the root has not pulled from for
//! `ESCALATE_PERIOD_S` hands up one offer unasked again, which is how
//! a root that lost its soft state (a restart) learns the site is
//! saturated.

use crate::msg::{GridMsg, ProblemId};
use gridsat_grid::{Ctx, NodeId, Process};
use std::collections::{BTreeSet, VecDeque};

/// How long a saturated site waits for a pull before it hands an offer
/// up unasked again, seconds.
const ESCALATE_PERIOD_S: f64 = 60.0;

/// Counters a sub-master keeps (merged across sites in the report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubMasterStats {
    /// Steal tickets issued (idle client paired with a loaded donor).
    pub tickets: u64,
    /// Offers handed up to the root for lack of local idle capacity.
    pub escalations: u64,
    /// Idle announcements received.
    pub announcements: u64,
}

impl SubMasterStats {
    pub fn absorb(&mut self, other: &SubMasterStats) {
        let SubMasterStats {
            tickets,
            escalations,
            announcements,
        } = *other;
        self.tickets += tickets;
        self.escalations += escalations;
        self.announcements += announcements;
    }
}

/// The sub-master process for one site.
pub struct SubMaster {
    root: NodeId,
    /// Clients of this site currently announced idle.
    idle: BTreeSet<NodeId>,
    /// Unmatched split offers: (donor, problem), one per donor.
    offers: VecDeque<(NodeId, ProblemId)>,
    /// The root counts this site as saturated: set when an offer goes up
    /// unasked, kept while the site answers every pull in full. While it
    /// is set, offers no local client takes wait for a pull.
    saturated: bool,
    /// When the root last heard from this site: its last escalation.
    last_escalate: f64,
    pub stats: SubMasterStats,
}

impl SubMaster {
    pub fn new(root: NodeId) -> SubMaster {
        SubMaster {
            root,
            idle: BTreeSet::new(),
            offers: VecDeque::new(),
            saturated: false,
            last_escalate: f64::NEG_INFINITY,
            stats: SubMasterStats::default(),
        }
    }

    /// Pair the head offer with `thief` and issue the ticket.
    fn issue_ticket(&mut self, thief: NodeId, ctx: &mut Ctx<GridMsg>) {
        let Some((donor, problem)) = self.offers.pop_front() else {
            return;
        };
        self.stats.tickets += 1;
        ctx.send(thief, GridMsg::StealTicket { donor, problem });
    }

    /// Hand the `want` oldest offers (fewer if the site holds fewer, even
    /// none) up to the root in one message; returns how many went. Each
    /// stays standing, rotated to the back: the root may not place it,
    /// and a site-mate going idle still can.
    fn escalate(&mut self, want: u32, ctx: &mut Ctx<GridMsg>) -> u32 {
        let n = self.offers.len().min(want as usize);
        let offers: Vec<_> = self.offers.iter().take(n).copied().collect();
        self.offers.rotate_left(n);
        self.stats.escalations += n as u64;
        self.last_escalate = ctx.now();
        ctx.send(self.root, GridMsg::SplitEscalate { offers });
        n as u32
    }
}

impl Process for SubMaster {
    type Msg = GridMsg;

    fn on_start(&mut self, _ctx: &mut Ctx<GridMsg>) {
        // soft state only: a restarted sub-master starts empty; clients
        // re-announce and offers re-arise on their own timers
        self.idle.clear();
        self.offers.clear();
        self.saturated = false;
    }

    fn on_message(&mut self, from: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        match msg {
            GridMsg::StealRequest => {
                self.stats.announcements += 1;
                // an idle announcer cannot be a donor any more
                self.offers.retain(|(d, _)| *d != from);
                if !self.offers.is_empty() {
                    self.issue_ticket(from, ctx);
                } else {
                    self.idle.insert(from);
                }
            }
            GridMsg::SplitRequest { problem } => {
                self.idle.remove(&from); // a donor is certainly busy
                if let Some(slot) = self.offers.iter_mut().find(|(d, _)| *d == from) {
                    slot.1 = problem; // refresh a re-arisen offer
                } else {
                    self.offers.push_back((from, problem));
                }
                if let Some(thief) = self.idle.pop_first() {
                    self.issue_ticket(thief, ctx);
                } else if !self.saturated || ctx.now() - self.last_escalate >= ESCALATE_PERIOD_S {
                    // the site just saturated, or the root has not
                    // pulled for a period: tell it by handing it an
                    // offer; the rest wait for its pulls
                    self.escalate(1, ctx);
                    self.saturated = true;
                }
            }
            GridMsg::OfferSolicit { want } => {
                // the root has `want` idle clients for this site's offers;
                // a short answer tells it the site has run dry
                self.saturated = self.escalate(want, ctx) == want;
            }
            // anything else reaching a sub-master is stray traffic from
            // a roster change mid-flight; it has no state to act on
            _ => {}
        }
    }

    /// A sub-master schedules no ticks; it acts only on messages. The
    /// reliable layer's retransmit timers still call this.
    fn on_tick(&mut self, _ctx: &mut Ctx<GridMsg>) {}

    fn on_node_down(&mut self, node: NodeId, _ctx: &mut Ctx<GridMsg>) {
        self.idle.remove(&node);
        self.offers.retain(|(d, _)| *d != node);
    }
}

impl SubMaster {
    /// Undeliverable ticket: the thief is gone — forget it, and put the
    /// offer back so the next announcer gets it.
    pub fn on_undeliverable(&mut self, to: NodeId, msg: GridMsg, _ctx: &mut Ctx<GridMsg>) {
        if let GridMsg::StealTicket { donor, problem } = msg {
            self.idle.remove(&to);
            if !self.offers.iter().any(|(d, _)| *d == donor) {
                self.offers.push_front((donor, problem));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_grid::NodeInfo;

    fn ctx(now: f64) -> Ctx<GridMsg> {
        Ctx::new(NodeInfo {
            id: NodeId(1),
            speed: 1000.0,
            memory: 3 << 20,
            now,
            availability: 1.0,
        })
    }

    fn sent(ctx: &mut Ctx<GridMsg>) -> Vec<(NodeId, GridMsg)> {
        ctx.take_actions()
            .into_iter()
            .filter_map(|a| match a {
                gridsat_grid::Action::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    fn sm() -> SubMaster {
        SubMaster::new(NodeId(0))
    }

    /// A sub-master whose site the root already counts as saturated and
    /// heard from at t = 1: its offers wait for a pull.
    fn saturated() -> SubMaster {
        SubMaster {
            saturated: true,
            last_escalate: 1.0,
            ..sm()
        }
    }

    fn offer(s: &mut SubMaster, donor: u32, c: &mut Ctx<GridMsg>) -> ProblemId {
        let problem = ProblemId::new(NodeId(donor), 1);
        s.on_message(NodeId(donor), GridMsg::SplitRequest { problem }, c);
        problem
    }

    /// The offers of the one message `out` holds: a hand-up to the root.
    fn escalated(out: &[(NodeId, GridMsg)]) -> Vec<NodeId> {
        match out {
            [(NodeId(0), GridMsg::SplitEscalate { offers })] => {
                offers.iter().map(|(donor, _)| *donor).collect()
            }
            _ => panic!("expected one escalation to the root, got {out:?}"),
        }
    }

    #[test]
    fn pairs_an_offer_with_a_later_idle_announcement() {
        let mut s = saturated();
        let mut c = ctx(1.0);
        let pid = offer(&mut s, 2, &mut c);
        assert!(sent(&mut c).is_empty(), "no idle capacity yet");
        s.on_message(NodeId(3), GridMsg::StealRequest, &mut c);
        let out = sent(&mut c);
        assert_eq!(out.len(), 1);
        let (to, GridMsg::StealTicket { donor, problem }) = &out[0] else {
            panic!("expected a steal ticket, got {out:?}");
        };
        assert_eq!(*to, NodeId(3));
        assert_eq!(*donor, NodeId(2));
        assert_eq!(*problem, pid);
        assert_eq!(s.stats.tickets, 1);
        assert!(s.offers.is_empty() && s.idle.is_empty());
    }

    #[test]
    fn pairs_an_idle_client_with_a_later_offer() {
        let mut s = sm();
        let mut c = ctx(1.0);
        s.on_message(NodeId(3), GridMsg::StealRequest, &mut c);
        assert!(sent(&mut c).is_empty());
        offer(&mut s, 2, &mut c);
        let out = sent(&mut c);
        assert!(
            matches!(out[..], [(to, GridMsg::StealTicket { donor, .. })]
                if to == NodeId(3) && donor == NodeId(2)),
            "{out:?}"
        );
        assert!(!s.saturated, "a site that matched locally is not saturated");
    }

    #[test]
    fn never_pairs_a_client_with_itself() {
        let mut s = saturated();
        let mut c = ctx(1.0);
        offer(&mut s, 2, &mut c);
        // the donor finishes its own problem and goes idle: its stale
        // offer must be dropped, not matched back to it
        s.on_message(NodeId(2), GridMsg::StealRequest, &mut c);
        assert!(sent(&mut c).is_empty());
        assert!(s.idle.contains(&NodeId(2)));
        assert!(s.offers.is_empty());
    }

    #[test]
    fn a_saturating_site_hands_up_one_offer_then_waits_for_pulls() {
        let mut s = sm();
        let mut c = ctx(1.0);
        offer(&mut s, 2, &mut c);
        assert_eq!(escalated(&sent(&mut c)), [NodeId(2)]);
        assert!(s.saturated);
        // the offer stays standing: a site-mate going idle still takes it
        assert_eq!(s.offers.len(), 1);
        // later offers wait for the root to pull them
        let mut c = ctx(2.0);
        offer(&mut s, 4, &mut c);
        assert!(sent(&mut c).is_empty(), "no pull, no hand-up");
        assert_eq!(s.stats.escalations, 1);
        // a root that has not pulled for a period hears from the site
        // again: it may have lost its soft state
        let mut c = ctx(1.0 + ESCALATE_PERIOD_S);
        offer(&mut s, 5, &mut c);
        assert_eq!(escalated(&sent(&mut c)).len(), 1);
        assert_eq!(s.stats.escalations, 2);
    }

    #[test]
    fn a_pull_is_answered_with_as_many_offers_as_asked_and_held() {
        let mut s = saturated();
        let mut c = ctx(2.0);
        for donor in [2, 4, 5] {
            offer(&mut s, donor, &mut c);
        }
        assert!(sent(&mut c).is_empty());
        // asked for two: the two oldest go up in one message, rotated to
        // the back of the standing offers, and the site stays saturated
        s.on_message(NodeId(0), GridMsg::OfferSolicit { want: 2 }, &mut c);
        assert_eq!(escalated(&sent(&mut c)), [NodeId(2), NodeId(4)]);
        assert!(s.saturated);
        let order: Vec<NodeId> = s.offers.iter().map(|(d, _)| *d).collect();
        assert_eq!(order, [NodeId(5), NodeId(2), NodeId(4)]);
        // asked for more than it holds: all go, and the short answer
        // tells the root the site has run dry
        s.on_message(NodeId(0), GridMsg::OfferSolicit { want: 5 }, &mut c);
        assert_eq!(escalated(&sent(&mut c)).len(), 3);
        assert!(!s.saturated);
        assert_eq!(s.stats.escalations, 5);
        // so the next offer no site-mate takes sends the oldest up at once
        offer(&mut s, 6, &mut c);
        assert_eq!(escalated(&sent(&mut c)), [NodeId(5)]);
        assert!(s.saturated);
    }

    #[test]
    fn a_pull_finding_no_offer_is_answered_empty() {
        let mut s = saturated();
        let mut c = ctx(2.0);
        s.on_message(NodeId(0), GridMsg::OfferSolicit { want: 3 }, &mut c);
        assert!(escalated(&sent(&mut c)).is_empty());
        assert!(!s.saturated);
        assert_eq!(s.stats.escalations, 0);
    }

    #[test]
    fn undeliverable_ticket_requeues_the_offer() {
        let mut s = saturated();
        let mut c = ctx(1.0);
        let pid = offer(&mut s, 2, &mut c);
        s.on_message(NodeId(3), GridMsg::StealRequest, &mut c);
        assert_eq!(sent(&mut c).len(), 1, "ticket issued");
        s.on_undeliverable(
            NodeId(3),
            GridMsg::StealTicket {
                donor: NodeId(2),
                problem: pid,
            },
            &mut c,
        );
        assert_eq!(s.offers.front(), Some(&(NodeId(2), pid)));
        // the next announcer picks the recovered offer up
        s.on_message(NodeId(4), GridMsg::StealRequest, &mut c);
        assert!(
            matches!(sent(&mut c)[..], [(to, GridMsg::StealTicket { donor, .. })]
                if to == NodeId(4) && donor == NodeId(2))
        );
    }

    #[test]
    fn restart_clears_soft_state() {
        let mut s = sm();
        let mut c = ctx(1.0);
        s.on_message(NodeId(3), GridMsg::StealRequest, &mut c);
        offer(&mut s, 2, &mut c);
        offer(&mut s, 4, &mut c);
        assert!(s.saturated);
        s.on_start(&mut c);
        assert!(s.idle.is_empty() && s.offers.is_empty() && !s.saturated);
    }
}
