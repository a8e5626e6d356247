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
//! sub-master escalates at most one offer per
//! [`ESCALATE_PERIOD_S`] to the root
//! ([`GridMsg::SplitEscalate`]), which treats it like a plain split
//! request. The rate limit is the point: the root's queue sees O(sites)
//! control traffic instead of O(clients).

use crate::msg::{GridMsg, ProblemId};
use gridsat_grid::{Ctx, NodeId, Process};
use std::collections::{BTreeSet, VecDeque};

/// Minimum spacing between a sub-master's escalations of unmatched split
/// offers to the root, seconds. Rate-limits the root-bound control
/// stream when a whole site is saturated.
const ESCALATE_PERIOD_S: f64 = 60.0;

/// Counters a sub-master keeps (merged across sites in the report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubMasterStats {
    /// Steal tickets issued (idle client paired with a loaded donor).
    pub tickets: u64,
    /// Offers escalated to the root for lack of local idle capacity.
    pub escalations: u64,
    /// Split offers received from site clients.
    pub offers: u64,
    /// Idle announcements received.
    pub announcements: u64,
}

impl SubMasterStats {
    pub fn absorb(&mut self, other: &SubMasterStats) {
        let SubMasterStats {
            tickets,
            escalations,
            offers,
            announcements,
        } = *other;
        self.tickets += tickets;
        self.escalations += escalations;
        self.offers += offers;
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
    last_escalate: f64,
    /// The root solicited an offer while we had none: the pull stays
    /// pending, and the next saturated offer escalates immediately
    /// instead of waiting out the periodic budget.
    root_wants_work: bool,
    pub stats: SubMasterStats,
}

impl SubMaster {
    pub fn new(root: NodeId) -> SubMaster {
        SubMaster {
            root,
            idle: BTreeSet::new(),
            offers: VecDeque::new(),
            // allow an immediate first escalation
            last_escalate: f64::NEG_INFINITY,
            root_wants_work: false,
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
}

impl Process for SubMaster {
    type Msg = GridMsg;

    fn on_start(&mut self, _ctx: &mut Ctx<GridMsg>) {
        // soft state only: a restarted sub-master starts empty; clients
        // re-announce and offers re-arise on their own timers
        self.idle.clear();
        self.offers.clear();
        self.root_wants_work = false;
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
                self.stats.offers += 1;
                self.idle.remove(&from); // a donor is certainly busy
                if let Some(slot) = self.offers.iter_mut().find(|(d, _)| *d == from) {
                    slot.1 = problem; // refresh a re-arisen offer
                } else {
                    self.offers.push_back((from, problem));
                }
                if let Some(thief) = self.idle.pop_first() {
                    self.issue_ticket(thief, ctx);
                } else if self.root_wants_work
                    || ctx.now() - self.last_escalate >= ESCALATE_PERIOD_S
                {
                    // site saturated: hand one offer to the root —
                    // immediately if a solicit is pending, otherwise
                    // rate-limited so the root queue scales with sites
                    if !self.root_wants_work {
                        self.last_escalate = ctx.now();
                    }
                    self.root_wants_work = false;
                    self.stats.escalations += 1;
                    ctx.send(
                        self.root,
                        GridMsg::SplitEscalate {
                            requester: from,
                            problem,
                        },
                    );
                }
            }
            GridMsg::OfferSolicit => {
                // the root has idle capacity and nothing backlogged:
                // hand up the oldest unmatched offer right away, outside
                // the periodic budget (the root asked for it), and
                // rotate it so repeated solicits spread across donors
                if let Some((requester, problem)) = self.offers.pop_front() {
                    self.offers.push_back((requester, problem));
                    self.stats.escalations += 1;
                    ctx.send(self.root, GridMsg::SplitEscalate { requester, problem });
                } else {
                    // nothing to hand up yet: the pull stays pending and
                    // the next saturated offer answers it immediately
                    self.root_wants_work = true;
                }
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

    #[test]
    fn pairs_an_offer_with_a_later_idle_announcement() {
        let mut s = sm();
        let pid = ProblemId::new(NodeId(2), 1);
        let mut c = ctx(1.0);
        s.last_escalate = 0.5; // suppress escalation for this test
        s.on_message(NodeId(2), GridMsg::SplitRequest { problem: pid }, &mut c);
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
        let pid = ProblemId::new(NodeId(2), 1);
        let mut c = ctx(1.0);
        s.on_message(NodeId(3), GridMsg::StealRequest, &mut c);
        assert!(sent(&mut c).is_empty());
        s.on_message(NodeId(2), GridMsg::SplitRequest { problem: pid }, &mut c);
        let out = sent(&mut c);
        assert!(
            matches!(out[..], [(to, GridMsg::StealTicket { donor, .. })]
                if to == NodeId(3) && donor == NodeId(2)),
            "{out:?}"
        );
    }

    #[test]
    fn never_pairs_a_client_with_itself() {
        let mut s = sm();
        let pid = ProblemId::new(NodeId(2), 1);
        let mut c = ctx(1.0);
        s.last_escalate = 0.5;
        s.on_message(NodeId(2), GridMsg::SplitRequest { problem: pid }, &mut c);
        // the donor finishes its own problem and goes idle: its stale
        // offer must be dropped, not matched back to it
        s.on_message(NodeId(2), GridMsg::StealRequest, &mut c);
        assert!(sent(&mut c).is_empty());
        assert!(s.idle.contains(&NodeId(2)));
        assert!(s.offers.is_empty());
    }

    #[test]
    fn escalates_saturated_offers_rate_limited() {
        let mut s = sm();
        let pid = ProblemId::new(NodeId(2), 1);
        let mut c = ctx(1.0);
        s.on_message(NodeId(2), GridMsg::SplitRequest { problem: pid }, &mut c);
        let out = sent(&mut c);
        assert!(
            matches!(out[..], [(to, GridMsg::SplitEscalate { requester, .. })]
                if to == NodeId(0) && requester == NodeId(2)),
            "{out:?}"
        );
        // a second saturated offer inside the window stays local
        let mut c = ctx(2.0);
        s.on_message(
            NodeId(4),
            GridMsg::SplitRequest {
                problem: ProblemId::new(NodeId(4), 1),
            },
            &mut c,
        );
        assert!(sent(&mut c).is_empty(), "escalation is rate-limited");
        assert_eq!(s.stats.escalations, 1);
        // past the window it escalates again
        let mut c = ctx(1.0 + ESCALATE_PERIOD_S);
        s.on_message(
            NodeId(5),
            GridMsg::SplitRequest {
                problem: ProblemId::new(NodeId(5), 1),
            },
            &mut c,
        );
        assert_eq!(sent(&mut c).len(), 1);
        assert_eq!(s.stats.escalations, 2);
    }

    #[test]
    fn undeliverable_ticket_requeues_the_offer() {
        let mut s = sm();
        let pid = ProblemId::new(NodeId(2), 1);
        let mut c = ctx(1.0);
        s.last_escalate = 0.5;
        s.on_message(NodeId(2), GridMsg::SplitRequest { problem: pid }, &mut c);
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
        s.on_message(
            NodeId(2),
            GridMsg::SplitRequest {
                problem: ProblemId::new(NodeId(2), 1),
            },
            &mut c,
        );
        s.on_start(&mut c);
        assert!(s.idle.is_empty() && s.offers.is_empty());
    }
}
