use super::*;
use crate::client::Client;
use crate::config::SHARE_TREE_FANOUT;
use crate::journal::SealedRecord;
use gridsat_grid::{Action, NodeInfo};
use gridsat_solver::SplitSpec;

fn ctx_at(id: u32, now: f64) -> Ctx<GridMsg> {
    Ctx::new(NodeInfo {
        id: NodeId(id),
        speed: 500.0,
        memory: 3 << 20,
        now,
        availability: 1.0,
    })
}

fn ctx(now: f64) -> Ctx<GridMsg> {
    ctx_at(0, now)
}

fn speeds(n: u32) -> BTreeMap<NodeId, (f64, Site)> {
    (1..=n)
        .map(|i| (NodeId(i), (100.0 * f64::from(i), Site::Ucsd)))
        .collect()
}

fn master() -> Master {
    Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::default(),
        speeds(4),
    )
}

fn register(m: &mut Master, id: u32, t: f64) -> Vec<Action<GridMsg>> {
    let mut cx = ctx(t);
    m.on_message(
        NodeId(id),
        GridMsg::Register {
            memory: 3 << 20,
            availability: 1.0,
        },
        &mut cx,
    );
    cx.take_actions()
}

#[test]
fn first_registrant_gets_the_whole_problem() {
    let mut m = master();
    let actions = register(&mut m, 2, 0.0);
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send { to: NodeId(2), msg: GridMsg::Solve { spec, .. } }
            if spec.open().is_ok_and(|s| s.assumptions.is_empty() && s.clauses.len() == 9)
    )));
    // second registrant gets its share-tree links but no problem
    let actions = register(&mut m, 3, 1.0);
    assert!(!actions.iter().any(|a| matches!(
        a,
        Action::Send {
            msg: GridMsg::Solve { .. },
            ..
        }
    )));
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send {
            msg: GridMsg::Peers { .. },
            ..
        }
    )));
}

#[test]
fn one_broadcast_shares_one_sorted_roster_across_all_recipients() {
    // the paper's protocol: no share tree, everybody floods everybody
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::experiment1(),
        speeds(4),
    );
    // register out of id order: the roster still comes out ascending
    let mut last = Vec::new();
    for (k, id) in [3, 1, 4, 2].into_iter().enumerate() {
        last = register(&mut m, id, k as f64);
    }
    let rosters: Vec<(NodeId, Option<NodeId>, Arc<[NodeId]>)> = last
        .into_iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: GridMsg::Peers { up, down },
            } => Some((to, up, down)),
            _ => None,
        })
        .collect();
    let recipients: Vec<NodeId> = rosters.iter().map(|(to, ..)| *to).collect();
    let sorted: Vec<NodeId> = (1..=4).map(NodeId).collect();
    assert_eq!(recipients, sorted, "every registered client gets one");
    let (_, _, first) = &rosters[0];
    assert_eq!(**first, *sorted, "the roster is the sorted client set");
    for (_, up, down) in &rosters {
        assert_eq!(*up, None, "nobody's round goes up");
        assert!(
            Arc::ptr_eq(down, first),
            "one allocation per broadcast, not one per recipient"
        );
    }
}

/// What a client holds of the share tree: its parent and its children.
type Links = (Option<NodeId>, Vec<NodeId>);

/// Apply the links messages among `actions`, in order, to the links the
/// clients hold; how many there were.
fn apply_links(held: &mut BTreeMap<NodeId, Links>, actions: Vec<Action<GridMsg>>) -> usize {
    let mut messages = 0;
    for action in actions {
        if let Action::Send {
            to,
            msg: GridMsg::Peers { up, down },
        } = action
        {
            held.insert(to, (up, down.to_vec()));
            messages += 1;
        }
    }
    messages
}

/// The links clients hold are exactly a `SHARE_TREE_FANOUT`-ary heap over
/// `slots` built from scratch, and that is a tree: one root, every other
/// client under exactly one parent, logarithmic depth.
fn assert_share_tree(slots: &[NodeId], held: &BTreeMap<NodeId, Links>, case: &str) {
    let n = slots.len();
    let mut depth = vec![0usize; n];
    let mut children_seen = 0;
    for (i, &node) in slots.iter().enumerate() {
        let up = (i > 0).then(|| slots[(i - 1) / SHARE_TREE_FANOUT]);
        let down: Vec<NodeId> = (1..=SHARE_TREE_FANOUT)
            .filter_map(|k| slots.get(SHARE_TREE_FANOUT * i + k).copied())
            .collect();
        assert_eq!(
            held.get(&node),
            Some(&(up, down.clone())),
            "slot {i}, {case}"
        );
        children_seen += down.len();
        if i > 0 {
            depth[i] = depth[(i - 1) / SHARE_TREE_FANOUT] + 1;
        }
    }
    if n > 0 {
        // n - 1 parent-child edges over n nodes, all hanging off slot 0
        assert_eq!(children_seen, n - 1, "{case}");
        let bound = (1..).find(|&d| 4usize.pow(d) > 3 * n).expect("finite");
        let deepest = depth.iter().max().expect("non-empty") + 1;
        assert!(
            deepest <= bound as usize,
            "{deepest} levels for {n}, {case}"
        );
    }
}

/// Property: over random join / leave sequences the link messages the
/// master sends — at most `SHARE_TREE_FANOUT` + 3 per change, to the nodes
/// the change touched and nobody else — applied in order, leave every
/// client holding its links in a from-scratch build of the tree over the
/// same slots; and a standby that replays the journal holds those slots.
#[test]
fn share_tree_links_follow_every_join_and_leave() {
    use gridsat_cnf::rng::Rng;
    assert_eq!(SHARE_TREE_FANOUT, 4, "the depth bound below is log base 4");
    for (seed, fleet) in [(0, 6u32), (1, 6), (2, 40), (3, 40), (4, 200), (5, 1000)] {
        let mut rng = Rng::seed_from_u64(seed);
        // checkpoints on: a busy client that leaves is recovered
        let mut m = Master::new(
            gridsat_cnf::paper::fig1_formula(),
            GridConfig::chaos_hardened(),
            speeds(fleet),
        );
        let mut held: BTreeMap<NodeId, Links> = BTreeMap::new();
        let mut away: Vec<u32> = (1..=fleet).collect();
        let mut here: Vec<u32> = Vec::new();
        for step in 0..2 * fleet {
            let t = f64::from(step) * 0.01; // far inside every lease
            let case = format!("step {step}, case seed {seed}");
            let join = here.is_empty() || (!away.is_empty() && rng.gen_bool(0.6));
            let actions = if join {
                let id = away.swap_remove(rng.range_usize(0..away.len()));
                here.push(id);
                register(&mut m, id, t)
            } else {
                let id = here.swap_remove(rng.range_usize(0..here.len()));
                away.push(id);
                held.remove(&NodeId(id));
                let mut cx = ctx(t);
                m.on_node_down(NodeId(id), &mut cx);
                cx.take_actions()
            };
            assert!(m.outcome().is_none(), "{case}");
            let messages = apply_links(&mut held, actions);
            assert!(
                messages <= SHARE_TREE_FANOUT + 3,
                "{messages} links, {case}"
            );
            let mut listed: Vec<u32> = m.core.slots.iter().map(|node| node.0).collect();
            listed.sort_unstable();
            here.sort_unstable();
            assert_eq!(listed, here, "{case}");
            assert_share_tree(&m.core.slots, &held, &case);
        }
        let standby = m.fold(&m.journal);
        assert_eq!(standby.slots, m.core.slots, "case seed {seed}");
    }
}

#[test]
fn split_request_grants_best_ranked_idle_peer() {
    let mut m = master();
    register(&mut m, 1, 0.0); // gets the problem (busy)
    register(&mut m, 2, 0.0);
    register(&mut m, 3, 0.0);
    register(&mut m, 4, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let actions = cx.take_actions();
    // rank = speed * availability: node 4 is fastest idle
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send {
            to: NodeId(1),
            msg: GridMsg::SplitGrant {
                peer: NodeId(4),
                ..
            }
        }
    )));
}

#[test]
fn no_idle_peer_means_backlog() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    assert!(cx.take_actions().is_empty());
    assert_eq!(m.core.backlog.len(), 1);
    assert_eq!(m.stats.backlogged, 1);

    // a registering client frees the backlog
    let actions = register(&mut m, 2, 2.0);
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send {
            to: NodeId(1),
            msg: GridMsg::SplitGrant {
                peer: NodeId(2),
                ..
            }
        }
    )));
    assert!(m.core.backlog.is_empty());
}

/// The pulls `actions` send: (sub-master, offers asked for).
fn pulls_in(actions: &[Action<GridMsg>]) -> Vec<(u32, u32)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: GridMsg::OfferSolicit { want },
            } => Some((to.0, *want)),
            _ => None,
        })
        .collect()
}

fn escalate(m: &mut Master, broker: u32, offers: &[u32], t: f64) -> Vec<Action<GridMsg>> {
    let offers = offers
        .iter()
        .map(|&c| (NodeId(c), ProblemId::new(NodeId(0), 1)))
        .collect();
    let mut cx = ctx(t);
    m.on_message(NodeId(broker), GridMsg::SplitEscalate { offers }, &mut cx);
    cx.take_actions()
}

#[test]
fn the_root_pulls_as_many_offers_as_it_has_idle_clients() {
    // nodes 1..=4 are clients, 7 and 8 the sub-masters of two sites
    let mut m = master();
    for id in 1..=4 {
        register(&mut m, id, 0.0); // node 1 holds the whole problem
    }
    // site 7 saturates: its first offer goes up unasked and is granted
    // (to node 4, the best idle), which leaves two idle clients and no
    // pull in flight, so the next tick pulls for both from site 7
    let granted = escalate(&mut m, 7, &[1], 1.0);
    assert!(
        pulls_in(&granted).is_empty(),
        "the root pulls only on its tick"
    );
    let mut cx = ctx(2.0);
    m.on_tick(&mut cx);
    assert_eq!(pulls_in(&cx.take_actions()), [(7, 2)]);
    // another saturated site is not asked while the pull in flight
    // covers every idle client
    m.saturated.insert(NodeId(8));
    let mut cx = ctx(3.0);
    m.on_tick(&mut cx);
    assert!(pulls_in(&cx.take_actions()).is_empty());
    assert_eq!(m.stats.escalations, 1);
}

#[test]
fn a_short_answer_drops_the_site_until_it_saturates_again() {
    let mut m = master();
    for id in 1..=4 {
        register(&mut m, id, 0.0);
    }
    escalate(&mut m, 7, &[1], 1.0);
    let mut cx = ctx(2.0);
    m.on_tick(&mut cx);
    assert_eq!(pulls_in(&cx.take_actions()), [(7, 2)]);
    // asked for two, it had none: the site has run dry and is not
    // pulled again, however many clients stand idle
    escalate(&mut m, 7, &[], 2.5);
    let mut cx = ctx(3.0);
    m.on_tick(&mut cx);
    assert!(pulls_in(&cx.take_actions()).is_empty());
    assert!(m.saturated.is_empty() && m.pulls.is_empty());
    // until it hands an offer up unasked again
    escalate(&mut m, 7, &[1], 4.0);
    let mut cx = ctx(5.0);
    m.on_tick(&mut cx);
    assert_eq!(pulls_in(&cx.take_actions()), [(7, 2)]);
}

#[test]
fn a_pull_is_spread_over_the_saturated_sites() {
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::default(),
        speeds(6),
    );
    for id in 1..=6 {
        register(&mut m, id, 0.0); // node 1 busy, five idle
    }
    m.saturated.extend([NodeId(7), NodeId(8)]);
    let mut cx = ctx(1.0);
    m.on_tick(&mut cx);
    // five idle clients over two sites: as even as they go, the lower
    // id taking the odd one
    assert_eq!(pulls_in(&cx.take_actions()), [(7, 3), (8, 2)]);
    assert_eq!(m.pulls.values().sum::<u32>(), 5);
}

#[test]
fn failed_split_frees_the_peer() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    register(&mut m, 2, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let _ = cx.take_actions();
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Receiving);
    let mut cx = ctx(2.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitDone {
            requester: NodeId(1),
            peer: NodeId(2),
            ok: false,
            problem: None,
            pivot: None,
            checkpoint: None,
            stolen: false,
        },
        &mut cx,
    );
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Idle);
    assert!(m.core.grants.is_empty());
}

#[test]
fn undeliverable_grant_frees_the_peer() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    register(&mut m, 2, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let _ = cx.take_actions();
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Receiving);
    // the grant toward node 1 exhausts its retry budget
    let mut cx = ctx(40.0);
    m.on_undeliverable(
        NodeId(1),
        GridMsg::SplitGrant {
            peer: NodeId(2),
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Idle);
    assert!(m.core.grants.is_empty());
}

#[test]
fn undeliverable_assign_requeues_the_subproblem() {
    let mut m = master();
    let actions = register(&mut m, 1, 0.0);
    let spec = actions
        .iter()
        .find_map(|a| match a {
            Action::Send {
                msg: GridMsg::Solve { spec, .. },
                ..
            } => Some(spec.clone()),
            _ => None,
        })
        .expect("first registrant gets the problem");
    register(&mut m, 2, 0.0);
    // the whole-problem assignment to node 1 never got through
    let mut cx = ctx(40.0);
    m.on_undeliverable(
        NodeId(1),
        GridMsg::Solve {
            spec,
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    assert_eq!(m.stats.requeues, 1);
    assert_eq!(m.core.clients[&NodeId(1)].state(), ClientState::Idle);
    // the subproblem went straight back out to the idle node 2
    assert!(cx.take_actions().iter().any(|a| matches!(
        a,
        Action::Send {
            to: NodeId(2),
            msg: GridMsg::Solve { .. }
        }
    )));
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Busy);
    assert!(m.core.pending_recovery.is_empty());
}

#[test]
fn requeue_message_returns_a_lost_transfer() {
    // reliability on, so a peer dying mid-transfer is not fatal
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::chaos_hardened(),
        speeds(4),
    );
    register(&mut m, 1, 0.0);
    register(&mut m, 2, 0.0);
    register(&mut m, 3, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let _ = cx.take_actions();
    let (peer, ..) = m.core.grants[&NodeId(1)];
    // the peer died mid-transfer; the requester hands the half back
    let mut cx = ctx(2.0);
    m.on_node_down(peer, &mut cx);
    let mut cx = ctx(3.0);
    m.on_message(
        NodeId(1),
        GridMsg::Requeue {
            spec: Box::new(SpecFrame::seal(&SplitSpec {
                num_vars: 1,
                assumptions: vec![(gridsat_cnf::Lit::pos(0), true)],
                clauses: vec![],
            })),
            problem: None,
        },
        &mut cx,
    );
    assert_eq!(m.stats.requeues, 1);
    assert!(m.core.grants.is_empty());
    // re-dispatched to the remaining idle client
    assert!(cx.take_actions().iter().any(|a| matches!(
        a,
        Action::Send {
            msg: GridMsg::Solve { .. },
            ..
        }
    )));
}

#[test]
fn requeued_assignment_releases_the_ghost_roster_entry() {
    // A dispatched recovery can race with an intra-site steal: the Solve
    // lands on a client that just went busy on a stolen cube, and the
    // client hands the assignment straight back. The root must release
    // its roster entry for that problem — otherwise a ghost Busy client
    // blocks all-idle termination forever.
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::chaos_hardened(),
        speeds(4),
    );
    register(&mut m, 1, 0.0); // gets the whole problem
    register(&mut m, 2, 0.0); // idle
    let spec = SplitSpec {
        num_vars: 1,
        assumptions: vec![(gridsat_cnf::Lit::pos(0), true)],
        clauses: vec![],
    };
    // an orphaned half comes back; the root mints a recovery problem
    // and dispatches it to the idle node 2
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::Requeue {
            spec: Box::new(SpecFrame::seal(&spec)),
            problem: None,
        },
        &mut cx,
    );
    let _ = cx.take_actions();
    let ghost = m.core.clients[&NodeId(2)]
        .problem
        .expect("recovery dispatched");
    // node 2 was already busy when the Solve arrived and hands it back
    let mut cx = ctx(2.0);
    m.on_message(
        NodeId(2),
        GridMsg::Requeue {
            spec: Box::new(SpecFrame::seal(&spec)),
            problem: Some(ghost),
        },
        &mut cx,
    );
    let _ = cx.take_actions();
    // the ghost assignment is gone (the handler may re-dispatch the
    // requeued space immediately, but never under the returned id)
    assert_ne!(m.core.clients[&NodeId(2)].problem, Some(ghost));
    // and the run can still terminate: close whatever is open
    let mut cx = ctx(3.0);
    if let Some(p) = m.core.clients[&NodeId(2)].problem {
        m.on_message(
            NodeId(2),
            GridMsg::Result {
                result: SubResult::Unsat,
                problem: p,
            },
            &mut cx,
        );
    }
    let p1 = m.core.clients[&NodeId(1)]
        .problem
        .expect("node 1 holds the root problem");
    m.on_message(
        NodeId(1),
        GridMsg::Result {
            result: SubResult::Unsat,
            problem: p1,
        },
        &mut cx,
    );
    assert_eq!(m.outcome(), Some(&GridOutcome::Unsat));
}

/// The frame of the `Solve` among `actions` addressed to `to`.
fn solve_to(actions: &[Action<GridMsg>], to: u32) -> Option<SpecFrame> {
    actions.iter().find_map(|a| match a {
        Action::Send {
            to: dest,
            msg: GridMsg::Solve { spec, .. },
        } if *dest == NodeId(to) => Some(*spec.clone()),
        _ => None,
    })
}

/// A cube handed back by `Requeue` keeps its bytes at the master: the
/// frame waits in the recovery queue as received, survives a restart's
/// replay of the journal, and goes out in the next `Solve` unchanged.
#[test]
fn a_requeued_frame_reaches_the_next_solve_byte_for_byte() {
    let f = gridsat_cnf::paper::fig1_formula();
    let mut m = Master::new(f.clone(), GridConfig::chaos_hardened(), speeds(4));
    m.on_start(&mut ctx(0.0));
    register(&mut m, 1, 0.0); // busy with the whole problem
    let handed_back = |neg: u32| {
        SpecFrame::seal(&SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![(gridsat_cnf::Lit::neg(neg), false)],
            clauses: f.clauses()[..4].to_vec(),
        })
    };
    // nobody is idle: the frame waits in the queue
    let frame = handed_back(3);
    let mut cx = ctx(1.0);
    let spec = Box::new(frame.clone());
    m.on_message(
        NodeId(1),
        GridMsg::Requeue {
            spec,
            problem: None,
        },
        &mut cx,
    );
    assert_eq!(m.stats.requeues, 1);
    assert_eq!(m.core.pending_recovery[0].frame, frame);
    // the master restarts: the queue is folded back from the journal's
    // bytes (and the fold self-checks against the live state)
    m.on_start(&mut ctx(2.0));
    assert_eq!(m.core.pending_recovery[0].frame, frame);
    // the next idle client is sent those very bytes
    register(&mut m, 2, 3.0);
    let mut cx = ctx(4.0);
    m.on_tick(&mut cx);
    assert_eq!(solve_to(&cx.take_actions(), 2), Some(frame));
    // with an idle client at hand, a hand-back goes straight out
    register(&mut m, 3, 5.0);
    let frame = handed_back(5);
    let mut cx = ctx(6.0);
    let spec = Box::new(frame.clone());
    m.on_message(
        NodeId(1),
        GridMsg::Requeue {
            spec,
            problem: None,
        },
        &mut cx,
    );
    assert_eq!(solve_to(&cx.take_actions(), 3), Some(frame));
    assert!(m.core.pending_recovery.is_empty());
}

/// A client lost before its first checkpoint is recovered from the
/// frame it was dispatched: the re-dispatch sends the same bytes, the
/// root problem's and a recovered cube's alike.
#[test]
fn a_client_lost_before_its_first_checkpoint_is_resent_its_frame() {
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::chaos_hardened(),
        speeds(4),
    );
    let whole = solve_to(&register(&mut m, 1, 0.0), 1).expect("the whole problem");
    register(&mut m, 2, 0.0);
    let mut cx = ctx(5.0);
    m.on_node_down(NodeId(1), &mut cx);
    assert_eq!(solve_to(&cx.take_actions(), 2), Some(whole.clone()));
    register(&mut m, 3, 6.0);
    let mut cx = ctx(7.0);
    m.on_node_down(NodeId(2), &mut cx);
    assert_eq!(solve_to(&cx.take_actions(), 3), Some(whole));
    assert_eq!(m.stats.recoveries, 2);
}

#[test]
fn successful_split_protocol_transitions() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    register(&mut m, 2, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let _ = cx.take_actions();
    // message (5) from requester
    let mut cx = ctx(2.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitDone {
            requester: NodeId(1),
            peer: NodeId(2),
            ok: true,
            problem: Some(ProblemId::new(NodeId(1), 1)),
            pivot: None,
            checkpoint: None,
            stolen: false,
        },
        &mut cx,
    );
    assert_eq!(m.stats.splits, 1);
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Receiving);
    // message (4) from the peer completes the grant
    let mut cx = ctx(3.0);
    m.on_message(
        NodeId(2),
        GridMsg::SplitDone {
            requester: NodeId(1),
            peer: NodeId(2),
            ok: true,
            problem: Some(ProblemId::new(NodeId(1), 1)),
            pivot: None,
            checkpoint: None,
            stolen: false,
        },
        &mut cx,
    );
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Busy);
    assert!(m.core.grants.is_empty());
    assert_eq!(m.stats.max_active_clients, 2);
}

/// The crash-restart leak, as a unit: the peer of a split adopts the
/// half and goes down before its confirmation (message 4) lands. The
/// requester's message (5) names the half and the pivot it kept, so the
/// master takes the half back as the base formula under its path, and
/// the verdict waits for it.
#[test]
fn a_peer_lost_with_a_named_half_gets_the_half_rebuilt_from_its_path() {
    let f = gridsat_cnf::paper::fig1_formula();
    let mut m = Master::new(f.clone(), GridConfig::chaos_hardened(), speeds(4));
    register(&mut m, 1, 0.0); // busy with the whole problem
    register(&mut m, 2, 0.0);
    register(&mut m, 3, 0.0);
    let whole = ProblemId::new(NodeId(0), 1);
    let mut cx = ctx(1.0);
    m.on_message(NodeId(1), GridMsg::SplitRequest { problem: whole }, &mut cx);
    let (peer, ..) = m.core.grants[&NodeId(1)];
    assert_eq!(peer, NodeId(3), "the best-ranked idle client");
    // message (5): node 1 kept +3 and handed the half -3 to the peer
    let half = ProblemId::new(NodeId(1), 1);
    let kept = gridsat_cnf::Lit::pos(2);
    let report = GridMsg::SplitDone {
        requester: NodeId(1),
        peer,
        ok: true,
        problem: Some(half),
        pivot: Some(kept),
        checkpoint: None,
        stolen: false,
    };
    m.on_message(NodeId(1), report, &mut ctx(2.0));
    // the peer dies Receiving, with no recovery image
    let mut cx = ctx(3.0);
    m.on_node_down(peer, &mut cx);
    let frame = solve_to(&cx.take_actions(), 2).expect("the half goes back out");
    let spec = frame.open().expect("a sealed frame opens");
    assert_eq!(spec.assumptions, [(!kept, false)]);
    assert_eq!(spec.clauses, f.clauses());
    // every client idle but node 2, and node 1's half refuted: the
    // rebuilt half is what UNSAT waits for
    let result = |problem| GridMsg::Result {
        result: SubResult::Unsat,
        problem,
    };
    m.on_message(NodeId(1), result(whole), &mut ctx(4.0));
    assert_eq!(m.outcome(), None);
    let twin = m.core.clients[&NodeId(2)].problem.expect("node 2 holds it");
    m.on_message(NodeId(2), result(twin), &mut ctx(5.0));
    assert_eq!(m.outcome(), Some(&GridOutcome::Unsat));
}

#[test]
fn sat_result_is_verified_and_ends_the_run() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    // a genuine model of the fig1 formula
    let f = gridsat_cnf::paper::fig1_formula();
    let model = gridsat_solver::driver::solve(
        &f,
        gridsat_solver::SolverConfig::default(),
        gridsat_solver::Limits::default(),
    );
    let lits = match model.outcome {
        gridsat_solver::Outcome::Sat(a) => a.to_lits(),
        _ => panic!(),
    };
    let mut cx = ctx(5.0);
    m.on_message(
        NodeId(1),
        GridMsg::Result {
            result: SubResult::Sat(lits),
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    assert!(matches!(m.outcome(), Some(GridOutcome::Sat(_))));
    assert_eq!(m.stats.verification_failures, 0);
    let actions = cx.take_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send {
            msg: GridMsg::Terminate(EndReason::Sat),
            ..
        }
    )));
    assert!(actions.iter().any(|a| matches!(a, Action::Shutdown)));
}

#[test]
fn bogus_sat_result_is_rejected() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    let mut cx = ctx(5.0);
    // V14 false violates clause 9
    m.on_message(
        NodeId(1),
        GridMsg::Result {
            result: SubResult::Sat(vec![gridsat_cnf::Var(13).negative()]),
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    assert_eq!(m.stats.verification_failures, 1);
    assert!(m.outcome().is_none());
}

#[test]
fn all_idle_means_unsat() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    let mut cx = ctx(5.0);
    m.on_message(
        NodeId(1),
        GridMsg::Result {
            result: SubResult::Unsat,
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    assert_eq!(m.outcome(), Some(&GridOutcome::Unsat));
    assert_eq!(m.finished_at(), 5.0);
}

#[test]
fn overall_timeout_fires_on_tick() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    let mut cx = ctx(6001.0);
    m.on_tick(&mut cx);
    assert_eq!(m.outcome(), Some(&GridOutcome::TimeOut));
}

#[test]
fn busy_client_loss_without_checkpoint_ends_the_run() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    let mut cx = ctx(3.0);
    m.on_node_down(NodeId(1), &mut cx);
    assert_eq!(m.outcome(), Some(&GridOutcome::ClientLost));
}

#[test]
fn double_crash_recovers_from_two_level0_checkpoints() {
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::chaos_hardened(),
        speeds(4),
    );
    register(&mut m, 1, 0.0); // busy with the whole problem
    register(&mut m, 2, 0.0);
    // crash 1: recover node 1 from its checkpoint
    let first_level0 = vec![(gridsat_cnf::Lit::pos(0), true)];
    let p1 = m.core.clients[&NodeId(1)].problem.expect("assigned");
    let mut cx = ctx(10.0);
    m.on_message(
        NodeId(1),
        GridMsg::CheckpointMsg {
            problem: p1,
            checkpoint: Box::new(Checkpoint {
                level0: first_level0.clone(),
            }),
        },
        &mut cx,
    );
    let mut cx = ctx(20.0);
    m.on_node_down(NodeId(1), &mut cx);
    assert_eq!(m.stats.recoveries, 1);
    assert!(m.outcome().is_none());
    // the recovered subproblem went to the idle node 2, carrying the
    // checkpointed guiding path as its assumptions
    let actions = cx.take_actions();
    let spec = actions
        .iter()
        .find_map(|a| match a {
            Action::Send {
                to: NodeId(2),
                msg: GridMsg::Solve { spec, .. },
            } => Some(spec.clone()),
            _ => None,
        })
        .expect("recovery dispatched");
    let spec = spec.open().expect("frame verifies");
    assert_eq!(spec.assumptions, first_level0);
    assert_eq!(spec.clauses.len(), 9); // over the original clauses
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Busy);
    // crash 2: the inheritor checkpoints a deeper level 0, then dies too
    let second_level0 = vec![
        (gridsat_cnf::Lit::pos(0), true),
        (gridsat_cnf::Lit::neg(1), false),
    ];
    let p2 = m.core.clients[&NodeId(2)]
        .problem
        .expect("recovery assigned");
    let mut cx = ctx(30.0);
    m.on_message(
        NodeId(2),
        GridMsg::CheckpointMsg {
            problem: p2,
            checkpoint: Box::new(Checkpoint {
                level0: second_level0.clone(),
            }),
        },
        &mut cx,
    );
    let mut cx = ctx(40.0);
    m.on_node_down(NodeId(2), &mut cx);
    assert_eq!(m.stats.recoveries, 2);
    assert!(m.outcome().is_none());
    // no idle client yet: the spec waits in pending_recovery, so the
    // UNSAT detector must hold its fire
    assert_eq!(m.core.pending_recovery.len(), 1);
    let mut cx = ctx(41.0);
    m.check_termination(&mut cx);
    assert!(m.outcome().is_none());
    // a fresh registrant picks it up on the next housekeeping tick
    register(&mut m, 3, 50.0);
    let mut cx = ctx(55.0);
    m.on_tick(&mut cx);
    let actions = cx.take_actions();
    let spec = actions
        .iter()
        .find_map(|a| match a {
            Action::Send {
                to: NodeId(3),
                msg: GridMsg::Solve { spec, .. },
            } => Some(spec.clone()),
            _ => None,
        })
        .expect("second recovery dispatched");
    let spec = spec.open().expect("frame verifies");
    // the deeper guiding path, over the original clauses again
    assert_eq!(spec.assumptions, second_level0);
    assert_eq!(spec.clauses.len(), 9);
    assert!(m.core.pending_recovery.is_empty());
}

#[test]
fn silent_client_lease_expires_and_is_recovered() {
    let (obs, ring) = Obs::ring(64);
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::chaos_hardened(),
        speeds(4),
    );
    m.set_obs(obs);
    register(&mut m, 1, 0.0); // busy with the whole problem
    register(&mut m, 2, 0.0);
    let p1 = m.core.clients[&NodeId(1)].problem.expect("assigned");
    let mut cx = ctx(5.0);
    m.on_message(
        NodeId(1),
        GridMsg::CheckpointMsg {
            problem: p1,
            checkpoint: Box::new(Checkpoint { level0: vec![] }),
        },
        &mut cx,
    );
    // node 2 keeps renewing its lease; node 1 goes silent
    let mut cx = ctx(45.0);
    m.on_message(NodeId(2), GridMsg::Heartbeat, &mut cx);
    // lease = heartbeat_period 10 x lease_misses 3 = 30 s
    let mut cx = ctx(50.0);
    m.on_tick(&mut cx);
    assert_eq!(m.stats.lease_expiries, 1);
    assert_eq!(m.stats.recoveries, 1);
    assert!(!m.core.clients.contains_key(&NodeId(1)));
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Busy);
    assert!(m.outcome().is_none());
    let events = ring.lock().unwrap().events();
    assert!(events
        .iter()
        .any(|e| matches!(e.event, Event::LeaseExpire { client: 1 })));
}

#[test]
fn idle_client_loss_is_tolerated() {
    let mut m = master();
    register(&mut m, 1, 0.0);
    register(&mut m, 2, 0.0);
    let mut cx = ctx(3.0);
    m.on_node_down(NodeId(2), &mut cx);
    assert!(m.outcome().is_none());
    assert!(!m.core.clients.contains_key(&NodeId(2)));
}

#[test]
fn backlog_prefers_longest_running_requester() {
    let mut m = master();
    register(&mut m, 1, 0.0); // busy since 0
    register(&mut m, 2, 0.0);
    register(&mut m, 3, 0.0);
    // earlier splits of node 1's problem made 2 busy at 10 and 3 at 20;
    // node 1's own confirmations (Figure 3 message 5) are still in
    // flight, so its clock still reads 0
    for (peer, at) in [(2u32, 10.0), (3, 20.0)] {
        let (requester, peer) = (NodeId(1), NodeId(peer));
        let records = [
            JournalRecord::GrantOpen {
                requester,
                peer,
                kind: GrantKind::Split,
                problem: ProblemId::new(NodeId(0), 1),
            },
            JournalRecord::TransferIn {
                peer,
                problem: ProblemId::new(requester, peer.0),
                checkpoint: None,
                at,
            },
            JournalRecord::GrantClose {
                requester,
                free_peer: false,
            },
        ];
        for rec in records {
            m.commit(at, rec);
        }
    }
    // all busy: requests back up (naming the subproblem the master
    // believes each client holds, as real clients do)
    for id in [2u32, 3, 1] {
        let problem = m.core.clients[&NodeId(id)].problem.expect("busy");
        let mut cx = ctx(30.0);
        m.on_message(NodeId(id), GridMsg::SplitRequest { problem }, &mut cx);
    }
    assert_eq!(m.core.backlog.len(), 3);
    // the journal replays to exactly this state
    let replayed = m.fold(&m.journal);
    assert_eq!(replayed.image(), m.core.image());
    // node 1 has been running longest (since 0.0)
    assert_eq!(m.pop_backlog(30.0), Some(NodeId(1)));
    assert_eq!(m.pop_backlog(30.0), Some(NodeId(2)));
    assert_eq!(m.pop_backlog(30.0), Some(NodeId(3)));
}

#[test]
fn registered_state_reads_straight_from_the_core() {
    let mut m = master();
    register(&mut m, 1, 0.0); // busy with the whole problem
    register(&mut m, 2, 0.0);
    assert_eq!(m.core.clients.len(), 2);
    let busy = &m.core.clients[&NodeId(1)];
    assert_eq!(busy.state(), ClientState::Busy);
    assert_eq!(busy.problem_since, 0.0);
    assert!(busy.image.is_none());
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Idle);
    assert!(m.core.backlog.is_empty() && m.core.grants.is_empty());
    assert!(m.outcome().is_none());
    // identical histories fold to identical state
    let mut m2 = master();
    register(&mut m2, 1, 0.0);
    register(&mut m2, 2, 0.0);
    assert_eq!(m2.core.image(), m.core.image());
    assert_eq!(m2.journal.len(), m.journal.len());
}

#[test]
fn master_stats_absorb_is_lossless() {
    let full = MasterStats {
        max_active_clients: 3,
        splits: 1,
        backlogged: 2,
        migrations: 4,
        verification_failures: 5,
        results: 6,
        recoveries: 7,
        lease_expiries: 8,
        requeues: 9,
        corrupt_msgs: 10,
        quarantines: 11,
        steals_settled: 12,
        steals_aborted: 13,
        escalations: 14,
    };
    let mut acc = MasterStats::default();
    acc.absorb(&full);
    acc.absorb(&full);
    assert_eq!(
        acc,
        MasterStats {
            max_active_clients: 3, // max, not sum
            splits: 2,
            backlogged: 4,
            migrations: 8,
            verification_failures: 10,
            results: 12,
            recoveries: 14,
            lease_expiries: 16,
            requeues: 18,
            corrupt_msgs: 20,
            quarantines: 22,
            steals_settled: 24,
            steals_aborted: 26,
            escalations: 28,
        }
    );
}

#[test]
fn scheduling_events_reach_the_obs_sink() {
    let (obs, ring) = Obs::ring(256);
    let mut m = master();
    m.set_obs(obs);
    register(&mut m, 1, 0.0);
    register(&mut m, 2, 0.5);
    // backlog then drain: 2 is idle, so the split grants straight away
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let mut cx = ctx(2.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitDone {
            requester: NodeId(1),
            peer: NodeId(2),
            ok: true,
            problem: Some(ProblemId::new(NodeId(1), 1)),
            pivot: None,
            checkpoint: None,
            stolen: false,
        },
        &mut cx,
    );
    let events = ring.lock().unwrap().events();
    let count = |k: &str| events.iter().filter(|e| e.event.kind() == k).count();
    assert_eq!(count("client_launch"), 2);
    assert_eq!(count("assign"), 1);
    assert_eq!(count("split"), 1);
    // every scheduling decision is journaled before it is applied
    assert!(count("journal_append") >= 4);
    let split = events.iter().find(|e| e.event.kind() == "split").unwrap();
    assert_eq!(split.t_s, 2.0);
    match split.event {
        Event::Split { requester, peer } => {
            assert_eq!((requester, peer), (1, 2));
        }
        _ => unreachable!(),
    }
}

#[test]
fn worst_rank_policy_picks_slowest() {
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig {
            scheduler: SchedPolicy::WorstRank,
            ..GridConfig::default()
        },
        speeds(4),
    );
    register(&mut m, 1, 0.0);
    register(&mut m, 2, 0.0);
    register(&mut m, 3, 0.0);
    register(&mut m, 4, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let actions = cx.take_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send {
            msg: GridMsg::SplitGrant {
                peer: NodeId(2),
                ..
            },
            ..
        }
    )));
}

#[test]
fn master_restart_replays_its_journal() {
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::chaos_hardened(),
        speeds(4),
    );
    let mut cx = ctx(0.0);
    m.on_start(&mut cx);
    register(&mut m, 1, 0.0); // busy with the whole problem
    register(&mut m, 2, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let image = m.core.image();
    // the master node restarts: a second on_start folds the journal back
    // into the same scheduling state (and self-checks the fold)
    let (obs, ring) = Obs::ring(64);
    m.set_obs(obs);
    let mut cx = ctx(50.0);
    m.on_start(&mut cx);
    assert_eq!(m.core.image(), image);
    assert!(m.journal.len() >= 3); // launches, assignment, grant
    let replays: Vec<(f64, u64)> = ring
        .lock()
        .unwrap()
        .events()
        .iter()
        .filter_map(|e| match e.event {
            Event::JournalReplay { records } => Some((e.t_s, records)),
            _ => None,
        })
        .collect();
    assert_eq!(replays, [(50.0, m.journal.len())]);
    // every lease restarts: heartbeats could not reach a dead master
    assert!(m.core.clients.values().all(|c| c.last_seen == 50.0));
}

#[test]
fn torn_journal_restart_rebuilds_from_the_verified_prefix() {
    let f = gridsat_cnf::paper::fig1_formula();
    let cfg = GridConfig::chaos_hardened();
    let (obs, ring) = Obs::ring(256);
    let mut m = Master::new(f.clone(), cfg.clone(), speeds(4));
    m.set_obs(obs);
    let mut cx = ctx(0.0);
    m.on_start(&mut cx);
    register(&mut m, 1, 0.0); // busy with the whole problem
    register(&mut m, 2, 0.0);
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(0), 1),
        },
        &mut cx,
    );
    let records = m.journal.records();
    assert!(records.len() >= 3);
    let mut prefix = MasterJournal::new();
    for rec in &records[..records.len() - 1] {
        prefix.append(rec);
    }
    // the crash tears the last disk append mid-record: every record but
    // the final one survives verification
    let torn_at = m.journal.log_bytes().len() - 2;
    m.journal.tear_log(torn_at);
    let mut cx = ctx(50.0);
    m.on_start(&mut cx);
    assert_eq!(m.journal.len() as usize, records.len() - 1);
    assert_eq!(m.journal.log_bytes(), prefix.log_bytes());
    assert_eq!(
        m.core.image(),
        m.fold(&prefix).image(),
        "rebuilt state must be the fold of the verified prefix"
    );
    let events = ring.lock().unwrap().events();
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            Event::JournalTruncate {
                kept,
                dropped_bytes,
            } if kept as usize == records.len() - 1 && dropped_bytes > 0
        )),
        "the truncation must be observable"
    );
    // the master stays live: the next registrant is still served
    let actions = register(&mut m, 5, 51.0);
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::Send { to: NodeId(5), .. })));
}

#[test]
fn journal_ships_and_acks_trim_the_standby_lag() {
    let mut m = Master::new(
        gridsat_cnf::paper::fig1_formula(),
        GridConfig::failover_hardened(),
        speeds(4),
    );
    let mut cx = ctx(0.0);
    m.on_start(&mut cx);
    let actions = register(&mut m, 2, 0.0);
    // the commit batch (Launch + AssignWhole) is shipped to standby node 1
    let batch = actions
        .iter()
        .find_map(|a| match a {
            Action::Send {
                to: NodeId(1),
                msg: GridMsg::JournalBatch { start, records },
            } => Some((*start, records.clone())),
            _ => None,
        })
        .expect("journal batch shipped to the standby");
    assert_eq!(batch.0, 0);
    assert!(batch.1.len() >= 2);
    let acked = |m: &Master| m.standby.as_ref().expect("standby link").acked;
    assert_eq!(acked(&m), 0);
    // the standby's cumulative ack trims the lag to zero
    let mut cx = ctx(1.0);
    m.on_message(
        NodeId(1),
        GridMsg::JournalAck {
            next: m.journal.len(),
        },
        &mut cx,
    );
    assert_eq!(acked(&m), m.journal.len());
    // a quiet housekeeping tick still ships an empty keepalive batch:
    // that is how the standby tells a dead master from an idle one
    let mut cx = ctx(5.0);
    m.on_tick(&mut cx);
    assert!(cx.take_actions().iter().any(|a| matches!(
        a,
        Action::Send {
            to: NodeId(1),
            msg: GridMsg::JournalBatch { records, .. },
        } if records.is_empty()
    )));
}

/// The non-empty journal batches among `actions` for standby node 1.
fn batches_to_standby(actions: &[Action<GridMsg>]) -> Vec<(u64, Vec<SealedRecord>)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to: NodeId(1),
                msg: GridMsg::JournalBatch { start, records },
            } if !records.is_empty() => Some((*start, records.clone())),
            _ => None,
        })
        .collect()
}

/// A failover master on the fig. 1 formula, started, and a standby on
/// node 1 that has been sent nothing yet.
fn master_and_standby() -> (Master, crate::standby::StandbyNode) {
    let f = gridsat_cnf::paper::fig1_formula();
    let cfg = GridConfig::failover_hardened();
    let mut m = Master::new(f.clone(), cfg.clone(), speeds(4));
    m.on_start(&mut ctx(0.0));
    let s = crate::standby::StandbyNode::new(
        Client::new(NodeId(1), cfg.clone()),
        f,
        cfg,
        speeds(4),
        Obs::default(),
    );
    (m, s)
}

#[test]
fn standby_rejects_a_corrupted_record_and_the_dup_ack_re_requests_it() {
    let (mut m, mut s) = master_and_standby();
    let mut batches = batches_to_standby(&register(&mut m, 2, 0.0));
    batches.extend(batches_to_standby(&register(&mut m, 3, 0.5)));
    assert!(!batches.is_empty());
    let total: usize = batches.iter().map(|(_, r)| r.len()).sum();

    // first batch arrives with one record mangled in flight: nothing
    // past the damage may be applied, and the ack repeats the last
    // verified position instead of covering the batch
    let (start, mut records) = batches[0].clone();
    assert_eq!(start, 0);
    records[0].corrupt_bit(7);
    let mut cx = ctx_at(1, 1.0);
    s.on_message(NodeId(0), GridMsg::JournalBatch { start, records }, &mut cx);
    assert_eq!(s.rejected(), 1);
    assert_eq!(s.tailed().len(), 0, "a rejected record is never applied");
    let acks: Vec<u64> = cx
        .take_actions()
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to: NodeId(0),
                msg: GridMsg::JournalAck { next },
            } => Some(*next),
            _ => None,
        })
        .collect();
    assert_eq!(
        acks,
        vec![0],
        "the withheld ack repeats the verified prefix"
    );

    // the duplicate ack rewinds the master's ship cursor, and the same
    // delivery immediately re-ships from the gap
    let mut cx = ctx(1.5);
    m.on_message(NodeId(1), GridMsg::JournalAck { next: 0 }, &mut cx);
    let reshipped = batches_to_standby(&cx.take_actions());
    assert!(
        reshipped.iter().any(|(start, _)| *start == 0),
        "the master must re-ship from the rejected record"
    );

    // the clean re-ship catches the standby up completely
    for (start, records) in reshipped {
        let mut cx = ctx_at(1, 6.0);
        s.on_message(NodeId(0), GridMsg::JournalBatch { start, records }, &mut cx);
    }
    assert_eq!(s.tailed().len() as usize, total);
    assert_eq!(s.rejected(), 1);

    // with the journal intact, a quiet feed still promotes cleanly
    let mut cx = ctx_at(1, 100.0);
    s.on_tick(&mut cx);
    assert!(s.promoted_master().is_some(), "standby takes over");
}

#[test]
fn standby_journal_is_the_masters_byte_prefix_through_a_rejected_record() {
    let (mut m, mut s) = master_and_standby();
    let mut batches = Vec::new();
    for (id, t) in [(2, 0.0), (3, 0.5), (4, 1.0)] {
        batches.extend(batches_to_standby(&register(&mut m, id, t)));
    }
    assert!(batches.len() >= 3 && batches[0].1.len() >= 2);
    // one batch to the standby; the standby's ack to the master; what
    // the master re-ships in answer
    let deliver = |m: &mut Master, s: &mut crate::standby::StandbyNode, (start, records), t| {
        let mut cx = ctx_at(1, t);
        s.on_message(NodeId(0), GridMsg::JournalBatch { start, records }, &mut cx);
        let mut reshipped = Vec::new();
        for action in cx.take_actions() {
            if let Action::Send { msg, .. } = action {
                let mut cx = ctx(t);
                m.on_message(NodeId(1), msg, &mut cx);
                reshipped.extend(batches_to_standby(&cx.take_actions()));
            }
        }
        assert!(m.journal.log_bytes().starts_with(s.tailed().log_bytes()));
        reshipped
    };
    // the first batch's second record is mangled in flight: its first
    // record is acked
    let (start, mut records) = batches[0].clone();
    records[1].corrupt_bit(3);
    assert!(deliver(&mut m, &mut s, (start, records), 1.5).is_empty());
    assert_eq!((s.tailed().len(), s.rejected()), (1, 1));
    // the third batch overtakes the second and is staged; the repeated
    // ack re-ships from the rejected record, which closes the gap and
    // releases the staged batch
    let reshipped = deliver(&mut m, &mut s, batches[2].clone(), 1.6);
    assert_eq!(s.tailed().len(), 1, "a batch past the gap waits");
    assert_eq!(reshipped.first().map(|(start, _)| *start), Some(1));
    for batch in reshipped {
        deliver(&mut m, &mut s, batch, 2.0);
    }
    assert_eq!(s.tailed().log_bytes(), m.journal.log_bytes());
    assert_eq!(s.tailed().records(), m.journal.records());
}

/// Node 0 serves clients 1 (the standby, which gets the problem), 2 and 3,
/// then dies for good; node 1, which tailed every journal batch, promotes
/// at t = 60. The promoted master and what its takeover sent.
fn promote_node_1() -> (Master, Vec<Action<GridMsg>>) {
    fn tail(actions: &[Action<GridMsg>], tailed: &mut MasterJournal) {
        for a in actions {
            if let Action::Send {
                to: NodeId(1),
                msg: GridMsg::JournalBatch { start, records },
            } = a
            {
                // batches arrive gapless and in order on a healthy link
                assert_eq!(*start, tailed.len());
                for sealed in records {
                    tailed
                        .append_sealed(sealed)
                        .expect("verifies as the next record");
                }
            }
        }
    }
    let f = gridsat_cnf::paper::fig1_formula();
    let cfg = GridConfig::failover_hardened();
    let mut m = Master::new(f.clone(), cfg.clone(), speeds(4));
    let mut cx = ctx(0.0);
    m.on_start(&mut cx);
    let mut tailed = MasterJournal::new();
    // node 1 doubles as standby and first client: it gets the problem
    let actions = register(&mut m, 1, 0.0);
    tail(&actions, &mut tailed);
    let own_spec = actions
        .iter()
        .find_map(|a| match a {
            Action::Send {
                to: NodeId(1),
                msg: GridMsg::Solve { spec, .. },
            } => Some(*spec.clone()),
            _ => None,
        })
        .expect("first registrant gets the problem");
    let own_problem = ProblemId::new(NodeId(0), 1);
    tail(&register(&mut m, 2, 1.0), &mut tailed);
    tail(&register(&mut m, 3, 2.0), &mut tailed);
    assert_eq!(tailed.log_bytes(), m.journal.log_bytes());
    // node 0 dies for good; the standby promotes from what it tailed
    let mut cx = ctx_at(1, 60.0);
    let p = Master::promoted(
        f,
        cfg,
        speeds(4),
        tailed,
        Some((own_spec, Some(own_problem))),
        Obs::default(),
        &mut cx,
    );
    (p, cx.take_actions())
}

#[test]
fn promoted_standby_resumes_from_shipped_records() {
    let (p, actions) = promote_node_1();
    // survivors are told to re-register; the promoted master skips itself
    for id in [2u32, 3] {
        assert!(actions.iter().any(
            |a| matches!(a, Action::Send { to, msg: GridMsg::Takeover } if *to == NodeId(id))
        ));
    }
    assert!(!actions.iter().any(|a| matches!(
        a,
        Action::Send {
            to: NodeId(1),
            msg: GridMsg::Takeover
        }
    )));
    // the subproblem the standby was solving as a client goes back out
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send {
            msg: GridMsg::Solve { .. },
            ..
        }
    )));
    // the replay restarted every survivor's lease at the promotion
    // instant, and a promoted master has no standby of its own
    assert!(p.core.clients.values().all(|c| c.last_seen == 60.0));
    assert!(p.standby.is_none());
}

#[test]
fn an_adoption_claim_overtaken_by_its_result_leaves_the_client_idle() {
    // client 2 held a cube the dead master's journal suffix never shipped.
    // Its claim, a snapshot taken when the takeover reached it, is lost
    // once; the cube's result overtakes the retransmission.
    let cube = ProblemId::new(NodeId(3), 7);
    let adopt = || GridMsg::Adopt {
        memory: 3 << 20,
        availability: 1.0,
        problem: Some(cube),
        checkpoint: None,
    };
    let result = || GridMsg::Result {
        result: SubResult::Unsat,
        problem: cube,
    };
    for overtaken in [true, false] {
        let (mut p, _) = promote_node_1();
        let order = if overtaken {
            [result(), adopt()]
        } else {
            [adopt(), result()]
        };
        for (k, msg) in order.into_iter().enumerate() {
            let mut cx = ctx_at(1, 61.0 + k as f64);
            p.on_message(NodeId(2), msg, &mut cx);
        }
        let info = &p.core.clients[&NodeId(2)];
        assert_eq!(
            (info.state(), info.problem),
            (ClientState::Idle, None),
            "result first: {overtaken}"
        );
        assert!(p.core.cubes.refuted(cube), "result first: {overtaken}");
    }
}

#[test]
fn randomized_schedules_replay_to_the_live_state() {
    // hand-rolled xorshift64: deterministic, no external dependency
    fn xs(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }
    let f = gridsat_cnf::paper::fig1_formula();
    let cfg = GridConfig::chaos_hardened();
    let mut seed = 0x9e3779b97f4a7c15u64;
    for round in 0..20 {
        let mut m = Master::new(f.clone(), cfg.clone(), speeds(6));
        let mut known: Vec<ProblemId> = Vec::new();
        let mut child = 0u32;
        let mut t = 0.0;
        for _ in 0..40 {
            t += 0.5; // stays far under the 30 s lease
            let node = NodeId(1 + (xs(&mut seed) % 6) as u32);
            match xs(&mut seed) % 6 {
                0 => {
                    let mut cx = ctx(t);
                    m.on_message(
                        node,
                        GridMsg::Register {
                            memory: 3 << 20,
                            availability: 1.0,
                        },
                        &mut cx,
                    );
                }
                1 => {
                    let problem = m
                        .core
                        .clients
                        .get(&node)
                        .and_then(|c| c.problem)
                        .unwrap_or(ProblemId::new(node, 1));
                    let mut cx = ctx(t);
                    m.on_message(node, GridMsg::SplitRequest { problem }, &mut cx);
                }
                2 => {
                    // complete an open grant with the full (5)+(4) pair
                    let grant = m.core.grants.iter().next().map(|(r, (p, ..))| (*r, *p));
                    if let Some((requester, peer)) = grant {
                        child += 1;
                        let p_child = ProblemId::new(requester, child);
                        known.push(p_child);
                        let mut cx = ctx(t);
                        m.on_message(
                            requester,
                            GridMsg::SplitDone {
                                requester,
                                peer,
                                ok: true,
                                problem: Some(p_child),
                                pivot: None,
                                checkpoint: None,
                                stolen: false,
                            },
                            &mut cx,
                        );
                        let mut cx = ctx(t);
                        m.on_message(
                            peer,
                            GridMsg::SplitDone {
                                requester,
                                peer,
                                ok: true,
                                problem: Some(p_child),
                                pivot: None,
                                checkpoint: Some(Box::new(Checkpoint { level0: vec![] })),
                                stolen: false,
                            },
                            &mut cx,
                        );
                    }
                }
                3 => {
                    if let Some(&p) = known.first() {
                        let mut cx = ctx(t);
                        m.on_message(
                            node,
                            GridMsg::Result {
                                result: SubResult::Unsat,
                                problem: p,
                            },
                            &mut cx,
                        );
                    }
                }
                4 => {
                    let lit = gridsat_cnf::Lit::pos((xs(&mut seed) % 14) as u32);
                    if let Some(p) = m.core.clients.get(&node).and_then(|c| c.problem) {
                        let mut cx = ctx(t);
                        m.on_message(
                            node,
                            GridMsg::CheckpointMsg {
                                problem: p,
                                checkpoint: Box::new(Checkpoint {
                                    level0: vec![(lit, true)],
                                }),
                            },
                            &mut cx,
                        );
                    }
                }
                _ => {
                    if m.core.clients.len() > 1 && m.core.clients.contains_key(&node) {
                        let mut cx = ctx(t);
                        m.on_node_down(node, &mut cx);
                    }
                }
            }
            if m.outcome().is_some() {
                break;
            }
        }
        let replayed = m.fold(&m.journal);
        assert_eq!(
            replayed.image(),
            m.core.image(),
            "round {round}: replayed scheduling state diverged from live state"
        );
    }
}

/// The three messages a settled steal and its result bring to the root:
/// the donor's notice, the thief's confirmation, the thief's result.
#[derive(Clone, Copy, Debug)]
enum StealMsg {
    Notice,
    Done,
    Result,
}

#[test]
fn a_stolen_cubes_result_closes_its_steal_in_every_delivery_order() {
    use StealMsg::{Done, Notice, Result};
    let f = gridsat_cnf::paper::fig1_formula();
    let cfg = GridConfig::chaos_hardened().hierarchical();
    let (donor, thief) = (NodeId(1), NodeId(2));
    let stolen = ProblemId::new(donor, 1);
    // in order; the confirmation lost once and retransmitted after the
    // result (the `chaos_soak --plan submaster-loss` seed-10 wedge); the
    // notice retransmitted as well
    for order in [
        [Notice, Done, Result],
        [Notice, Result, Done],
        [Result, Notice, Done],
    ] {
        let mut m = Master::new(f.clone(), cfg.clone(), speeds(4));
        register(&mut m, donor.0, 0.0); // busy with the whole problem
        register(&mut m, thief.0, 0.0); // idle
        for (k, msg) in order.into_iter().enumerate() {
            let mut cx = ctx(1.0 + k as f64);
            let (from, msg) = match msg {
                Notice => (
                    donor,
                    GridMsg::StealNotice {
                        parent: ProblemId::new(NodeId(0), 1),
                        problem: stolen,
                        pivot: Some(gridsat_cnf::Lit::pos(2)),
                    },
                ),
                Done => (
                    thief,
                    GridMsg::SplitDone {
                        requester: donor,
                        peer: thief,
                        ok: true,
                        problem: Some(stolen),
                        pivot: None,
                        checkpoint: Some(Box::new(Checkpoint { level0: vec![] })),
                        stolen: true,
                    },
                ),
                Result => (
                    thief,
                    GridMsg::Result {
                        result: SubResult::Unsat,
                        problem: stolen,
                    },
                ),
            };
            m.on_message(from, msg, &mut cx);
        }
        assert_eq!(
            m.core.clients[&thief].state(),
            ClientState::Idle,
            "{order:?}: the thief finished its cube"
        );
        // the stolen cube is refuted, and placed in the split tree below
        // the donor's: the root's cube kept the pivot
        assert!(m.core.cubes.refuted(stolen), "{order:?}");
        let neg = gridsat_cnf::Lit::neg(2);
        assert_eq!(m.core.cubes.path(stolen), Some(vec![neg]), "{order:?}");
        // counted as settled unless the root never saw the steal open
        let seen_open = !matches!(order[0], Result);
        assert_eq!(m.stats.steals_settled, u64::from(seen_open), "{order:?}");
        // replay and the standby fold the same records to the same state
        let replayed = m.fold(&m.journal);
        assert_eq!(replayed.image(), m.core.image(), "{order:?}");
        // nothing is left to hold off all-idle termination
        let root = m.core.clients[&donor].problem.expect("donor's half");
        let mut cx = ctx(9.0);
        m.on_message(
            donor,
            GridMsg::Result {
                result: SubResult::Unsat,
                problem: root,
            },
            &mut cx,
        );
        assert_eq!(m.outcome(), Some(&GridOutcome::Unsat), "{order:?}");
    }
}

#[test]
fn an_early_result_releases_a_peer_whose_cube_id_was_mislearned() {
    // `chaos_soak` php/seed 6/bit-rot under sharing in rounds: a
    // checkpoint of the peer's *previous* cube, retransmitted, lands while
    // the peer is Receiving its next one and teaches the root the old id;
    // the peer's result for the new cube then overtakes its transfer
    // confirmation, names a cube the root does not think it holds, and
    // idles nobody — the peer stayed Receiving with no grant, for good.
    let f = gridsat_cnf::paper::fig1_formula();
    let cfg = GridConfig::chaos_hardened();
    let mut m = Master::new(f.clone(), cfg.clone(), speeds(4));
    register(&mut m, 1, 0.0); // busy with the whole problem
    register(&mut m, 2, 0.0); // idle
    let whole = ProblemId::new(NodeId(0), 1);
    let mut cx = ctx(1.0);
    m.on_message(NodeId(1), GridMsg::SplitRequest { problem: whole }, &mut cx);
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Receiving);
    let previous = ProblemId::new(NodeId(3), 7);
    let cube = ProblemId::new(NodeId(1), 1);
    let light = || Box::new(Checkpoint { level0: vec![] });
    for (k, msg) in [
        GridMsg::CheckpointMsg {
            problem: previous,
            checkpoint: light(),
        },
        GridMsg::Result {
            result: SubResult::Unsat,
            problem: cube,
        },
        GridMsg::SplitDone {
            requester: NodeId(1),
            peer: NodeId(2),
            ok: true,
            problem: Some(cube),
            pivot: None,
            checkpoint: Some(light()),
            stolen: false,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let mut cx = ctx(2.0 + k as f64);
        m.on_message(NodeId(2), msg, &mut cx);
    }
    assert_eq!(m.core.clients[&NodeId(2)].state(), ClientState::Idle);
    assert!(m.core.grants.is_empty() && m.core.cubes.refuted(cube));
    let replayed = m.fold(&m.journal);
    assert_eq!(replayed.image(), m.core.image());
    let mut cx = ctx(9.0);
    m.on_message(
        NodeId(1),
        GridMsg::Result {
            result: SubResult::Unsat,
            problem: whole,
        },
        &mut cx,
    );
    assert_eq!(m.outcome(), Some(&GridOutcome::Unsat));
}

/// The registered clients in `state`, ascending by id.
fn clients_in(m: &Master, state: ClientState) -> Vec<NodeId> {
    (m.core.clients.iter())
        .filter(|(_, c)| c.state() == state)
        .map(|(id, _)| *id)
        .collect()
}

fn choose(rng: &mut gridsat_cnf::rng::Rng, ids: &[NodeId]) -> Option<NodeId> {
    (!ids.is_empty()).then(|| ids[rng.range_usize(0..ids.len())])
}

/// Property: over random schedules of every roster change the fold knows
/// (register, deregister, dispatch, grant open and close with both
/// `free_peer` values, transfer-in, client idle, steal settle,
/// migrate-sent, load reports, a master restart, a standby promotion),
/// the core's idle index picks exactly what the roster walk it replaced
/// picks, under every policy, `near` site and `exclude`, and its counts
/// equal their walks. The hosts make rank ties (equal speeds) and remote
/// rounding ties (neighbouring speeds whose discounted scores round to
/// one float, the higher rank on the higher id); the test checks that
/// both were met.
#[test]
fn idle_index_agrees_with_the_roster_walk() {
    use gridsat_cnf::rng::Rng;
    const MEMORY: usize = 3 << 20;
    let rank_at = |speed: f64| speed + MEMORY as f64 * 1e-9; // full availability
    let base = (100..)
        .map(f64::from)
        .find(|&s| {
            let (low, high) = (rank_at(s), rank_at(s.next_up()));
            low != high && low * REMOTE_DISCOUNT == high * REMOTE_DISCOUNT
        })
        .expect("some speed has a remote rounding tie");
    let sites = [Site::Ucsd, Site::Utk, Site::Uiuc];
    let speeds = [base, base.next_up(), base, 2.5 * base];
    // node 13 registers without host information
    let hosts: BTreeMap<NodeId, (f64, Site)> = (1..=12u32)
        .map(|i| (NodeId(i), (speeds[i as usize % 4], sites[i as usize % 3])))
        .collect();
    let availabilities = [1.0, 1.0, 0.5, 0.25];
    let register = |availability| GridMsg::Register {
        memory: MEMORY,
        availability,
    };
    let f = gridsat_cnf::paper::fig1_formula();
    let cfg = GridConfig::default();
    let (mut rank_ties, mut rounding_ties) = (0, 0);
    for seed in 0..16 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut m = Master::new(f.clone(), cfg.clone(), hosts.clone());
        m.on_start(&mut ctx(0.0));
        // the whole fleet joins first, so most steps find many clients idle
        for id in 1..=13 {
            let availability = availabilities[rng.range_usize(0..4)];
            m.on_message(NodeId(id), register(availability), &mut ctx(0.0));
        }
        // ids apart from the ones the master mints itself
        let mut minted = 1000;
        for step in 0..80 {
            let t = f64::from(step);
            let case = format!("step {step}, case seed {seed}");
            let mut cx = ctx(t);
            let idle = clients_in(&m, ClientState::Idle);
            let busy = clients_in(&m, ClientState::Busy);
            let registered: Vec<NodeId> = m.core.clients.keys().copied().collect();
            let granted: Vec<NodeId> = m.core.grants.keys().copied().collect();
            let problem = |minted: u32| ProblemId::new(NodeId(0), minted);
            match rng.range_usize(0..12) {
                0 => {
                    let id = NodeId(1 + rng.range_u32(0..13));
                    let availability = availabilities[rng.range_usize(0..4)];
                    m.on_message(id, register(availability), &mut cx);
                }
                1 => {
                    if let Some(id) = choose(&mut rng, &registered) {
                        m.deregister(id, &mut cx);
                    }
                }
                2 => {
                    if let Some(client) = choose(&mut rng, &idle) {
                        minted += 1;
                        let problem = problem(minted);
                        m.commit(
                            t,
                            JournalRecord::AssignWhole {
                                client,
                                problem,
                                at: t,
                            },
                        );
                    }
                }
                3 => {
                    let free: Vec<NodeId> = (busy.iter().copied())
                        .filter(|id| !m.core.grants.contains_key(id))
                        .collect();
                    if let (Some(requester), Some(peer)) =
                        (choose(&mut rng, &free), choose(&mut rng, &idle))
                    {
                        let kind = if rng.gen_bool(0.5) {
                            GrantKind::Split
                        } else {
                            GrantKind::Migrate
                        };
                        let problem = m.core.clients[&requester].problem;
                        let problem = problem.unwrap_or(ProblemId::new(requester, 0));
                        m.commit(
                            t,
                            JournalRecord::GrantOpen {
                                requester,
                                peer,
                                kind,
                                problem,
                            },
                        );
                    }
                }
                4 => {
                    if let Some(requester) = choose(&mut rng, &granted) {
                        let free_peer = rng.gen_bool(0.5);
                        m.commit(
                            t,
                            JournalRecord::GrantClose {
                                requester,
                                free_peer,
                            },
                        );
                    }
                }
                5 => {
                    if let Some(requester) = choose(&mut rng, &granted) {
                        let peer = m.core.grants[&requester].0;
                        minted += 1;
                        let transfer = JournalRecord::TransferIn {
                            peer,
                            problem: problem(minted),
                            checkpoint: None,
                            at: t,
                        };
                        m.commit(t, transfer);
                        let close = JournalRecord::GrantClose {
                            requester,
                            free_peer: false,
                        };
                        m.commit(t, close);
                    }
                }
                6 => {
                    if let Some(client) = choose(&mut rng, &busy) {
                        m.commit(t, JournalRecord::ClientIdle { client });
                    }
                }
                7 => {
                    if let (Some(donor), Some(thief)) =
                        (choose(&mut rng, &busy), choose(&mut rng, &idle))
                    {
                        minted += 1;
                        let problem = problem(minted);
                        let open = JournalRecord::StealOpen {
                            donor,
                            parent: problem,
                            problem,
                            pivot: gridsat_cnf::Lit::pos(0),
                        };
                        m.commit(t, open);
                        let settle = JournalRecord::StealSettle {
                            donor,
                            thief,
                            problem,
                            checkpoint: None,
                            at: t,
                        };
                        m.commit(t, settle);
                    }
                }
                8 => {
                    let migrating: Vec<NodeId> = (m.core.grants.iter())
                        .filter(|(_, (_, kind, _))| *kind == GrantKind::Migrate)
                        .map(|(requester, _)| *requester)
                        .collect();
                    if let Some(requester) = choose(&mut rng, &migrating) {
                        m.commit(t, JournalRecord::MigrateSent { requester });
                    }
                }
                9 => {
                    if let Some(id) = choose(&mut rng, &registered) {
                        let availability = availabilities[rng.range_usize(0..4)];
                        m.on_message(id, GridMsg::LoadReport { availability }, &mut cx);
                    }
                }
                10 => m.on_start(&mut cx), // restart: replay the journal
                _ => {
                    let me = 1 + rng.range_u32(0..12);
                    let journal = std::mem::take(&mut m.journal);
                    m = Master::promoted(
                        f.clone(),
                        cfg.clone(),
                        hosts.clone(),
                        journal,
                        None,
                        Obs::default(),
                        &mut ctx_at(me, t),
                    );
                }
            }
            assert!(m.outcome().is_none(), "{case}");

            let idle: Vec<(NodeId, f64)> = idle_clients(&m.core.clients, NodeId(u32::MAX))
                .map(|(id, c)| (*id, c.rank()))
                .collect();
            assert_eq!(m.core.idle.len(), idle.len(), "{case}");
            let busy = m.core.clients.len() - idle.len();
            assert_eq!(m.core.busy_count(), busy, "{case}");
            for (k, &(low_id, low)) in idle.iter().enumerate() {
                for &(high_id, high) in &idle[k + 1..] {
                    rank_ties += usize::from(low == high);
                    let same_site =
                        m.site_of(low_id).is_some() && m.site_of(low_id) == m.site_of(high_id);
                    rounding_ties += usize::from(
                        same_site && low < high && low * REMOTE_DISCOUNT == high * REMOTE_DISCOUNT,
                    );
                }
            }

            for policy in [
                SchedPolicy::NwsRank,
                SchedPolicy::WorstRank,
                SchedPolicy::Random(1),
            ] {
                let draws: &[u64] = match policy {
                    SchedPolicy::Random(_) => &[0, 1, 7, u64::MAX],
                    _ => &[0],
                };
                for near in [None, Some(Site::Ucsd), Some(Site::Utk), Some(Site::Uiuc)] {
                    for exclude in (0..=13).map(NodeId).chain([NodeId(u32::MAX)]) {
                        let what = format!("{policy:?} near {near:?} exclude {exclude}, {case}");
                        for &draw in draws {
                            let walk = pick_by_walk(
                                &m.core.clients,
                                &m.host_info,
                                policy,
                                exclude,
                                near,
                                draw,
                            );
                            let index = m.core.idle.pick(policy, exclude, near, draw);
                            assert_eq!(index, walk, "draw {draw}, {what}");
                        }
                        // a Random pick leaves its draw as the generator state
                        let picked = m.pick_idle(policy, exclude, near);
                        let walk = pick_by_walk(
                            &m.core.clients,
                            &m.host_info,
                            policy,
                            exclude,
                            near,
                            m.rng_state,
                        );
                        assert_eq!(picked, walk, "{what}");
                    }
                }
            }
        }
    }
    assert!(
        rank_ties > 0 && rounding_ties > 0,
        "{rank_ties} rank ties, {rounding_ties} rounding ties"
    );
}
