//! Golden-file test for the JSONL event schema: the wire format is a
//! stable contract (external tooling may parse traces), so any change to
//! field names, field order, or number formatting must show up as a diff
//! against `golden_trace.jsonl` and be made deliberately.

use gridsat_obs::{from_jsonl, to_jsonl, DropReason, Event, TimedEvent};

const GOLDEN: &str = include_str!("golden_trace.jsonl");

/// The exact events `golden_trace.jsonl` encodes — one of every kind.
/// Line `i` carries `seq == i + 1` and `cause == i` (a simple chain), so
/// both the zero and non-zero stamp encodings are covered.
fn golden_events() -> Vec<TimedEvent> {
    let ev = |t_s: f64, node: u32, event: Event| TimedEvent {
        t_s,
        node,
        seq: 0,
        cause: 0,
        event,
    };
    vec![
        ev(0.0, 3, Event::NodeUp),
        ev(0.5, 1, Event::ClientLaunch { client: 1 }),
        ev(0.5, 0, Event::Assign { client: 1 }),
        ev(
            1.25,
            0,
            Event::MsgSend {
                from: 0,
                to: 1,
                label: "solve".into(),
                bytes: 4096,
            },
        ),
        ev(
            2.5,
            1,
            Event::MsgDeliver {
                from: 0,
                to: 1,
                label: "solve".into(),
                bytes: 4096,
            },
        ),
        ev(3.0, 1, Event::Conflict { level: 7 }),
        ev(
            3.0,
            1,
            Event::Learn {
                len: 3,
                global: true,
            },
        ),
        ev(4.5, 1, Event::Restart { conflicts: 100 }),
        ev(
            5.0,
            1,
            Event::DbReduce {
                deleted: 50,
                live: 51,
            },
        ),
        ev(
            5.1,
            1,
            Event::DbGc {
                freed_bytes: 1184,
                live: 51,
            },
        ),
        ev(
            6.0,
            0,
            Event::BacklogEnqueue {
                client: 1,
                depth: 1,
            },
        ),
        ev(
            7.0,
            0,
            Event::BacklogDequeue {
                client: 1,
                depth: 0,
            },
        ),
        ev(
            8.0,
            0,
            Event::Split {
                requester: 1,
                peer: 2,
            },
        ),
        ev(
            9.5,
            2,
            Event::MsgDrop {
                from: 2,
                to: 3,
                label: "share".into(),
                bytes: 128,
                reason: DropReason::DeadPeer,
            },
        ),
        ev(10.0, 0, Event::Migrate { from: 2, to: 4 }),
        ev(11.0, 0, Event::CheckpointSaved { client: 4 }),
        ev(
            12.0,
            0,
            Event::ResultReport {
                client: 4,
                sat: false,
            },
        ),
        ev(13.0, 3, Event::NodeDown),
        ev(
            13.1,
            0,
            Event::FaultInject {
                what: "link_down 1-2".into(),
            },
        ),
        ev(
            13.2,
            1,
            Event::Retransmit {
                to: 0,
                label: "result(UNSAT)".into(),
                attempt: 1,
            },
        ),
        ev(13.3, 1, Event::Acked { peer: 0 }),
        ev(
            13.4,
            0,
            Event::DupDrop {
                from: 1,
                label: "result(UNSAT)".into(),
            },
        ),
        ev(
            13.45,
            0,
            Event::CorruptDrop {
                from: 2,
                label: "share".into(),
            },
        ),
        ev(
            13.47,
            0,
            Event::PeerQuarantine {
                client: 2,
                strikes: 25,
            },
        ),
        ev(13.5, 0, Event::LeaseExpire { client: 2 }),
        ev(13.6, 0, Event::JournalAppend { record: 41, lag: 3 }),
        ev(13.7, 5, Event::JournalReplay { records: 42 }),
        ev(
            13.75,
            0,
            Event::JournalTruncate {
                kept: 40,
                dropped_bytes: 17,
            },
        ),
        ev(13.8, 1, Event::StandbyPromote { records: 42 }),
        ev(
            13.9,
            0,
            Event::AuditViolation {
                path: "[-3 7]".into(),
            },
        ),
        ev(13.92, 2, Event::ShareDedup { dropped: 6 }),
        ev(13.95, 0, Event::Relink { nodes: 5 }),
        ev(
            14.0,
            0,
            Event::Outcome {
                outcome: "UNSAT".into(),
            },
        ),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, mut e)| {
        e.seq = i as u64 + 1;
        e.cause = i as u64;
        e
    })
    .collect()
}

#[test]
fn golden_file_covers_every_event_kind() {
    let kinds: std::collections::BTreeSet<&str> =
        golden_events().iter().map(|e| e.event.kind()).collect();
    assert_eq!(kinds.len(), 33, "update the golden trace when adding kinds");
}

#[test]
fn encoding_matches_the_golden_file_byte_for_byte() {
    assert_eq!(to_jsonl(&golden_events()), GOLDEN);
}

#[test]
fn golden_file_decodes_to_the_expected_events() {
    let parsed = from_jsonl(GOLDEN).expect("golden trace must parse");
    assert_eq!(parsed, golden_events());
}

#[test]
fn golden_file_survives_a_full_round_trip() {
    let parsed = from_jsonl(GOLDEN).unwrap();
    let re_encoded = to_jsonl(&parsed);
    assert_eq!(re_encoded, GOLDEN, "re-encoding must be byte-stable");
}
