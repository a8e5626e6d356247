//! Seed-driven decode fuzzing: every decoder that faces external bytes
//! must return an error on mangled input — never panic — and must
//! round-trip clean input exactly. Covers the three wire decoders:
//! checksummed frames ([`wire::open_frame`]), clause-share batches
//! ([`EncodedBatch`], through both the uncached `decode` and the
//! memoised `decoded` receivers use), subproblem specs ([`SpecFrame`]:
//! `open`, `verify` and `load`, each held against a model of the decoder
//! as first written), and sealed journal records ([`SealedRecord`]), a
//! recovery's journaled spec payload among them. Every spec that decodes
//! is loaded into a solver too.
//!
//! The generator is a plain xorshift so failures reproduce from the
//! printed seed alone (`DECODE_FUZZ_SEED=<n>`), and the iteration count
//! scales down with `DECODE_FUZZ_ITERS` for smoke runs.

use gridsat::journal::{JournalRecord, RecordError, RecoverySpec, SealedRecord};
use gridsat::master::GrantKind;
use gridsat::msg::{Checkpoint, ProblemId};
use gridsat::wire::{self, EncodedBatch, SpecFrame, WireError};
use gridsat_cnf::{Clause, Lit};
use gridsat_grid::NodeId;
use gridsat_solver::{Solver, SolverConfig, SplitSpec};

const DEFAULT_ITERS: u64 = 10_000;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn iters() -> u64 {
    std::env::var("DECODE_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ITERS)
}

fn seed() -> u64 {
    std::env::var("DECODE_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5eed_cafe)
}

/// The variable count of every fuzzed spec, and the bound a client built
/// for their formula loads under.
const VARS: usize = 40;

/// A random clause already in the codec's canonical form (distinct
/// variables, ascending), so an encode/decode round-trip is exact.
fn random_clause(rng: &mut Rng) -> Clause {
    let len = 1 + rng.below(6);
    let mut vars: Vec<u32> = (0..len).map(|_| rng.below(VARS) as u32).collect();
    vars.sort_unstable();
    vars.dedup();
    Clause::new(vars.into_iter().map(|var| {
        if rng.next() & 1 == 0 {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }))
}

fn random_spec(rng: &mut Rng) -> SplitSpec {
    SplitSpec {
        num_vars: VARS,
        assumptions: (0..rng.below(5))
            .map(|_| (Lit::pos(rng.below(VARS) as u32), rng.next() & 1 == 0))
            .collect(),
        clauses: (0..rng.below(8)).map(|_| random_clause(rng)).collect(),
    }
}

fn random_lit(rng: &mut Rng) -> Lit {
    Lit::from_code(rng.below(1 << 20))
}

fn random_problem(rng: &mut Rng) -> ProblemId {
    ProblemId::new(NodeId(rng.below(9) as u32), rng.next() as u32)
}

fn random_record(rng: &mut Rng) -> JournalRecord {
    match rng.below(8) {
        5 => JournalRecord::SplitKept {
            requester: NodeId(rng.below(9) as u32),
            peer: NodeId(rng.below(9) as u32),
            child: random_problem(rng),
            pivot: random_lit(rng),
            at: rng.below(1000) as f64 / 8.0,
        },
        6 => JournalRecord::GrantOpen {
            requester: NodeId(rng.below(9) as u32),
            peer: NodeId(rng.below(9) as u32),
            kind: if rng.next() & 1 == 0 {
                GrantKind::Split
            } else {
                GrantKind::Migrate
            },
        },
        7 => JournalRecord::StealOpen {
            donor: NodeId(rng.below(9) as u32),
            parent: random_problem(rng),
            problem: random_problem(rng),
            pivot: random_lit(rng),
        },
        4 => JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame: SpecFrame::seal(&random_spec(rng)),
                source: (rng.next() & 1 == 0)
                    .then(|| ProblemId::new(NodeId(2), rng.next() as u32 & 0xffff)),
            },
        },
        0 => JournalRecord::ClientIdle {
            client: NodeId(rng.below(9) as u32),
        },
        1 => JournalRecord::Join {
            client: NodeId(rng.below(9) as u32),
            memory: rng.below(1 << 20),
            availability: 0.5,
            problem: (rng.next() & 1 == 0).then(|| random_problem(rng)),
            checkpoint: (rng.next() & 1 == 0).then(|| random_checkpoint(rng)),
            at: rng.below(1000) as f64,
        },
        2 => JournalRecord::BacklogPush {
            client: NodeId(rng.below(9) as u32),
        },
        _ => JournalRecord::CheckpointAccept {
            client: NodeId(rng.below(9) as u32),
            checkpoint: random_checkpoint(rng),
        },
    }
}

fn random_checkpoint(rng: &mut Rng) -> Checkpoint {
    Checkpoint {
        level0: (0..1 + rng.below(3))
            .map(|_| (Lit::pos(rng.below(40) as u32), rng.next() & 1 == 0))
            .collect(),
    }
}

/// Mangle `clean` one of three ways: truncate, flip 1–8 bits, or
/// replace with unstructured garbage.
fn mangle(rng: &mut Rng, clean: &[u8]) -> Vec<u8> {
    match rng.below(3) {
        0 => clean[..rng.below(clean.len().max(1))].to_vec(),
        1 => {
            let mut bad = clean.to_vec();
            if !bad.is_empty() {
                for _ in 0..1 + rng.below(8) {
                    let bit = rng.below(bad.len() * 8);
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
            }
            bad
        }
        _ => (0..rng.below(200)).map(|_| rng.next() as u8).collect(),
    }
}

/// Mangled frames must error (or, when a bit flip happens to leave the
/// header parseable but touch nothing checked, still decode to *some*
/// payload without panicking — CRC32 catches every 1–8 bit flip, so in
/// practice only the identity mangle survives).
#[test]
fn fuzz_frame_decoder_never_panics() {
    let mut rng = Rng(seed() | 1);
    for i in 0..iters() {
        let payload: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
        let clean = wire::seal_frame(&payload);
        assert_eq!(
            wire::open_frame(&clean).expect("clean frame opens"),
            &payload[..],
            "iter {i}: clean round-trip"
        );
        let bad = mangle(&mut rng, &clean);
        if bad != clean {
            assert!(
                wire::open_frame(&bad).is_err(),
                "iter {i}: mangled frame decoded (seed {})",
                seed()
            );
        }
    }
}

#[test]
fn fuzz_share_batch_decoder_never_panics() {
    let mut rng = Rng(seed() | 1);
    for i in 0..iters() {
        let shares: Vec<(Clause, u64)> = (0..rng.below(6))
            .map(|_| {
                let c = random_clause(&mut rng);
                let fp = c.fingerprint();
                (c, fp)
            })
            .collect();
        let clean = EncodedBatch::encode(&shares);
        assert_eq!(
            clean.decode().expect("clean batch decodes"),
            shares,
            "iter {i}: clean round-trip"
        );
        // the memoised accessor receivers use: same verdict, same clauses
        assert_eq!(
            clean.decoded().expect("clean batch decodes"),
            &shares[..],
            "iter {i}: clean round-trip, memoised"
        );
        // half the victims are mangled with the memo filled (the engine
        // corrupts batches other recipients already verified), half cold
        let mut bad = clean.clone();
        if rng.next() & 1 == 0 {
            assert!(bad.intact() && bad.decoded().is_ok());
        }
        bad.corrupt_bit(rng.next());
        // a single flipped bit must never pass the CRC
        assert!(
            bad.decode().is_err(),
            "iter {i}: bit-flipped batch decoded (seed {})",
            seed()
        );
        assert!(!bad.intact(), "iter {i}: stale frame verdict survived");
        assert_eq!(
            bad.decoded().err(),
            bad.decode().err(),
            "iter {i}: memoised verdict differs (seed {})",
            seed()
        );
        // unstructured garbage must error, not panic — and the memoised
        // accessor must agree with the uncached one, first call and second
        let garbage =
            EncodedBatch::from_wire((0..rng.below(200)).map(|_| rng.next() as u8).collect());
        let uncached = garbage.decode();
        for _ in 0..2 {
            assert_eq!(garbage.decoded().map(<[_]>::to_vec), uncached, "iter {i}");
        }
    }
}

/// The spec decoder as first written, a heap `Clause` per clause, with
/// each literal's variable checked against `num_vars` as it is read: the
/// model the spec walker must agree with, error for error.
fn reference_decode_spec(buf: &[u8]) -> Result<SplitSpec, WireError> {
    fn varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
        let (mut v, mut shift) = (0u64, 0u32);
        loop {
            let byte = *buf.get(*pos).ok_or(WireError::Truncated)?;
            *pos += 1;
            if shift == 63 && byte > 1 {
                return Err(WireError::Overflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Overflow);
            }
        }
    }
    let unzigzag = |v: u64| ((v >> 1) as i64) ^ -((v & 1) as i64);
    let mut pos = 0;
    let num_vars = varint(buf, &mut pos)?;
    let n_asm = varint(buf, &mut pos)?;
    if n_asm > buf.len() as u64 {
        return Err(WireError::Truncated);
    }
    let mut assumptions = Vec::new();
    for _ in 0..n_asm {
        let packed = varint(buf, &mut pos)?;
        if packed >> 1 > u64::from(u32::MAX) || packed >> 2 >= num_vars {
            return Err(WireError::Overflow);
        }
        assumptions.push((Lit::from_code((packed >> 1) as usize), packed & 1 == 1));
    }
    let n_clauses = varint(buf, &mut pos)?;
    if n_clauses > buf.len() as u64 {
        return Err(WireError::Truncated);
    }
    let mut clauses = Vec::new();
    for _ in 0..n_clauses {
        let len = varint(buf, &mut pos)?;
        if len > buf.len() as u64 {
            return Err(WireError::Truncated);
        }
        let (mut lits, mut prev) = (Vec::new(), 0i64);
        for k in 0..len {
            let d = unzigzag(varint(buf, &mut pos)?);
            let code = if k == 0 { d } else { prev.saturating_add(d) };
            if !(0..=i64::from(u32::MAX)).contains(&code) || code as u64 >> 1 >= num_vars {
                return Err(WireError::Overflow);
            }
            lits.push(Lit::from_code(code as usize));
            prev = code;
        }
        clauses.push(Clause::new(lits));
    }
    if pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(SplitSpec {
        num_vars: num_vars as usize,
        assumptions,
        clauses,
    })
}

/// `frame` opened, verified and loaded under the formula's bound: each
/// must answer `want`, and a loaded solver must be the one `want`'s spec
/// builds, unless it names more than [`VARS`] variables.
fn assert_spec_reads(frame: &SpecFrame, want: &Result<SplitSpec, WireError>, what: &str) {
    assert_eq!(&frame.open(), want, "{what}: open (seed {})", seed());
    let verdict = want.as_ref().map(drop).map_err(|e| *e);
    assert_eq!(frame.verify(), verdict, "{what}: verify (seed {})", seed());
    let config = SolverConfig::default();
    let loaded = frame.load(config.clone(), VARS).map(|s| s.loaded_state());
    let built = match want {
        Ok(spec) if spec.num_vars > VARS => Err(WireError::Overflow),
        Ok(spec) => Ok(Solver::from_split(spec, config).loaded_state()),
        Err(e) => Err(*e),
    };
    assert_eq!(loaded, built, "{what}: load (seed {})", seed());
}

#[test]
fn fuzz_spec_frame_decoder_never_panics() {
    let mut rng = Rng(seed() | 1);
    for i in 0..iters() {
        let spec = random_spec(&mut rng);
        let clean = SpecFrame::seal(&spec);
        assert_spec_reads(&clean, &Ok(spec), &format!("iter {i}: clean round-trip"));
        let mut bad = clean.clone();
        bad.corrupt_bit(rng.next());
        assert!(
            bad.open().is_err() && bad.verify().is_err(),
            "iter {i}: bit-flipped spec frame opened (seed {})",
            seed()
        );
        let garbage = SpecFrame::from_wire((0..rng.below(200)).map(|_| rng.next() as u8).collect());
        assert_spec_reads(&garbage, &garbage.open(), &format!("iter {i}: garbage"));
        // the same mangles behind a valid checksum, so the walk itself
        // sees them: every reader answers what the model answers
        let payload = mangle(&mut rng, clean.payload());
        let framed = SpecFrame::from_wire(wire::seal_frame(&payload));
        let want = reference_decode_spec(&payload);
        assert_spec_reads(&framed, &want, &format!("iter {i}: mangled"));
    }
}

#[test]
fn fuzz_sealed_record_decoder_never_panics() {
    let mut rng = Rng(seed() | 1);
    for i in 0..iters() {
        let rec = random_record(&mut rng);
        let seq = rng.next() & 0xffff_ffff;
        let clean = SealedRecord::seal(seq, &rec);
        let (got_seq, got_rec) = clean.open().expect("clean record opens");
        assert_eq!(
            (got_seq, &got_rec),
            (seq, &rec),
            "iter {i}: clean round-trip"
        );
        let mut bad = clean.clone();
        bad.corrupt_bit(rng.next());
        assert!(
            bad.open().is_err(),
            "iter {i}: bit-flipped record opened (seed {})",
            seed()
        );
        let garbage =
            SealedRecord::from_wire((0..rng.below(200)).map(|_| rng.next() as u8).collect());
        let _ = garbage.open();
        // a recovery whose spec is mangled behind a valid frame and a
        // valid record checksum: the journal decoder answers what the
        // spec decoder answers
        let frame = SpecFrame::seal(&random_spec(&mut rng));
        let payload = mangle(&mut rng, frame.payload());
        let rec = JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame: SpecFrame::from_wire(wire::seal_frame(&payload)),
                source: None,
            },
        };
        let reopened = SealedRecord::seal(seq, &rec).open();
        match reference_decode_spec(&payload) {
            Ok(_) => assert_eq!(reopened, Ok((seq, rec)), "iter {i}"),
            Err(e) => assert_eq!(
                reopened,
                Err(RecordError::Wire(e)),
                "iter {i}: a mangled recovery opened (seed {})",
                seed()
            ),
        }
    }
}
