//! Encode-once wire codec for the distributed data path.
//!
//! The simulator never pushes real bytes through sockets, but the
//! bandwidth/latency model and the NWS transfer forecasts are only as
//! honest as [`GridMsg::size_bytes`](crate::msg::GridMsg::size_bytes).
//! This module gives the two bulk payloads — share batches and
//! subproblem specs — a concrete binary layout so message sizes are the
//! *actual* encoded length, and so a share batch is serialized exactly
//! once per drain no matter how wide the fan-out is.
//!
//! ## Layout
//!
//! Everything is LEB128 varints. A clause is
//!
//! ```text
//! varint(len) · zigzag(code₀) · zigzag(code₁ − code₀) · …
//! ```
//!
//! i.e. first literal code absolute, the rest delta-coded against the
//! previous literal. Share batches canonicalize each clause (sorted,
//! deduplicated literal codes) before encoding, so deltas are small and
//! positive and the receiver can recompute the clause
//! [fingerprint](Clause::fingerprint) from the decoded literals — the
//! 8-byte fingerprints never travel on the wire. Subproblem specs keep
//! their literal order (the zigzag handles negative deltas), so
//! encode→decode is the identity.
//!
//! A share batch is `varint(count)` followed by the clauses; a
//! [`SplitSpec`] is
//!
//! ```text
//! varint(num_vars) · varint(#assumptions) · varint(code≪1 | global)* ·
//! varint(#clauses) · clause*
//! ```
//!
//! A spec has one encoder, `SpecEncoder`, and one decoder,
//! [`decode_spec_flat`]. A donor's split and a migration stream their
//! clauses from the solver's arena into the encoder
//! ([`SpecFrame::split_off`], [`SpecFrame::export`]) and a thief loads
//! its solver from the flat decode ([`FlatSpec`]), so a hand-off builds
//! no heap `Clause` on either side. The master and its journal route the
//! sealed frame as it is (`SpecFrame::verify`, [`SpecFrame::payload`]);
//! [`SpecFrame::seal`] and [`SpecFrame::open`] wrap the encoder and the
//! decoder for whoever holds a [`SplitSpec`]. A message's size is its
//! frame's length.
//!
//! ## Framing
//!
//! Both bulk payloads travel inside a versioned, checksummed frame:
//!
//! ```text
//! 'G' 'S' · version(1 byte) · payload_len(u32 LE) · crc32(u32 LE) · payload
//! ```
//!
//! The chaos harness flips payload bits in flight
//! ([`NetChaos::corrupt_prob`](gridsat_grid::NetChaos)), so every decode
//! path verifies the CRC before touching the payload and returns a typed
//! [`WireError`] on any mangled, truncated or over-length input — no
//! decoder in this module can panic on external bytes.

use gridsat_cnf::{Clause, Lit};
use gridsat_solver::{Solver, SplitSpec};
use std::fmt;
use std::sync::OnceLock;

/// Decoding failure on a wire payload: line noise (the chaos harness
/// corrupts frames in flight), truncation, or an encoder/decoder
/// mismatch. Every variant is recoverable — the receiver counts the
/// frame as dropped and relies on retransmission or periodic re-send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended mid-value.
    Truncated,
    /// A varint exceeded 64 bits or a literal code exceeded the
    /// representable range.
    Overflow,
    /// Frame did not start with the `GS` magic bytes.
    BadMagic,
    /// Frame version is newer than this decoder understands.
    BadVersion(u8),
    /// Payload bytes did not hash to the frame's CRC32.
    Checksum,
    /// The buffer carries more bytes than the frame header declares.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire payload truncated"),
            WireError::Overflow => write!(f, "wire varint overflow"),
            WireError::BadMagic => write!(f, "frame magic mismatch"),
            WireError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::TrailingBytes => write!(f, "bytes beyond the framed payload"),
        }
    }
}

impl std::error::Error for WireError {}

// ----------------------------------------------------------------------
// CRC32 (IEEE, reflected) — hand-rolled: the build environment has no
// crates.io access, so the checksum ships with the codec.
// ----------------------------------------------------------------------

/// Slice-by-8 tables: `t[0]` is the classic bytewise table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the state with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// One byte into the CRC state.
#[inline]
fn crc32_byte(c: u32, b: u8) -> u32 {
    CRC32_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
}

/// CRC32 (IEEE 802.3 polynomial, reflected) of `bytes`, eight bytes a
/// step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = crc32_byte(c, b);
    }
    !c
}

// ----------------------------------------------------------------------
// Frame header
// ----------------------------------------------------------------------

const FRAME_MAGIC: [u8; 2] = *b"GS";

/// Current frame version. Decoders accept this version only; a bumped
/// version is a protocol change and must stay backwards-readable by
/// matching on the version byte here.
pub const FRAME_VERSION: u8 = 1;

/// Bytes of the frame header preceding the payload.
pub const FRAME_HEADER_BYTES: usize = 11;

/// Wrap `payload` in a versioned, checksummed frame.
pub fn seal_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = begin_frame(payload.len());
    out.extend_from_slice(payload);
    end_frame(&mut out);
    out
}

/// A frame buffer for a payload of `payload_len` bytes, sized exactly
/// for it: the header with its length and checksum still blank. The
/// payload is appended in place, then [`end_frame`] fills them in.
fn begin_frame(payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload_len);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.resize(FRAME_HEADER_BYTES, 0);
    out
}

/// Fill in the length and checksum of the payload appended to a
/// [`begin_frame`] buffer.
fn end_frame(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
    header[3..7].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[7..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Verify a frame and return its payload. Rejects short buffers, wrong
/// magic, unknown versions, length mismatches in either direction, and
/// any payload whose CRC32 does not match the header.
pub fn open_frame(buf: &[u8]) -> Result<&[u8], WireError> {
    let header = buf.get(..FRAME_HEADER_BYTES).ok_or(WireError::Truncated)?;
    if header[..2] != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    if header[2] != FRAME_VERSION {
        return Err(WireError::BadVersion(header[2]));
    }
    let len = u32::from_le_bytes([header[3], header[4], header[5], header[6]]) as usize;
    let want = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
    let payload = &buf[FRAME_HEADER_BYTES..];
    match payload.len() {
        n if n < len => return Err(WireError::Truncated),
        n if n > len => return Err(WireError::TrailingBytes),
        _ => {}
    }
    if crc32(payload) != want {
        return Err(WireError::Checksum);
    }
    Ok(payload)
}

// ----------------------------------------------------------------------
// Varint primitives
// ----------------------------------------------------------------------

pub(crate) fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
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

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ----------------------------------------------------------------------
// Clause codec
// ----------------------------------------------------------------------

/// Encode literal codes in the given order (first absolute, rest
/// delta-coded). Callers canonicalize when they want canonical form.
pub(crate) fn encode_codes(codes: impl ExactSizeIterator<Item = u32>, out: &mut Vec<u8>) {
    write_varint(codes.len() as u64, out);
    let mut prev = 0i64;
    for (i, c) in codes.enumerate() {
        let code = i64::from(c);
        let d = if i == 0 { code } else { code - prev };
        write_varint(zigzag(d), out);
        prev = code;
    }
}

fn decode_clause(buf: &[u8], pos: &mut usize) -> Result<Clause, WireError> {
    let mut lits = Vec::new();
    decode_clause_into(buf, pos, &mut lits)?;
    Ok(Clause::new(lits))
}

/// `(literal, flag)` pairs — a spec's assumptions, a checkpoint's level
/// 0: their count, then `code≪1 | flag` each.
pub(crate) fn write_pairs(pairs: &[(Lit, bool)], out: &mut Vec<u8>) {
    write_varint(pairs.len() as u64, out);
    for &(lit, flag) in pairs {
        write_varint((lit.code() as u64) << 1 | u64::from(flag), out);
    }
}

pub(crate) fn read_pairs(buf: &[u8], pos: &mut usize) -> Result<Vec<(Lit, bool)>, WireError> {
    let n = read_varint(buf, pos)?;
    if n > buf.len() as u64 {
        return Err(WireError::Truncated);
    }
    let mut pairs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let packed = read_varint(buf, pos)?;
        let code = packed >> 1;
        if code > u64::from(u32::MAX) {
            return Err(WireError::Overflow);
        }
        pairs.push((Lit::from_code(code as usize), packed & 1 == 1));
    }
    Ok(pairs)
}

/// The clause decoder: appends one clause's literals to `out`.
fn decode_clause_into(buf: &[u8], pos: &mut usize, out: &mut Vec<Lit>) -> Result<(), WireError> {
    let len = read_varint(buf, pos)?;
    if len > buf.len() as u64 {
        // each literal takes ≥ 1 byte; an impossible count means garbage
        return Err(WireError::Truncated);
    }
    out.reserve_exact(len as usize);
    let mut prev = 0i64;
    for i in 0..len {
        let d = unzigzag(read_varint(buf, pos)?);
        let code = if i == 0 { d } else { prev + d };
        if !(0..=i64::from(u32::MAX)).contains(&code) {
            return Err(WireError::Overflow);
        }
        out.push(Lit::from_code(code as usize));
        prev = code;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Share batches
// ----------------------------------------------------------------------

/// A share batch serialized once at drain time and fanned out by
/// `Arc` — every peer's message references the same buffer.
///
/// Clauses are stored canonicalized (sorted, deduplicated literal
/// codes); the per-clause fingerprints ride alongside in memory for the
/// sender's dedup filter but are *not* part of the wire image — the
/// receiver recomputes them from the decoded literals.
///
/// ## Decode once per buffer
///
/// All recipients of one broadcast hold the same immutable bytes, so
/// the frame check and the verified decode are properties of the
/// *buffer*, not of the recipient: the first accessor of
/// [`intact`](EncodedBatch::intact) / [`decoded`](EncodedBatch::decoded)
/// runs the CRC, the parse and the fingerprint recomputation, and every
/// later one reads the stored verdict. Anything that yields different
/// or unvouched-for bytes — [`from_wire`](EncodedBatch::from_wire),
/// [`corrupt_bit`](EncodedBatch::corrupt_bit), `clone()` (hence
/// `Arc::make_mut` on a shared batch) — yields an unmemoised batch that
/// is verified from scratch. Equality compares the wire image and the
/// sender fingerprints only.
#[derive(Debug)]
pub struct EncodedBatch {
    bytes: Vec<u8>,
    fingerprints: Vec<u64>,
    /// Verdict of [`open_frame`] on `bytes`, filled by the first check.
    frame: OnceLock<Result<(), WireError>>,
    /// The fully verified decode of `bytes`, filled by the first
    /// [`decoded`](EncodedBatch::decoded).
    clauses: OnceLock<Result<DecodedShares, WireError>>,
}

/// A batch's clauses with their recomputed fingerprints.
type DecodedShares = Box<[(Clause, u64)]>;

impl Clone for EncodedBatch {
    /// A copy starts unmemoised: whoever mutates it (fault injection goes
    /// through `Arc::make_mut`) must not inherit a verdict about the
    /// original bytes, and the original keeps its own.
    fn clone(&self) -> EncodedBatch {
        EncodedBatch::unverified(self.bytes.clone(), self.fingerprints.clone())
    }
}

impl PartialEq for EncodedBatch {
    fn eq(&self, other: &EncodedBatch) -> bool {
        self.bytes == other.bytes && self.fingerprints == other.fingerprints
    }
}

impl Eq for EncodedBatch {}

impl EncodedBatch {
    fn unverified(bytes: Vec<u8>, fingerprints: Vec<u64>) -> EncodedBatch {
        EncodedBatch {
            bytes,
            fingerprints,
            frame: OnceLock::new(),
            clauses: OnceLock::new(),
        }
    }

    /// Serialize `(clause, fingerprint)` pairs into one framed buffer.
    pub fn encode(shares: &[(Clause, u64)]) -> EncodedBatch {
        let mut payload = Vec::new();
        write_varint(shares.len() as u64, &mut payload);
        let mut fingerprints = Vec::with_capacity(shares.len());
        // canonical form, one clause at a time in one scratch buffer
        let mut codes: Vec<u32> = Vec::new();
        for (clause, fp) in shares {
            codes.clear();
            codes.extend(clause.iter().map(|l| l.code() as u32));
            codes.sort_unstable();
            codes.dedup();
            encode_codes(codes.iter().copied(), &mut payload);
            fingerprints.push(*fp);
        }
        EncodedBatch::unverified(seal_frame(&payload), fingerprints)
    }

    /// Adopt raw wire bytes as a batch, as a receiver (or fuzzer) would:
    /// no fingerprints are known until [`decode`](EncodedBatch::decode)
    /// verifies the frame and recomputes them.
    pub fn from_wire(bytes: Vec<u8>) -> EncodedBatch {
        EncodedBatch::unverified(bytes, Vec::new())
    }

    /// Decode back into `(clause, fingerprint)` pairs after verifying
    /// the frame checksum. Fingerprints are recomputed from the
    /// canonical decoded literals, so they agree with what
    /// [`encode`](EncodedBatch::encode) was handed as long as the sender
    /// used [`Clause::fingerprint`]. Always does the full work and never
    /// touches the memo; receivers use [`decoded`](EncodedBatch::decoded).
    pub fn decode(&self) -> Result<Vec<(Clause, u64)>, WireError> {
        decode_batch(open_frame(&self.bytes)?)
    }

    /// The verified decode, computed by the first caller and borrowed by
    /// every later one — for a batch fanned out by `Arc`, once per
    /// broadcast instead of once per recipient. Same checks and same
    /// result as [`decode`](EncodedBatch::decode).
    pub fn decoded(&self) -> Result<&[(Clause, u64)], WireError> {
        self.clauses
            .get_or_init(|| decode_batch(self.payload()?).map(Vec::into_boxed_slice))
            .as_deref()
            .map_err(|&e| e)
    }

    /// The framed payload, once the frame has been verified — by this
    /// call or an earlier one.
    fn payload(&self) -> Result<&[u8], WireError> {
        (*self
            .frame
            .get_or_init(|| open_frame(&self.bytes).map(|_| ())))?;
        // a verified frame is the fixed-size header, then the payload
        Ok(&self.bytes[FRAME_HEADER_BYTES..])
    }

    /// Cheap integrity check: does the frame header still match the
    /// payload? The reliability layer calls this on receipt to treat a
    /// corrupted batch as a drop without decoding the clauses. The CRC
    /// runs on the first call per buffer.
    pub fn intact(&self) -> bool {
        self.payload().is_ok()
    }

    /// Fault injection: flip one payload/header bit, chosen by `seed`.
    /// Whatever was known about the old bytes is forgotten.
    pub fn corrupt_bit(&mut self, seed: u64) {
        flip_bit(&mut self.bytes, seed);
        self.frame = OnceLock::new();
        self.clauses = OnceLock::new();
    }

    /// Number of clauses in the batch.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// `true` iff the batch holds no clauses.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// The sender-side fingerprints, index-aligned with the clauses.
    pub fn fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }

    /// Bytes on the wire: frame header plus encoded payload
    /// (fingerprints are in-memory only).
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Parse a share-batch payload (the bytes inside a verified frame) and
/// recompute every clause's fingerprint.
fn decode_batch(buf: &[u8]) -> Result<Vec<(Clause, u64)>, WireError> {
    let mut pos = 0usize;
    let count = read_varint(buf, &mut pos)?;
    if count > buf.len() as u64 {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let clause = decode_clause(buf, &mut pos)?;
        let fp = clause.fingerprint();
        out.push((clause, fp));
    }
    if pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(out)
}

/// Flip one pseudo-random bit of `bytes`, chosen by `seed` (splitmix64
/// finalizer, so consecutive engine seeds scatter well).
pub(crate) fn flip_bit(bytes: &mut [u8], seed: u64) {
    if bytes.is_empty() {
        return;
    }
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let bit = z % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
}

// ----------------------------------------------------------------------
// Subproblem specs
// ----------------------------------------------------------------------

/// The one subproblem-spec encoder. Clauses are pushed one at a time —
/// straight from a solver's clause arena ([`SpecFrame::split_off`],
/// [`SpecFrame::export`]), or from a list held by reference
/// ([`SpecFrame::build`]) — and the head (variable count, assumptions,
/// clause count) goes in front once the spec is finished, when the
/// clause count is known.
#[derive(Default)]
struct SpecEncoder {
    /// The clause records pushed so far. Grown by doubling on purpose:
    /// it is a temporary, and sizing a temporary exactly leaves odd-sized
    /// holes behind (sizing the spec buffer from a length model cost
    /// `scale400_hier` 7 % of peak RSS for no measurable time).
    clauses: Vec<u8>,
    count: u64,
}

impl SpecEncoder {
    /// Append one clause, its literals in the order given.
    fn push(&mut self, lits: &[Lit]) {
        encode_codes(lits.iter().map(|l| l.code() as u32), &mut self.clauses);
        self.count += 1;
    }

    /// The finished spec, sealed in a frame sized exactly for it.
    fn seal(self, num_vars: usize, assumptions: &[(Lit, bool)]) -> SpecFrame {
        // everything of the payload before the clause records
        let mut head = Vec::new();
        write_varint(num_vars as u64, &mut head);
        write_pairs(assumptions, &mut head);
        write_varint(self.count, &mut head);
        let mut bytes = begin_frame(head.len() + self.clauses.len());
        bytes.extend_from_slice(&head);
        bytes.extend_from_slice(&self.clauses);
        end_frame(&mut bytes);
        SpecFrame { bytes }
    }
}

/// A subproblem spec decoded flat: what a [`SplitSpec`] holds, with
/// every clause's literals back to back in one buffer instead of a heap
/// `Clause` each. A thief loads its solver from it
/// ([`Solver::from_split_parts`]).
#[derive(Clone, Debug, PartialEq)]
pub struct FlatSpec {
    /// Variable universe size.
    pub num_vars: usize,
    /// Level-0 literals: `(lit, globally_derivable)`.
    pub assumptions: Vec<(Lit, bool)>,
    /// The literals of every clause, clause after clause.
    lits: Vec<Lit>,
    /// Where each clause ends in `lits`: non-decreasing, the last one
    /// `lits.len()`.
    ends: Vec<usize>,
}

impl FlatSpec {
    /// Each clause's literals, in order.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> + Clone {
        (0..self.ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.lits[start..self.ends[i]]
        })
    }

    /// The same spec with a heap `Clause` per clause.
    pub fn into_spec(self) -> SplitSpec {
        let clauses = self
            .clauses()
            .map(|c| Clause::new(c.iter().copied()))
            .collect();
        SplitSpec {
            num_vars: self.num_vars,
            assumptions: self.assumptions,
            clauses,
        }
    }
}

/// The one subproblem-spec decoder: inverse of `SpecEncoder`, into the
/// flat form. Specs keep their literal order on the wire, so the
/// round-trip is the identity.
pub fn decode_spec_flat(buf: &[u8]) -> Result<FlatSpec, WireError> {
    let mut pos = 0usize;
    let num_vars = read_varint(buf, &mut pos)?;
    let assumptions = read_pairs(buf, &mut pos)?;
    let n_clauses = read_varint(buf, &mut pos)?;
    if n_clauses > buf.len() as u64 {
        return Err(WireError::Truncated);
    }
    // a clause takes at least its length byte and a literal at least one
    // byte, so what is left of the buffer bounds the literal count
    let room = (buf.len() - pos).saturating_sub(n_clauses as usize);
    let mut lits = Vec::with_capacity(room);
    let mut ends = Vec::with_capacity(n_clauses as usize);
    for _ in 0..n_clauses {
        decode_clause_into(buf, &mut pos, &mut lits)?;
        ends.push(lits.len());
    }
    if pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(FlatSpec {
        num_vars: num_vars as usize,
        assumptions,
        lits,
        ends,
    })
}

/// A subproblem spec sealed in a checksummed frame — the one form a cube
/// takes between clients, the master, its journal and the standby:
/// `Solve`, `Subproblem` and `Requeue` carry it, the master's recovery
/// queue holds it, and a `RecoveryQueued` record journals its payload.
/// Encoding happens once, where the cube is cut; a receiver verifies the
/// CRC and decodes, so a bit-flipped transfer surfaces as a typed error
/// instead of a mangled search space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecFrame {
    bytes: Vec<u8>,
}

impl SpecFrame {
    /// Encode and frame a spec.
    pub fn seal(spec: &SplitSpec) -> SpecFrame {
        SpecFrame::build(
            spec.num_vars,
            &spec.assumptions,
            spec.clauses.iter().map(Clause::lits),
        )
    }

    /// Encode and frame the spec `(num_vars, assumptions, clauses)`, the
    /// clauses read by reference.
    pub(crate) fn build<'a>(
        num_vars: usize,
        assumptions: &[(Lit, bool)],
        clauses: impl IntoIterator<Item = &'a [Lit]>,
    ) -> SpecFrame {
        let mut enc = SpecEncoder::default();
        for lits in clauses {
            enc.push(lits);
        }
        enc.seal(num_vars, assumptions)
    }

    /// Seal the whole subproblem `solver` holds — level 0 and every live
    /// clause, streamed from the arena ([`Solver::export_with`]): what a
    /// migration sends and a retiring standby hands back.
    pub fn export(solver: &Solver) -> SpecFrame {
        let mut enc = SpecEncoder::default();
        let assumptions = solver.export_with(|lits| enc.push(lits));
        enc.seal(solver.num_vars(), &assumptions)
    }

    /// Split `solver` and seal the half it gives away as its clauses
    /// stream out of the arena ([`Solver::split_off_with`]): the bytes of
    /// `SpecFrame::seal(&solver.split_off()?)`, with no clause built on
    /// the heap. Returns the frame and that half's assumptions; `None`
    /// when the solver has no open decision.
    pub fn split_off(solver: &mut Solver) -> Option<(SpecFrame, Vec<(Lit, bool)>)> {
        let mut enc = SpecEncoder::default();
        let assumptions = solver.split_off_with(|lits| enc.push(lits))?;
        Some((enc.seal(solver.num_vars(), &assumptions), assumptions))
    }

    /// Adopt raw wire bytes (receiver/fuzzer entry).
    pub fn from_wire(bytes: Vec<u8>) -> SpecFrame {
        SpecFrame { bytes }
    }

    /// Frame a spec payload kept apart from its frame (a journaled
    /// recovery), once the decoder has checked it parses.
    pub(crate) fn from_payload(payload: &[u8]) -> Result<SpecFrame, WireError> {
        decode_spec_flat(payload)?;
        Ok(SpecFrame {
            bytes: seal_frame(payload),
        })
    }

    /// Verify the frame and decode the spec.
    pub fn open(&self) -> Result<SplitSpec, WireError> {
        self.open_flat().map(FlatSpec::into_spec)
    }

    /// Verify the frame and decode the spec flat.
    pub fn open_flat(&self) -> Result<FlatSpec, WireError> {
        decode_spec_flat(open_frame(&self.bytes)?)
    }

    /// Every check [`SpecFrame::open_flat`] makes — CRC and parse — with
    /// the decode dropped: what a holder that only routes the cube runs.
    pub(crate) fn verify(&self) -> Result<(), WireError> {
        self.open_flat().map(drop)
    }

    /// The spec's assumptions, read from the payload's head alone; none
    /// when the head does not parse.
    pub(crate) fn assumptions(&self) -> Vec<(Lit, bool)> {
        let (payload, mut pos) = (self.payload(), 0);
        read_varint(payload, &mut pos)
            .and_then(|_| read_pairs(payload, &mut pos))
            .unwrap_or_default()
    }

    /// The encoded spec inside the frame: of a verified frame, exactly
    /// the bytes the encoder wrote.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[FRAME_HEADER_BYTES.min(self.bytes.len())..]
    }

    /// Frame-level integrity check without decoding the spec.
    pub fn intact(&self) -> bool {
        open_frame(&self.bytes).is_ok()
    }

    /// Bytes on the wire: frame header plus encoded payload.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Fault injection: flip one payload/header bit, chosen by `seed`.
    pub fn corrupt_bit(&mut self, seed: u64) {
        flip_bit(&mut self.bytes, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use gridsat_cnf::rng::Rng;

    fn lit(rng: &mut Rng, max_var: u32) -> Lit {
        Lit::new(gridsat_cnf::Var(rng.range_u32(0..max_var)), rng.next_bool())
    }

    fn clause(rng: &mut Rng, max_var: u32, max_len: usize) -> Clause {
        Clause::new((0..rng.range_usize(0..max_len + 1)).map(|_| lit(rng, max_var)))
    }

    fn canonical(c: &Clause) -> Clause {
        let mut codes: Vec<usize> = c.iter().map(|l| l.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        Clause::new(codes.into_iter().map(Lit::from_code))
    }

    #[test]
    fn varint_round_trips_at_boundaries() {
        for (v, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (129, 2),
            (16383, 2),
            (16384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), len, "length of {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncated_and_overflowing_input_is_rejected() {
        let mut buf = Vec::new();
        write_varint(300, &mut buf);
        let mut pos = 0;
        assert_eq!(read_varint(&buf[..1], &mut pos), Err(WireError::Truncated));
        let eleven = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&eleven, &mut pos), Err(WireError::Overflow));
        // a correctly framed batch whose count field promises more
        // clauses than bytes
        let batch = EncodedBatch::from_wire(seal_frame(&[0x05, 0x02]));
        assert!(batch.decode().is_err());
        // unframed garbage never reaches the clause decoder
        let garbage = EncodedBatch::from_wire(vec![0x05, 0x02]);
        assert_eq!(garbage.decode(), Err(WireError::Truncated));
        assert!(!garbage.intact());
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // standard IEEE test vectors
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    /// The CRC as first written: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xffff_ffff, |c, &b| crc32_byte(c, b))
    }

    #[test]
    fn sliced_crc32_agrees_with_the_bytewise_loop() {
        let mut rng = Rng::seed_from_u64(0x0123_4567_89ab_cdef);
        let big: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        // every length around the 8-byte stride, at every alignment of
        // the tail, and not starting on an aligned address either
        for len in 0..=64 {
            for start in [0, 1, 5] {
                let bytes = &big[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {start}");
            }
        }
    }

    #[test]
    fn frames_open_cleanly_and_reject_every_mangling() {
        let payload = b"framed payload".to_vec();
        let framed = seal_frame(&payload);
        assert_eq!(framed.len(), FRAME_HEADER_BYTES + payload.len());
        assert_eq!(open_frame(&framed), Ok(&payload[..]));

        // short buffer
        assert_eq!(open_frame(&framed[..5]), Err(WireError::Truncated));
        // wrong magic
        let mut bad = framed.clone();
        bad[0] ^= 0xff;
        assert_eq!(open_frame(&bad), Err(WireError::BadMagic));
        // unknown version
        let mut bad = framed.clone();
        bad[2] = 9;
        assert_eq!(open_frame(&bad), Err(WireError::BadVersion(9)));
        // truncated payload
        assert_eq!(
            open_frame(&framed[..framed.len() - 1]),
            Err(WireError::Truncated)
        );
        // over-length payload
        let mut long = framed.clone();
        long.push(0);
        assert_eq!(open_frame(&long), Err(WireError::TrailingBytes));
        // flipped payload bit
        let mut bad = framed.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        assert_eq!(open_frame(&bad), Err(WireError::Checksum));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let shares: Vec<(Clause, u64)> = (0..4u32)
            .map(|i| {
                let c = Clause::new([Lit::pos(i * 3), Lit::neg(i * 3 + 1)]);
                let fp = c.fingerprint();
                (c, fp)
            })
            .collect();
        let clean = EncodedBatch::encode(&shares);
        assert!(clean.intact());
        // CRC32 detects every single-bit error; header damage trips the
        // magic/version/length checks instead
        for bit in 0..(clean.wire_len() * 8) {
            let mut bad = clean.clone();
            bad.bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(!bad.intact(), "flip of bit {bit} went undetected");
            assert!(bad.decode().is_err());
            assert_eq!(bad.decoded().err(), bad.decode().err());
        }
        // deterministic: the same seed flips the same bit
        let mut a = clean.clone();
        let mut b = clean.clone();
        a.corrupt_bit(42);
        b.corrupt_bit(42);
        assert_eq!(a, b);
        assert!(!a.intact(), "a flipped bit must fail the CRC");
        assert!(a.decode().is_err());
    }

    fn sample_batch() -> EncodedBatch {
        let shares: Vec<(Clause, u64)> = (0..5u32)
            .map(|i| {
                let c = Clause::new([Lit::neg(i * 7 + 2), Lit::pos(i * 7), Lit::pos(i * 7 + 5)]);
                let fp = c.fingerprint();
                (c, fp)
            })
            .collect();
        EncodedBatch::encode(&shares)
    }

    /// Has either memo been filled? (test-only view of the `OnceLock`s)
    fn memoised(b: &EncodedBatch) -> bool {
        b.frame.get().is_some() || b.clauses.get().is_some()
    }

    #[test]
    fn the_decode_is_computed_once_and_agrees_with_the_uncached_path() {
        let batch = sample_batch();
        assert!(!memoised(&batch), "encode vouches for nothing");
        let first = batch.decoded().expect("clean batch");
        assert_eq!(first, &batch.decode().expect("clean batch")[..]);
        assert!(first
            .iter()
            .map(|(_, fp)| *fp)
            .eq(batch.fingerprints().iter().copied()));
        // the second access borrows the very same slice
        let second = batch.decoded().expect("clean batch");
        assert!(std::ptr::eq(first, second));
        // and the frame verdict was settled on the way
        assert!(batch.frame.get().is_some());
        assert!(batch.intact());
        // decode() stays the uncached path: a fresh vector each call
        let uncached = batch.decode().expect("clean batch");
        assert!(!std::ptr::eq(&uncached[..], first));
    }

    #[test]
    fn a_failed_verdict_is_memoised_too_and_matches_decode() {
        // framed, checksummed garbage: passes the CRC, fails the parse
        let parse_err = EncodedBatch::from_wire(seal_frame(&[0x05, 0x02]));
        assert!(parse_err.intact(), "the frame itself is fine");
        assert_eq!(
            parse_err.decoded().map(<[_]>::len),
            parse_err.decode().map(|v| v.len())
        );
        assert!(parse_err.decoded().is_err());
        assert!(parse_err.decoded().is_err(), "and stays an error");
        // unframed bytes: fails the frame check before any parse
        let unframed = EncodedBatch::from_wire(vec![0x05, 0x02]);
        assert_eq!(unframed.decoded().err(), Some(WireError::Truncated));
        assert!(!unframed.intact());
    }

    #[test]
    fn corruption_forgets_the_memo() {
        let mut batch = sample_batch();
        assert!(batch.intact());
        assert_eq!(batch.decoded().map(<[_]>::len), Ok(5));
        batch.corrupt_bit(42);
        assert!(!memoised(&batch), "new bytes, no verdict");
        assert!(!batch.intact(), "the stale verdict must not survive");
        assert!(batch.decoded().is_err());
        assert_eq!(batch.decoded().err(), batch.decode().err());
    }

    #[test]
    fn copy_on_write_leaves_the_shared_buffer_and_its_memo_alone() {
        use std::sync::Arc;
        let origin = Arc::new(sample_batch());
        let clean = origin.decoded().expect("clean batch").as_ptr();
        // two more recipients of the same broadcast
        let sibling = Arc::clone(&origin);
        let mut victim = Arc::clone(&origin);
        // the engine flips a bit in one delivery only
        Arc::make_mut(&mut victim).corrupt_bit(9);
        assert!(!Arc::ptr_eq(&victim, &origin), "shared: mutation copied");
        assert!(!victim.intact());
        assert!(victim.decoded().is_err());
        // the siblings still hold the verified bytes and the same memo
        assert!(sibling.intact());
        assert_eq!(sibling.decoded().expect("untouched").as_ptr(), clean);
        assert_eq!(*sibling, sample_batch(), "bytes untouched");
        // a sole owner is mutated in place, and forgets its verdict
        let mut lone = Arc::new(sample_batch());
        assert!(lone.intact());
        Arc::make_mut(&mut lone).corrupt_bit(9);
        assert!(!lone.intact());
    }

    #[test]
    fn clones_and_adopted_bytes_start_unmemoised_and_equality_ignores_the_memo() {
        let batch = sample_batch();
        let cold = batch.clone();
        assert_eq!(batch.decoded().map(<[_]>::len), Ok(5));
        assert!(memoised(&batch) && !memoised(&cold));
        assert_eq!(batch, cold, "same bytes, same fingerprints: equal");
        let warm_clone = batch.clone();
        assert!(!memoised(&warm_clone), "a clone never inherits a verdict");
        assert_eq!(warm_clone.decoded(), batch.decoded());
        let adopted = EncodedBatch::from_wire(batch.bytes.clone());
        assert!(!memoised(&adopted));
        assert_eq!(adopted.decoded(), batch.decoded());
        // equality still sees a real difference
        let mut other = batch.clone();
        other.corrupt_bit(1);
        assert_ne!(batch, other);
    }

    #[test]
    fn spec_frames_round_trip_and_reject_corruption() {
        let spec = SplitSpec {
            num_vars: 40,
            assumptions: vec![(Lit::pos(3), true), (Lit::neg(7), false)],
            clauses: vec![Clause::new([Lit::pos(1), Lit::neg(2), Lit::pos(9)])],
        };
        // the layout, byte by byte: num_vars, #assumptions, code≪1|global
        // twice, #clauses, then the clause — length, zigzag(2), zigzag(+3),
        // zigzag(+13)
        let payload = [40, 2, 13, 30, 1, 3, 4, 6, 26];
        let frame = SpecFrame::seal(&spec);
        assert_eq!(frame.payload(), payload);
        assert!(frame.intact() && frame.verify().is_ok());
        assert_eq!(frame.bytes, seal_frame(&payload));
        assert_eq!(frame.wire_len(), FRAME_HEADER_BYTES + payload.len());
        assert_eq!(SpecFrame::from_payload(&payload), Ok(frame.clone()));
        let flat = frame.open_flat().expect("clean frame");
        assert_eq!(flat.lits, spec.clauses[0].lits());
        assert_eq!(flat.ends, [3]);
        assert_eq!(frame.open(), Ok(spec));
        let mut bad = frame.clone();
        bad.corrupt_bit(7);
        assert!(bad.open().is_err());
        assert_eq!(bad.verify(), bad.open_flat().map(drop));
        assert!(SpecFrame::from_wire(vec![1, 2, 3]).open().is_err());
        assert!(SpecFrame::from_wire(vec![1, 2, 3]).payload().is_empty());
        // a payload that does not parse is never framed
        assert_eq!(
            SpecFrame::from_payload(&payload[..4]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn random_batches_round_trip_canonically() {
        let mut rng = Rng::seed_from_u64(0x1234_5678_9abc_def0);
        for _ in 0..200 {
            let n = rng.range_usize(0..8);
            let shares: Vec<(Clause, u64)> = (0..n)
                .map(|_| {
                    let c = clause(&mut rng, 5000, 12);
                    let fp = c.fingerprint();
                    (c, fp)
                })
                .collect();
            let batch = EncodedBatch::encode(&shares);
            assert_eq!(batch.len(), n);
            assert_eq!(batch.wire_len(), batch.bytes.len());
            // the encoder as first written, a fresh vector of codes per
            // clause: the same bytes
            let mut reference = Vec::new();
            write_varint(n as u64, &mut reference);
            for (c, _) in &shares {
                let mut codes: Vec<u32> = c.iter().map(|l| l.code() as u32).collect();
                codes.sort_unstable();
                codes.dedup();
                encode_codes(codes.iter().copied(), &mut reference);
            }
            assert_eq!(batch.bytes, seal_frame(&reference));
            let decoded = batch.decode().expect("round trip");
            assert_eq!(decoded.len(), n);
            for ((orig, fp), (dec, dec_fp)) in shares.iter().zip(&decoded) {
                assert_eq!(*dec, canonical(orig), "canonical clause survives");
                assert_eq!(dec_fp, fp, "receiver recomputes the same fingerprint");
                assert_eq!(dec.fingerprint(), *fp);
            }
            // the in-memory fingerprints match, index-aligned
            assert_eq!(
                batch.fingerprints(),
                shares.iter().map(|(_, f)| *f).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn random_specs_round_trip_identically() {
        let mut rng = Rng::seed_from_u64(0xfeed_beef_cafe_f00d);
        for _ in 0..200 {
            let n_asm = rng.range_usize(0..6);
            let n_cl = rng.range_usize(0..10);
            let spec = SplitSpec {
                num_vars: rng.range_usize(0..100_000),
                assumptions: (0..n_asm)
                    .map(|_| (lit(&mut rng, 5000), rng.next_bool()))
                    .collect(),
                clauses: (0..n_cl).map(|_| clause(&mut rng, 5000, 12)).collect(),
            };
            let frame = SpecFrame::seal(&spec);
            let bytes = frame.payload();
            assert_eq!(frame.bytes, seal_frame(bytes));
            let flat = decode_spec_flat(bytes).expect("clean payload");
            assert!(flat.clauses().eq(spec.clauses.iter().map(Clause::lits)));
            // decoded and encoded again, a spec is the same bytes
            let again = flat.clone().into_spec();
            assert_eq!(SpecFrame::seal(&again), frame, "identity round trip");
            assert_eq!(again, spec);
        }
    }

    #[test]
    fn encoded_size_is_monotone_in_clause_count_and_magnitude() {
        // more clauses → strictly more bytes
        let clause = |base: u32| {
            let c = Clause::new((base..base + 3).map(Lit::pos));
            let fp = c.fingerprint();
            (c, fp)
        };
        let mut prev = EncodedBatch::encode(&[]).wire_len();
        for n in 1..20u32 {
            let shares: Vec<_> = (0..n).map(|i| clause(i * 10)).collect();
            let len = EncodedBatch::encode(&shares).wire_len();
            assert!(len > prev, "batch of {n} clauses not larger than {}", n - 1);
            prev = len;
        }
        // larger literal magnitudes → no fewer bytes (first code absolute,
        // deltas unchanged), and eventually strictly more
        let spread = |base: u32| {
            let c = Clause::new([Lit::pos(base), Lit::pos(base + 5), Lit::pos(base + 9)]);
            let fp = c.fingerprint();
            vec![(c, fp)]
        };
        let mut prev = 0usize;
        for base in [0u32, 50, 1_000, 100_000, 10_000_000] {
            let len = EncodedBatch::encode(&spread(base)).wire_len();
            assert!(len >= prev, "magnitude {base} shrank the encoding");
            prev = len;
        }
        assert!(
            EncodedBatch::encode(&spread(10_000_000)).wire_len()
                > EncodedBatch::encode(&spread(0)).wire_len()
        );
        // same shape for specs: monotone in clause count
        let mut spec = SplitSpec {
            num_vars: 100,
            assumptions: vec![(Lit::pos(3), true)],
            clauses: vec![],
        };
        let mut prev = SpecFrame::seal(&spec).wire_len();
        for i in 0..10u32 {
            spec.clauses
                .push(Clause::new([Lit::pos(i), Lit::neg(i + 1)]));
            let len = SpecFrame::seal(&spec).wire_len();
            assert!(len > prev);
            prev = len;
        }
    }

    #[test]
    fn share_encoding_beats_the_old_cost_model() {
        // the pre-codec model charged 8 bytes per clause + 4 per literal;
        // short sorted clauses over a realistic variable range should come
        // in well under half of that
        let shares: Vec<(Clause, u64)> = (0..50u32)
            .map(|i| {
                let c = Clause::new([
                    Lit::pos(i * 7 % 400),
                    Lit::neg((i * 13 + 5) % 400),
                    Lit::pos((i * 29 + 11) % 400),
                ]);
                let fp = c.fingerprint();
                (c, fp)
            })
            .collect();
        let old_model: usize = shares.iter().map(|(c, _)| 8 + c.len() * 4).sum();
        let encoded = EncodedBatch::encode(&shares).wire_len();
        assert!(
            encoded * 2 <= old_model,
            "encoded {encoded} vs old model {old_model}"
        );
    }
}
