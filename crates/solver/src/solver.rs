//! The CDCL core: two-watched-literal BCP, VSIDS decisions, FirstUIP
//! learning, non-chronological backjumping, bounded learned-clause
//! database, clause sharing hooks and guiding-path splitting.
//!
//! # Decision levels (paper Section 2.1)
//!
//! Level 0 holds assignments required for the (sub)problem to be
//! satisfiable: original unit clauses, split assumptions, and learned
//! facts. Decisions open levels 1, 2, ... and carry the fictitious
//! antecedent "clause 0" ([`ClauseRef::DECISION`]).
//!
//! # Split assumptions and clause sharing (paper Sections 3.1-3.2)
//!
//! A subproblem is the original formula plus *assumption* literals pinned
//! at level 0. Conflict analysis skips a level-0 variable only when its
//! assignment is derivable from the original formula alone
//! (`level0_global`); assumption-derived level-0 literals are *kept* in
//! learned clauses instead. Every learned clause is therefore valid for
//! the original problem, which is what makes GridSAT's global clause
//! sharing sound. Splitting removes only clauses already *satisfied* at
//! level 0 (it never strips false literals), so transferred clauses stay
//! globally valid too. The database therefore carries no per-clause
//! "global" mark: every clause in it — original, learned, merged from a
//! peer or loaded from a split — holds for the original formula, by
//! induction over those four ways in. Only a level-0 *assignment* can
//! depend on an assumption, and that mark is per variable.
//!
//! # Clause storage and garbage collection
//!
//! Clauses live in a flat arena ([`ClauseDb`]) and a [`ClauseRef`] is an
//! arena offset. Deleting a clause leaves garbage in place; when enough
//! accumulates after a database reduction or level-0 prune, a relocating
//! mark-compact collection runs and every held reference — watch-list
//! entries and trail antecedents — is remapped. References are therefore
//! *not* stable across [`Solver::reduce_db`] or the GC, only between
//! collections; `check_invariants` verifies both watch symmetry and that
//! every antecedent still resolves after compaction.

use crate::clausedb::{ClauseDb, ClauseRef, Visit, LV_FALSE, LV_TRUE, LV_UNASSIGNED};
use crate::config::SolverConfig;
use crate::proof::{Proof, ProofStep};
use crate::stats::Stats;
use crate::vsids::Vsids;
use gridsat_cnf::{Assignment, Clause, Formula, Lit, Value, Var};
use gridsat_obs::{Event, Obs};
use std::collections::VecDeque;

/// Conflicts between VSIDS decays ("periodically all counts are divided
/// by a constant", Section 2.4), and the right-shift applied to every
/// literal counter at a decay (1 = halve).
const VSIDS_DECAY_INTERVAL: u32 = 256;
const VSIDS_DECAY_SHIFT: u32 = 1;

/// Growth applied to the learned-clause cap after each reduction.
const MAX_LEARNED_GROWTH: f64 = 1.1;

/// Learned clauses with LBD at most this survive every database
/// reduction ("glue" clauses; 2 keeps clauses linking two levels).
const LBD_KEEP: u32 = 2;

/// Run the relocating arena GC when at least this fraction of arena
/// words is garbage (checked after reductions and level-0 pruning).
const GC_FRAC: f64 = 0.25;

/// Terminal status of a (sub)problem.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveStatus {
    /// A satisfying assignment was found (valid for the subproblem;
    /// the GridSAT master re-verifies against the original formula).
    Sat,
    /// The subproblem is unsatisfiable under its assumptions.
    Unsat,
}

/// Result of one bounded step of search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Budget exhausted; search can continue.
    Running,
    /// Satisfiable; a model is available via [`Solver::model`].
    Sat,
    /// The subproblem is unsatisfiable.
    Unsat,
    /// The clause database exceeds the memory budget even after
    /// reduction. Search can continue, but a GridSAT client reacts by
    /// requesting a split (paper Section 3.3).
    MemoryPressure,
}

/// A subproblem produced by [`Solver::split_off`], shippable to a peer.
///
/// Contains the level-0 assignment (with per-literal "globally derivable"
/// flags) and every clause not already satisfied at level 0. Clauses are
/// transferred *unstripped* so they remain valid for the original problem.
#[derive(Clone, Debug, PartialEq)]
pub struct SplitSpec {
    /// Variable universe size (shared by all clients).
    pub num_vars: usize,
    /// Level-0 literals: `(lit, globally_derivable)`.
    pub assumptions: Vec<(Lit, bool)>,
    /// Clauses (original + learned) not satisfied at level 0.
    pub clauses: Vec<Clause>,
}

/// One resolution step of a conflict analysis (for the Figure 1 trace).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolutionStep {
    /// Variable resolved on.
    pub var: Var,
    /// Display id (paper numbering) of its antecedent clause.
    pub antecedent_id: u32,
}

/// The outcome of analyzing one conflict.
#[derive(Clone, Debug)]
pub struct ConflictAnalysis {
    /// The learned clause; index 0 is the asserting literal.
    pub learned: Clause,
    /// Level to backjump to.
    pub backjump: usize,
    /// The FirstUIP variable (the asserting literal's variable).
    pub uip: Var,
    /// Display id of the conflicting clause.
    pub conflict_id: u32,
    /// Resolution steps (recorded only when tracing is enabled).
    pub steps: Vec<ResolutionStep>,
}

/// A node of the implication graph (paper Section 2.2 / Figure 1).
#[derive(Clone, Debug)]
pub struct GraphNode {
    /// The assigned (true) literal.
    pub lit: Lit,
    /// Its decision level.
    pub level: usize,
    /// Display id of the antecedent clause; 0 for decisions
    /// ("we use clause 0 as antecedent for decision variables").
    pub antecedent_id: u32,
    /// Predecessor variables (sources of the incident edges).
    pub preds: Vec<Var>,
}

/// Decode a valuation byte (a variable's `assign8` entry, or that xor a
/// literal's sign): `LV_TRUE`, `LV_FALSE`, anything else unassigned.
#[inline]
fn value_of(b: u8) -> Value {
    match b {
        LV_TRUE => Value::True,
        LV_FALSE => Value::False,
        _ => Value::Unassigned,
    }
}

#[derive(Clone, Copy)]
struct Watch {
    cref: ClauseRef,
    blocker: Lit,
}

/// Foreign clauses awaiting merge, oldest first, as one byte ring of
/// records: the clause length, then its literal codes sorted ascending —
/// the first code, then the gaps — each an LEB128 varint. A repeated
/// literal is a gap of 0, so a record holds exactly the literals queued.
#[derive(Clone, Default)]
struct Inbox {
    ring: VecDeque<u8>,
    /// Records in `ring`.
    clauses: usize,
    /// Literals in `ring`, summed over its records.
    lits: usize,
    /// A record's codes sorted, then its bytes, before they join the ring.
    codes: Vec<u32>,
    bytes: Vec<u8>,
}

impl Inbox {
    fn push(&mut self, lits: &[Lit]) {
        self.codes.clear();
        self.codes.extend(lits.iter().map(|l| l.code() as u32));
        self.codes.sort_unstable();
        self.bytes.clear();
        let len = u32::try_from(lits.len()).expect("clause length fits a u32");
        put_varint(&mut self.bytes, len);
        let mut prev = 0;
        for &code in &self.codes {
            put_varint(&mut self.bytes, code - prev);
            prev = code;
        }
        self.ring.extend(&self.bytes);
        self.clauses += 1;
        self.lits += lits.len();
    }

    /// Drop the oldest record.
    fn evict(&mut self) {
        let mut bytes = self.ring.iter().copied();
        let len = skip_record(&mut bytes).expect("a whole record queued");
        self.drop_front(len as usize, bytes.len());
    }

    /// Pop the oldest record's literals onto `out`, in ascending order;
    /// false when the ring is empty.
    fn pop_into(&mut self, out: &mut Vec<Lit>) -> bool {
        let mut bytes = self.ring.iter().copied();
        let Some(len) = take_varint(&mut bytes) else {
            return false;
        };
        let mut code = 0;
        for _ in 0..len {
            code += take_varint(&mut bytes).expect("inbox record overruns the ring");
            out.push(Lit::from_code(code as usize));
        }
        self.drop_front(len as usize, bytes.len());
        true
    }

    /// Drop the front record, of `len` literals, that left `rest` bytes.
    fn drop_front(&mut self, len: usize, rest: usize) {
        self.ring.drain(..self.ring.len() - rest);
        self.clauses -= 1;
        self.lits -= len;
    }

    /// The ring decodes to exactly `clauses` records holding `lits`
    /// literals, and the last one ends where the ring does.
    fn check(&self) {
        let mut bytes = self.ring.iter().copied();
        let (mut clauses, mut lits) = (0, 0);
        while bytes.len() > 0 {
            let len = skip_record(&mut bytes).expect("inbox ends inside a record");
            clauses += 1;
            lits += len as usize;
        }
        assert_eq!(clauses, self.clauses, "inbox records miscounted");
        assert_eq!(lits, self.lits, "inbox literals miscounted");
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Walk past one record; its literal count, `None` if the bytes end first.
fn skip_record(bytes: &mut impl Iterator<Item = u8>) -> Option<u32> {
    let len = take_varint(bytes)?;
    for _ in 0..len {
        take_varint(bytes)?;
    }
    Some(len)
}

/// The next varint from `bytes`; `None` if they end before it does.
fn take_varint(bytes: &mut impl Iterator<Item = u8>) -> Option<u32> {
    let mut v = 0;
    for (shift, b) in (0..).step_by(7).zip(bytes) {
        v |= u32::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(v);
        }
    }
    None
}

/// The CDCL solver. See module docs. Foreign clauses come in through
/// [`Solver::queue_fresh`] and nowhere else; clauses for peers go out
/// through [`Solver::take_shared`].
pub struct Solver {
    config: SolverConfig,
    num_vars: usize,
    db: ClauseDb,
    watches: Vec<Vec<Watch>>,
    /// The assignment, one byte per variable (`LV_TRUE`/`LV_FALSE`/
    /// `LV_UNASSIGNED`): a literal's value is `assign8[var] ^ sign`, so
    /// the BCP hot path tests it with no enum decode. Never resized.
    assign8: Vec<u8>,
    var_level: Vec<u32>,
    reason: Vec<ClauseRef>,
    /// Valid for level-0 assigned vars: derivable from the original
    /// formula alone (not via split assumptions).
    level0_global: Vec<bool>,
    trail: Vec<Lit>,
    /// `level_start[l]` = trail index where level `l` begins;
    /// `level_start[0] == 0` always.
    level_start: Vec<usize>,
    qhead: usize,
    vsids: Vsids,
    stats: Stats,
    status: Option<SolveStatus>,
    assumptions: Vec<Lit>,
    /// Learned clauses awaiting pickup for sharing, with fingerprints.
    outbox: Vec<(Clause, u64)>,
    /// Foreign clauses awaiting merge at level 0, oldest first, as one
    /// byte ring of varint records (see [`Inbox`]). Holds at most
    /// `config.inbox_lits` literals when that is set.
    inbox: Inbox,
    /// A merge ran at this visit to level 0; the next decision clears it.
    /// What makes a fixed-size inbox's merge one slice per visit: the
    /// residue waits until search is next back at level 0.
    merge_visited: bool,
    /// The record [`Solver::merge_foreign`] is working on.
    merge_buf: Vec<Lit>,
    seen: Vec<bool>,
    /// Conflict-analysis scratch, reused across conflicts: the clause
    /// being learned (slot 0 = asserting literal).
    learned: Vec<Lit>,
    max_learned: f64,
    next_restart: Option<u64>,
    restart_interval: f64,
    conflicts_since_decay: u32,
    /// Trail length at level 0 when pruning last ran.
    pruned_at: usize,
    /// Per-level stamps for LBD computation (`lbd_stamp[level] == gen`
    /// means the level was counted for the current clause).
    lbd_stamp: Vec<u64>,
    lbd_stamp_gen: u64,
    trace: bool,
    /// DRAT trace, when enabled. `proof_complete` drops to false if the
    /// derivation stops being locally checkable (foreign clauses merged).
    proof: Option<Proof>,
    proof_complete: bool,
    /// Event-tracing handle (disabled by default: one branch per emit).
    obs: Obs,
    /// Node id stamped on emitted events (set by the hosting client).
    obs_node: u32,
    /// Simulated time stamped on emitted events (refreshed each tick).
    obs_now: f64,
}

impl Solver {
    /// Build a solver for a whole formula (no assumptions).
    pub fn new(formula: &Formula, config: SolverConfig) -> Solver {
        let clauses = formula.clauses().iter().map(Clause::lits);
        let mut s = Solver::load(formula.num_vars(), clauses, &[], config);
        s.order_decisions();
        s
    }

    /// Build a solver for a subproblem received from a peer.
    pub fn from_split(spec: &SplitSpec, config: SolverConfig) -> Solver {
        let clauses = spec.clauses.iter().map(Clause::lits);
        Solver::from_split_parts(spec.num_vars, &spec.assumptions, clauses, config)
    }

    /// Build a solver for a subproblem given as borrowed parts: the
    /// level-0 literals with their "globally derivable" flags, and each
    /// clause as a literal slice (a decoder's flat buffer, say). The one
    /// constructor behind [`Solver::from_split`].
    pub fn from_split_parts<'a>(
        num_vars: usize,
        assumptions: &[(Lit, bool)],
        clauses: impl Iterator<Item = &'a [Lit]> + Clone,
        config: SolverConfig,
    ) -> Solver {
        let mut s = Solver::load(num_vars, clauses, &[], config);
        for &(lit, global) in assumptions {
            s.add_assumption(lit, global);
        }
        s.initial_propagate();
        s.order_decisions();
        s
    }

    /// Build from raw parts. `assumptions` are pinned at level 0 and
    /// treated as non-global (split prefix).
    pub fn from_parts(
        num_vars: usize,
        clauses: impl IntoIterator<Item = Clause>,
        assumptions: &[Lit],
        config: SolverConfig,
    ) -> Solver {
        let clauses: Vec<Clause> = clauses.into_iter().collect();
        let clauses = clauses.iter().map(Clause::lits);
        let mut s = Solver::load(num_vars, clauses, assumptions, config);
        s.order_decisions();
        s
    }

    /// The one loader behind every constructor: clauses come in as
    /// borrowed literal slices and are copied exactly once, into an arena
    /// reserved for all of them up front. Ends with the initial
    /// propagation; the caller finishes with [`Solver::order_decisions`]
    /// once nothing is left to pin at level 0.
    fn load<'a>(
        num_vars: usize,
        clauses: impl Iterator<Item = &'a [Lit]> + Clone,
        assumptions: &[Lit],
        config: SolverConfig,
    ) -> Solver {
        let mut s = Solver::empty(num_vars, config);
        s.db.reserve_for(clauses.clone().map(<[Lit]>::len));
        for lit in assumptions {
            s.add_assumption(*lit, false);
        }
        let mut original = 0usize;
        let mut scratch = Vec::new();
        for clause in clauses {
            s.add_original_clause(clause, &mut scratch);
            original += 1;
        }
        s.max_learned = (original as f64 * s.config.max_learned_factor).max(1000.0);
        s.initial_propagate();
        s
    }

    /// Order the decision heap once loading is over: the clauses bumped
    /// their literals' counters unordered, and level 0 is never undone,
    /// so the heap keeps only the variables still unassigned. `pop_best`
    /// would discard the others on the way anyway; every pick is the same.
    fn order_decisions(&mut self) {
        let assign8 = &self.assign8;
        self.vsids.rebuild(|v| assign8[v.index()] == LV_UNASSIGNED);
    }

    /// A solver over `num_vars` variables with no clauses yet.
    fn empty(num_vars: usize, config: SolverConfig) -> Solver {
        Solver {
            db: ClauseDb::new(),
            watches: vec![Vec::new(); num_vars * 2],
            assign8: vec![LV_UNASSIGNED; num_vars],
            var_level: vec![0; num_vars],
            reason: vec![ClauseRef::NONE; num_vars],
            level0_global: vec![false; num_vars],
            trail: Vec::with_capacity(num_vars),
            level_start: vec![0],
            qhead: 0,
            vsids: Vsids::new(num_vars),
            stats: Stats::default(),
            status: None,
            assumptions: Vec::new(),
            outbox: Vec::new(),
            inbox: Inbox::default(),
            merge_visited: false,
            merge_buf: Vec::new(),
            seen: vec![false; num_vars],
            learned: Vec::new(),
            max_learned: 0.0,
            next_restart: config.restart.map(|r| r.first_interval),
            restart_interval: config
                .restart
                .map(|r| r.first_interval as f64)
                .unwrap_or(0.0),
            conflicts_since_decay: 0,
            pruned_at: 0,
            lbd_stamp: vec![0; num_vars + 1],
            lbd_stamp_gen: 0,
            num_vars,
            config,
            trace: false,
            proof: None,
            proof_complete: true,
            obs: Obs::default(),
            obs_node: 0,
            obs_now: 0.0,
        }
    }

    fn add_assumption(&mut self, lit: Lit, global: bool) {
        if self.status.is_some() {
            return;
        }
        self.assumptions.push(lit);
        match self.lit_value(lit) {
            Value::True => {}
            Value::False => self.mark_unsat(),
            Value::Unassigned => {
                self.enqueue_with_global(lit, ClauseRef::DECISION, global);
            }
        }
    }

    /// Add one input clause: sorted, deduplicated (in `scratch`, unless
    /// `raw` is strictly ascending already — every normalised or decoded
    /// clause is) and dropped when tautological.
    fn add_original_clause(&mut self, raw: &[Lit], scratch: &mut Vec<Lit>) {
        if self.status.is_some() {
            return;
        }
        let lits = if raw.windows(2).all(|w| w[0] < w[1]) {
            raw
        } else {
            scratch.clear();
            scratch.extend_from_slice(raw);
            scratch.sort_unstable();
            scratch.dedup();
            scratch.as_slice()
        };
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            // tautologies still consume a display id slot so the paper
            // numbering stays aligned with the input formula
            let cref = self.db.insert(raw, false, 0);
            self.db.delete(cref);
            return;
        }
        if lits.is_empty() {
            self.mark_unsat();
            return;
        }
        for &l in lits {
            self.vsids.bump_unordered(l);
        }
        let cref = self.db.insert(lits, false, 0);
        if lits.len() >= 2 {
            self.attach(cref);
        } else {
            match self.lit_value(lits[0]) {
                Value::True => {}
                Value::False => self.mark_unsat(),
                Value::Unassigned => self.enqueue(lits[0], cref),
            }
        }
        self.note_db_peak();
    }

    fn initial_propagate(&mut self) {
        if self.status.is_none() && self.propagate().is_some() {
            self.mark_unsat();
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of currently assigned variables.
    pub fn num_assigned(&self) -> usize {
        self.trail.len()
    }

    /// Current decision level (0 = no open decisions).
    pub fn decision_level(&self) -> usize {
        self.level_start.len() - 1
    }

    /// Terminal status, if the (sub)problem is decided.
    pub fn status(&self) -> Option<SolveStatus> {
        self.status
    }

    /// Current (possibly partial) assignment.
    pub fn assignment(&self) -> Assignment {
        let mut a = Assignment::new(self.num_vars);
        for (i, &b) in self.assign8.iter().enumerate() {
            if b != LV_UNASSIGNED {
                a.set(Var(i as u32), value_of(b));
            }
        }
        a
    }

    /// The model, when status is [`SolveStatus::Sat`].
    pub fn model(&self) -> Option<Assignment> {
        if self.status == Some(SolveStatus::Sat) {
            Some(self.assignment())
        } else {
            None
        }
    }

    /// Search statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Clause-database footprint under the memory model, in bytes.
    pub fn db_bytes(&self) -> usize {
        self.db.bytes()
    }

    /// Live clause count (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.db.num_live()
    }

    /// Live learned-clause count.
    pub fn num_learned(&self) -> usize {
        self.db.num_learned()
    }

    /// Clause-arena occupancy: `(total_words, garbage_words)`.
    /// Introspection for GC tests and the bench harness.
    #[doc(hidden)]
    pub fn db_arena_stats(&self) -> (usize, usize) {
        (self.db.arena_words(), self.db.garbage_words())
    }

    /// The clause-activity increment (rescale regression tests).
    #[doc(hidden)]
    pub fn clause_activity_increment(&self) -> f32 {
        self.db.activity_increment()
    }

    /// The truth value of a literal under the current assignment.
    #[inline]
    pub fn lit_value(&self, l: Lit) -> Value {
        value_of(self.assign8[l.var().index()] ^ (l.code() as u8 & 1))
    }

    /// The truth value of a variable.
    #[inline]
    pub fn var_value(&self, v: Var) -> Value {
        value_of(self.assign8[v.index()])
    }

    /// The decision level of an assigned variable.
    pub fn var_decision_level(&self, v: Var) -> Option<usize> {
        if self.assign8[v.index()] != LV_UNASSIGNED {
            Some(self.var_level[v.index()] as usize)
        } else {
            None
        }
    }

    /// Enable resolution-trace recording in [`ConflictAnalysis::steps`].
    pub fn set_trace(&mut self, on: bool) {
        self.trace = on;
    }

    /// Install an event-tracing handle; `node` is stamped on every event
    /// this solver emits (the hosting client's node id).
    pub fn set_obs(&mut self, obs: Obs, node: u32) {
        self.obs = obs;
        self.obs_node = node;
    }

    /// Refresh the simulated timestamp stamped on emitted events. The
    /// hosting client calls this at the top of every tick.
    pub fn set_obs_now(&mut self, t_s: f64) {
        self.obs_now = t_s;
    }

    /// Start recording a DRAT proof trace (sequential path; merging
    /// foreign clauses makes the local trace uncheckable and voids it).
    pub fn enable_proof(&mut self) {
        self.proof = Some(Proof::default());
        self.proof_complete = true;
    }

    /// Take the recorded proof, if one was enabled and remained locally
    /// checkable.
    pub fn take_proof(&mut self) -> Option<Proof> {
        if !self.proof_complete {
            self.proof = None;
        }
        self.proof.take()
    }

    fn log_proof(&mut self, step: ProofStep) {
        if let Some(p) = &mut self.proof {
            p.steps.push(step);
        }
    }

    /// Record UNSAT: sets the status and closes the proof trace with the
    /// empty clause.
    fn mark_unsat(&mut self) {
        if self.status.is_none() {
            self.status = Some(SolveStatus::Unsat);
            self.log_proof(ProofStep::Add(Vec::new()));
        }
    }

    /// The current VSIDS counter of a literal (introspection for the
    /// heuristic ablations).
    pub fn vsids_score(&self, l: Lit) -> u64 {
        self.vsids.score(l)
    }

    // ------------------------------------------------------------------
    // Assignment plumbing
    // ------------------------------------------------------------------

    fn enqueue(&mut self, l: Lit, reason: ClauseRef) {
        let global = if self.decision_level() == 0 {
            self.compute_level0_global(l, reason)
        } else {
            false
        };
        self.enqueue_with_global(l, reason, global);
    }

    fn compute_level0_global(&self, l: Lit, reason: ClauseRef) -> bool {
        if !reason.is_real() {
            // level-0 decisions are assumptions: not globally derivable
            return false;
        }
        self.db
            .lits(reason)
            .iter()
            .all(|&q| q == l || self.level0_global[q.var().index()])
    }

    fn enqueue_with_global(&mut self, l: Lit, reason: ClauseRef, global: bool) {
        let v = l.var().index();
        debug_assert_eq!(self.assign8[v], LV_UNASSIGNED);
        self.assign8[v] = l.code() as u8 & 1; // satisfied lit: var true iff positive
        self.var_level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        if self.decision_level() == 0 {
            self.level0_global[v] = global;
        }
        self.trail.push(l);
        self.stats.propagations += 1;
        self.stats.work += 1;
    }

    fn decide(&mut self, l: Lit) {
        debug_assert_eq!(self.lit_value(l), Value::Unassigned);
        self.level_start.push(self.trail.len());
        self.merge_visited = false;
        self.enqueue(l, ClauseRef::DECISION);
        self.stats.decisions += 1;
        self.stats.max_level = self.stats.max_level.max(self.decision_level() as u64);
    }

    /// Backtrack to `to_level`, keeping levels `0..=to_level`.
    fn backtrack(&mut self, to_level: usize) {
        if to_level >= self.decision_level() {
            return;
        }
        let keep = self.level_start[to_level + 1];
        for i in (keep..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.assign8[v] = LV_UNASSIGNED;
            self.reason[v] = ClauseRef::NONE;
            self.vsids.reinsert(l.var());
        }
        self.trail.truncate(keep);
        self.level_start.truncate(to_level + 1);
        self.qhead = keep;
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        debug_assert!(lits.len() >= 2);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[l0.code()].push(Watch { cref, blocker: l1 });
        self.watches[l1.code()].push(Watch { cref, blocker: l0 });
    }

    fn detach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        for code in [l0.code(), l1.code()] {
            let ws = &mut self.watches[code];
            if let Some(p) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(p);
            }
        }
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.db.lits(cref)[0];
        self.lit_value(l0) == Value::True && self.reason[l0.var().index()] == cref
    }

    /// Delete a clause (detaching watches if it has them).
    ///
    /// `log_deletion` is false for level-0 pruning: pruned clauses are
    /// satisfied at level 0 and may include units that support later RUP
    /// steps, so the proof trace keeps them live (extra live clauses
    /// never invalidate a DRAT check).
    fn delete_clause(&mut self, cref: ClauseRef, log_deletion: bool) {
        if log_deletion && self.proof.is_some() {
            let lits = self.db.lits(cref).to_vec();
            self.log_proof(ProofStep::Delete(lits));
        }
        if self.db.lits(cref).len() >= 2 {
            self.detach(cref);
        }
        self.db.delete(cref);
    }

    // ------------------------------------------------------------------
    // BCP
    // ------------------------------------------------------------------

    /// Propagate to fixpoint; `Some(conflicting clause)` on conflict.
    ///
    /// Hot path: the walked watch list and the assignment are read through
    /// base pointers taken once per trail literal (`enqueue` and the
    /// relocation push sit inside the visit loop, so going through `&self`
    /// would re-derive both on every watch), the list is compacted in
    /// place with a read/write index pair, the blocker is tested before
    /// any arena access, the whole clause visit runs under one arena
    /// borrow ([`ClauseDb::propagate_visit`]), and per-visit work is
    /// batched into one `stats.work` update per literal.
    fn propagate(&mut self) -> Option<ClauseRef> {
        // `assign8` is never resized, so its buffer stays put
        let assign: *const u8 = self.assign8.as_ptr();
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let code = false_lit.code();
            let n = self.watches[code].len();
            let ws: *mut Watch = self.watches[code].as_mut_ptr();
            let mut i = 0;
            let mut j = 0;
            let mut visited = n;
            let mut conflict = None;
            // SAFETY (every `ws` access below): `ws` is the buffer of
            // `watches[code]`, `n` its length, and `j <= i <= n`
            // throughout. The buffer cannot move while it is walked: the
            // only list operation inside the loop is the relocation push,
            // and it goes to another list — asserted there, and true
            // because a clause never holds a literal twice (the new watch
            // `lits[k]`, k >= 2, differs from `lits[1] == false_lit`).
            // `enqueue` touches no watch list.
            while i < n {
                let w = unsafe { *ws.add(i) };
                i += 1;
                if i < n {
                    // overlap the next visit's arena load with this one
                    self.db.prefetch(unsafe { (*ws.add(i)).cref });
                }
                // blocker check: no clause dereference when it is true.
                // SAFETY: a blocker is a literal of a stored clause, so
                // its variable indexes `assign8`.
                debug_assert!(w.blocker.var().index() < self.assign8.len());
                let bv = unsafe { *assign.add(w.blocker.var().index()) };
                if bv ^ (w.blocker.code() as u8 & 1) == LV_TRUE {
                    unsafe { *ws.add(j) = w };
                    j += 1;
                    continue;
                }
                // one arena borrow per visit: normalize, test the other
                // watch, scan for a replacement (field-disjoint borrows of
                // `db` and `assign8` keep the scan over a single slice)
                let cref = w.cref;
                match self.db.propagate_visit(cref, false_lit, &self.assign8) {
                    Visit::Relocated(blocker, lk) => {
                        assert_ne!(lk, false_lit, "{cref:?} holds a literal twice");
                        self.watches[lk.code()].push(Watch { cref, blocker });
                    }
                    Visit::Satisfied(blocker) => {
                        unsafe { *ws.add(j) = Watch { cref, blocker } };
                        j += 1;
                    }
                    Visit::Unit(blocker) => {
                        unsafe { *ws.add(j) = Watch { cref, blocker } };
                        j += 1;
                        self.enqueue(blocker, cref);
                    }
                    Visit::Conflict(blocker) => {
                        unsafe { *ws.add(j) = Watch { cref, blocker } };
                        j += 1;
                        conflict = Some(cref);
                        visited = i;
                        // keep the remaining watches
                        unsafe { std::ptr::copy(ws.add(i), ws.add(j), n - i) };
                        j += n - i;
                        break;
                    }
                }
            }
            debug_assert_eq!(self.watches[code].len(), n);
            debug_assert_eq!(self.watches[code].as_ptr(), ws.cast_const());
            self.stats.work += visited as u64;
            self.watches[code].truncate(j);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Conflict analysis (FirstUIP, paper Section 2.2)
    // ------------------------------------------------------------------

    /// Analyze a conflict at a positive decision level. Does not mutate
    /// the trail; the caller applies the result via [`Solver::learn`].
    pub fn analyze(&mut self, confl: ClauseRef) -> ConflictAnalysis {
        let mut analysis = self.analyze_into_buffer(confl);
        analysis.learned = Clause::new(self.learned.iter().copied());
        analysis
    }

    /// [`Solver::analyze`] with the learned clause left in `self.learned`
    /// (the returned `learned` is empty): the search loop's conflict path
    /// allocates nothing.
    fn analyze_into_buffer(&mut self, confl: ClauseRef) -> ConflictAnalysis {
        debug_assert!(self.decision_level() > 0);
        let current = self.decision_level() as u32;
        self.learned.clear();
        self.learned.push(Lit::pos(0)); // slot 0 = asserting lit
        let mut steps: Vec<ResolutionStep> = Vec::new();
        let mut counter = 0usize;
        let mut resolved = false;
        let mut idx = self.trail.len();
        let mut cref = confl;
        let conflict_id = self.db.display_id(confl);

        let uip = loop {
            if self.db.is_learned(cref) {
                self.db.bump_activity(cref);
            }
            // an antecedent's first literal is the one it implied
            let lits = self.db.lits(cref);
            for &q in &lits[usize::from(resolved)..] {
                let v = q.var().index();
                if self.seen[v] {
                    continue;
                }
                debug_assert_eq!(self.lit_value(q), Value::False);
                let lvl = self.var_level[v];
                if lvl == 0 && self.level0_global[v] {
                    // globally true fact: sound to drop
                    continue;
                }
                self.seen[v] = true;
                if lvl == current {
                    counter += 1;
                } else {
                    // lower level, or level 0 and assumption-derived: kept
                    // so the clause stays valid for the original problem
                    self.learned.push(q);
                }
            }
            self.stats.work += lits.len() as u64;

            // next seen literal on the trail at the current level
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                self.learned[0] = !pl;
                break pl.var();
            }
            cref = self.reason[pl.var().index()];
            debug_assert!(cref.is_real(), "non-UIP literal must be implied");
            if self.trace {
                steps.push(ResolutionStep {
                    var: pl.var(),
                    antecedent_id: self.db.display_id(cref),
                });
            }
            resolved = true;
        };

        // place a literal of the backjump level at index 1 (watch invariant)
        let learned = &mut self.learned;
        let mut backjump = 0usize;
        if learned.len() > 1 {
            let mut max_i = 1;
            for i in 2..learned.len() {
                if self.var_level[learned[i].var().index()]
                    > self.var_level[learned[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            backjump = self.var_level[learned[1].var().index()] as usize;
        }

        // the current level's flags were cleared on the way to the UIP;
        // the rest are the clause's own literals
        for l in &learned[1..] {
            self.seen[l.var().index()] = false;
        }

        ConflictAnalysis {
            learned: Clause::empty(),
            backjump,
            uip,
            conflict_id,
            steps,
        }
    }

    /// The LBD ("glue") of a clause: distinct decision levels among its
    /// literals. Computed *before* backtracking, while every literal is
    /// still assigned. HordeSat-style clause quality: low glue ⇒ the
    /// clause links few levels and stays useful across restarts.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp_gen += 1;
        let gen = self.lbd_stamp_gen;
        let mut lbd = 0u32;
        for &l in lits {
            let level = self.var_level[l.var().index()] as usize;
            if self.lbd_stamp[level] != gen {
                self.lbd_stamp[level] = gen;
                lbd += 1;
            }
        }
        lbd
    }

    /// Apply a conflict analysis: backjump, add the learned clause,
    /// enqueue the asserting literal, and run periodic maintenance.
    pub fn learn(&mut self, analysis: &ConflictAnalysis) {
        self.learned.clear();
        self.learned.extend_from_slice(analysis.learned.lits());
        self.learn_from_buffer(analysis);
    }

    /// [`Solver::learn`] of the clause in `self.learned`.
    fn learn_from_buffer(&mut self, analysis: &ConflictAnalysis) {
        self.stats.conflicts += 1;
        self.stats.learned += 1;
        let conflict_level = self.decision_level() as u64;
        self.obs
            .emit(self.obs_now, self.obs_node, || Event::Conflict {
                level: conflict_level,
            });
        // out of `self` for the duration; handed back at the end
        let lits = std::mem::take(&mut self.learned);
        let lbd = self.compute_lbd(&lits);
        self.stats.note_lbd(lbd);
        if let Some(p) = &mut self.proof {
            p.steps.push(ProofStep::Add(lits.clone()));
        }
        self.backtrack(analysis.backjump);

        // paper Section 2.4: bump counters of every literal in an added clause
        for &l in &lits {
            self.vsids.bump(l);
        }

        if lits.len() == 1 {
            debug_assert_eq!(analysis.backjump, 0);
            // learned fact at level 0; derivation is global (assumption
            // literals would appear in the clause otherwise)
            match self.lit_value(lits[0]) {
                Value::Unassigned => self.enqueue_with_global(lits[0], ClauseRef::NONE, true),
                Value::True => {}
                Value::False => self.mark_unsat(),
            }
        } else {
            let cref = self.db.insert(&lits, true, lbd);
            self.attach(cref);
            debug_assert_eq!(self.lit_value(lits[0]), Value::Unassigned);
            self.enqueue(lits[0], cref);
        }
        self.note_db_peak();
        self.obs.emit(self.obs_now, self.obs_node, || Event::Learn {
            len: lits.len() as u64,
            // every learned clause holds for the original formula
            global: true,
        });

        // sharing outbox (paper Section 3.2: only "short" clauses)
        if let Some(limit) = self.config.share_len_limit {
            if lits.len() <= limit {
                let clause = Clause::new(lits.iter().copied());
                let fp = clause.fingerprint();
                self.outbox.push((clause, fp));
                self.stats.shared_out += 1;
            }
        }
        self.learned = lits;

        // periodic VSIDS decay
        self.conflicts_since_decay += 1;
        if self.conflicts_since_decay >= VSIDS_DECAY_INTERVAL {
            self.conflicts_since_decay = 0;
            self.vsids.decay(VSIDS_DECAY_SHIFT);
        }
        self.db.decay_activity(0.999);

        // learned-database reduction
        if self.db.num_learned() as f64 > self.max_learned {
            self.reduce_db();
            self.max_learned *= MAX_LEARNED_GROWTH;
        }
    }

    /// Delete roughly half of the removable learned clauses, worst glue
    /// first (highest LBD, ties broken by lowest activity). Clauses that
    /// are antecedents are kept, and glue ≤ [`LBD_KEEP`] clauses are never
    /// deleted — low-glue clauses are the ones worth keeping forever
    /// (HordeSat's clause-quality observation). Runs the relocating GC
    /// afterwards when enough garbage has accumulated.
    pub fn reduce_db(&mut self) {
        let mut candidates: Vec<(u32, f32, ClauseRef)> = self
            .db
            .iter_refs()
            .filter(|&c| {
                self.db.is_learned(c)
                    && self.db.lits(c).len() > 2
                    && self.db.lbd(c) > LBD_KEEP
                    && !self.is_locked(c)
            })
            .map(|c| (self.db.lbd(c), self.db.activity(c), c))
            .collect();
        // delete-first ordering: highest LBD, then lowest activity
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let remove = candidates.len() / 2;
        for &(_, _, cref) in &candidates[..remove] {
            self.delete_clause(cref, true);
            self.stats.deleted += 1;
        }
        let live = self.db.num_learned() as u64;
        self.obs
            .emit(self.obs_now, self.obs_node, || Event::DbReduce {
                deleted: remove as u64,
                live,
            });
        self.maybe_gc();
    }

    /// The paper's level-0 pruning: delete clauses satisfied at level 0.
    fn prune_level0(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let satisfied: Vec<ClauseRef> = self
            .db
            .iter_refs()
            .filter(|&c| !self.is_locked(c))
            .filter(|&c| {
                self.db
                    .lits(c)
                    .iter()
                    .any(|&l| self.lit_value(l) == Value::True)
            })
            .collect();
        for cref in satisfied {
            self.delete_clause(cref, false);
            self.stats.pruned += 1;
        }
        self.pruned_at = self.trail.len();
        self.maybe_gc();
    }

    // ------------------------------------------------------------------
    // Relocating garbage collection
    // ------------------------------------------------------------------

    /// Run the mark-compact collection if dead clauses hold at least
    /// [`GC_FRAC`] of the arena.
    fn maybe_gc(&mut self) {
        if self.db.garbage_words() > 0 && self.db.garbage_frac() >= GC_FRAC {
            self.gc();
        }
    }

    /// Unconditionally compact the clause arena (tests force mid-search
    /// collections through this; normal operation uses the threshold).
    #[doc(hidden)]
    pub fn force_gc(&mut self) {
        self.gc();
    }

    /// Compact the arena and remap every held [`ClauseRef`]: watch-list
    /// entries and the antecedents of trail literals. Only trail
    /// variables can hold real reasons (backtracking resets the rest), so
    /// those two sweeps cover every reference the solver stores.
    fn gc(&mut self) {
        let freed_words = self.db.garbage_words();
        let map = self.db.collect();
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                w.cref = map.remap(w.cref);
            }
        }
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            let r = self.reason[v];
            if r.is_real() {
                self.reason[v] = map.remap(r);
            }
        }
        self.stats.gc_runs += 1;
        self.stats.gc_words += freed_words as u64;
        let live = self.db.num_live() as u64;
        self.obs.emit(self.obs_now, self.obs_node, || Event::DbGc {
            freed_bytes: (freed_words * 4) as u64,
            live,
        });
    }

    fn note_db_peak(&mut self) {
        self.stats.peak_db_bytes = self.stats.peak_db_bytes.max(self.db.bytes());
    }

    // ------------------------------------------------------------------
    // Clause sharing (paper Section 3.2)
    // ------------------------------------------------------------------

    /// Drain learned clauses collected for sharing, each paired with
    /// its 64-bit fingerprint (computed once, at learn time).
    pub fn take_shared(&mut self) -> Vec<(Clause, u64)> {
        std::mem::take(&mut self.outbox)
    }

    /// Queue a clause received from a peer; it is merged the next time
    /// the solver is at decision level 0 ("merged in batches"). The one
    /// entry for foreign clauses, and it does no dedup: a caller that can
    /// see duplicates keeps an [`FpWindow`](crate::FpWindow) of its own, as
    /// the grid client does, one that also holds every clause this solver
    /// offered for sharing. A repeated clause costs a redundant (sound)
    /// merge. The clause is queued with its literals sorted, which the
    /// merge's own sort makes invisible. A fixed-size inbox makes room by
    /// evicting whole clauses, oldest first, until the newcomer's literals
    /// fit; a clause longer than the inbox is dropped itself.
    pub fn queue_fresh(&mut self, lits: &[Lit]) {
        if let Some(cap) = self.config.inbox_lits {
            if lits.len() > cap {
                self.stats.merge_dropped += 1;
                return;
            }
            while self.inbox.lits + lits.len() > cap {
                self.inbox.evict();
                self.stats.merge_dropped += 1;
            }
        }
        self.inbox.push(lits);
        self.stats.peak_inbox_lits = self.stats.peak_inbox_lits.max(self.inbox.lits as u64);
    }

    /// Number of foreign clauses awaiting merge.
    pub fn pending_foreign(&self) -> usize {
        self.inbox.clauses
    }

    /// Merge queued foreign clauses, oldest first. Must be at decision
    /// level 0. An unbounded inbox is merged whole; a fixed-size one until
    /// the merge has charged `work_budget`, the rest staying queued.
    fn merge_foreign(&mut self, work_budget: u64) {
        debug_assert_eq!(self.decision_level(), 0);
        let slice = match self.config.inbox_lits {
            Some(_) => work_budget,
            None => u64::MAX,
        };
        let start = self.stats.work;
        if cfg!(debug_assertions) {
            self.inbox.check();
        }
        if self.inbox.clauses > 0 {
            // foreign clauses carry derivations from other clients; the
            // local DRAT trace is no longer self-contained
            self.proof_complete = false;
        }
        let mut lits = std::mem::take(&mut self.merge_buf);
        while self.status.is_none() && self.stats.work - start < slice {
            lits.clear();
            if !self.inbox.pop_into(&mut lits) {
                break;
            }
            self.merge_clause(&mut lits);
        }
        self.merge_buf = lits;
        self.merge_visited = true;
        if self.status.is_none() {
            debug_assert!(self.inbox.clauses == 0 || slice < u64::MAX);
            self.note_db_peak();
        }
    }

    /// Merge one foreign clause at decision level 0: the paper's four cases.
    fn merge_clause(&mut self, lits: &mut Vec<Lit>) {
        // exactly `Clause::normalize`
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // tautology: no pruning power
        }
        let mut unknown = 0usize;
        let mut satisfied = false;
        for &l in lits.iter() {
            match self.lit_value(l) {
                Value::True => satisfied = true,
                Value::Unassigned => unknown += 1,
                Value::False => {}
            }
        }
        self.stats.work += lits.len() as u64;
        if satisfied {
            // case 4: evaluates true — discard
            self.stats.merge_discarded += 1;
            return;
        }
        if unknown == 0 {
            // case 3: all false — subproblem unsatisfiable
            self.mark_unsat();
            self.stats.merged_in += 1;
            return;
        }
        // unknown literals first so watches are sound
        lits.sort_by_key(|&l| self.lit_value(l) == Value::False);
        for &l in lits.iter() {
            self.vsids.bump(l);
        }
        self.stats.merged_in += 1;
        if let [l] = lits[..] {
            // a shared unit holds for the original formula
            self.enqueue_with_global(l, ClauseRef::NONE, true);
            self.stats.merge_implications += 1;
            return;
        }
        // foreign clauses arrive without their sender's glue; score them
        // pessimistically (LBD = length) so reduction treats them like
        // any other long clause until they prove useful
        let cref = self.db.insert(lits, true, lits.len() as u32);
        self.attach(cref);
        if unknown == 1 {
            // case 1: one unknown literal — an implication
            self.enqueue(lits[0], cref);
            self.stats.merge_implications += 1;
        }
        // case 2 (>1 unknown): simply added to the learned set
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Run search for roughly `work_budget` work units. The budget is
    /// checked between search steps, and a merge of an unbounded inbox
    /// drains all of it, so a call can overrun it — [`Stats::max_step_work`]
    /// and [`Stats::max_merge_burst`] record by how much. With
    /// [`SolverConfig::inbox_lits`] set, a visit to level 0 merges one
    /// slice of at most `work_budget` and search decides and carries on:
    /// returning instead would leave the caller a solver with no decision
    /// open, which cannot split, for as long as the inbox stays fed.
    pub fn step(&mut self, work_budget: u64) -> Step {
        let before = self.stats.work;
        let step = self.search(work_budget);
        self.stats.max_step_work = self.stats.max_step_work.max(self.stats.work - before);
        step
    }

    fn search(&mut self, work_budget: u64) -> Step {
        match self.status {
            Some(SolveStatus::Sat) => return Step::Sat,
            Some(SolveStatus::Unsat) => return Step::Unsat,
            None => {}
        }
        let target = self.stats.work.saturating_add(work_budget);
        loop {
            if let Some(confl) = self.propagate() {
                if self.decision_level() == 0 {
                    self.mark_unsat();
                    return Step::Unsat;
                }
                let analysis = self.analyze_into_buffer(confl);
                self.learn_from_buffer(&analysis);
                if self.status == Some(SolveStatus::Unsat) {
                    return Step::Unsat;
                }
                // zChaff-era semantics: the database overflowing the budget
                // is reported as-is (relevance deletion was too conservative
                // to save a doomed run — paper Section 4.2). A sequential
                // driver treats this as MEM_OUT; a GridSAT client requests a
                // split, which is the paper's way out of memory pressure.
                if let Some(budget) = self.config.mem_budget {
                    if self.db.bytes() > budget {
                        return Step::MemoryPressure;
                    }
                }
            } else {
                if self.trail.len() == self.num_vars {
                    self.status = Some(SolveStatus::Sat);
                    return Step::Sat;
                }
                if self.decision_level() == 0 {
                    if self.config.level0_pruning && self.trail.len() > self.pruned_at {
                        self.prune_level0();
                    }
                    if self.inbox.clauses > 0 && !self.merge_visited {
                        let before = self.stats.work;
                        self.merge_foreign(work_budget);
                        let burst = self.stats.work - before;
                        self.stats.max_merge_burst = self.stats.max_merge_burst.max(burst);
                        if self.status == Some(SolveStatus::Unsat) {
                            return Step::Unsat;
                        }
                        continue;
                    }
                }
                if let Some(at) = self.next_restart {
                    if self.stats.conflicts >= at && self.decision_level() > 0 {
                        self.backtrack(0);
                        self.stats.restarts += 1;
                        let conflicts = self.stats.conflicts;
                        self.obs
                            .emit(self.obs_now, self.obs_node, || Event::Restart { conflicts });
                        let r = self.config.restart.expect("restart configured");
                        self.restart_interval *= r.geometric_factor;
                        self.next_restart =
                            Some(self.stats.conflicts + self.restart_interval as u64);
                        continue;
                    }
                }
                // a variable is unassigned, so it is in the decision heap
                // (`check_invariants`)
                let l = self.pick_branch_lit().expect("an unassigned variable");
                self.decide(l);
            }
            if self.stats.work >= target {
                return Step::Running;
            }
        }
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        let assign8 = &self.assign8;
        self.vsids.pop_best(|v| assign8[v.index()] == LV_UNASSIGNED)
    }

    // ------------------------------------------------------------------
    // Splitting (paper Section 3.1 / Figure 2)
    // ------------------------------------------------------------------

    /// `true` when the solver has an open decision to split on.
    pub fn can_split(&self) -> bool {
        self.status.is_none() && self.decision_level() >= 1
    }

    /// Split the search space at the first decision level.
    ///
    /// Returns the *other* half as a [`SplitSpec`]: level-0 assignments
    /// plus the complement of the level-1 decision, and all clauses not
    /// satisfied under them. This solver absorbs its level 1 into level 0
    /// (the Figure 2 stack transformation) and keeps searching its half.
    pub fn split_off(&mut self) -> Option<SplitSpec> {
        let mut clauses = Vec::new();
        let assumptions =
            self.split_off_with(|lits| clauses.push(Clause::new(lits.iter().copied())))?;
        Some(SplitSpec {
            num_vars: self.num_vars,
            assumptions,
            clauses,
        })
    }

    /// [`Solver::split_off`] with the other half's clauses handed to
    /// `emit` one by one, straight from the arena and in arena order,
    /// instead of collected; returns that half's assumptions. What a
    /// sender that encodes as it goes calls: no clause is built on the
    /// heap.
    pub fn split_off_with(&mut self, mut emit: impl FnMut(&[Lit])) -> Option<Vec<(Lit, bool)>> {
        if !self.can_split() {
            return None;
        }
        let l1_start = self.level_start[1];
        let d1 = self.trail[l1_start];
        debug_assert_eq!(self.reason[d1.var().index()], ClauseRef::DECISION);

        // --- other side: level-0 lits + !d1 ---
        let mut assumptions: Vec<(Lit, bool)> = self.trail[..l1_start]
            .iter()
            .map(|&l| (l, self.level0_global[l.var().index()]))
            .collect();
        assumptions.push((!d1, false));

        // keep clauses NOT satisfied by the other side's level 0
        let mut emitted_lits = 0u64;
        for c in self.db.iter_refs() {
            let lits = self.db.lits(c);
            let satisfied = lits.iter().any(|&l| {
                let v = l.var().index();
                let sat_by_level0 =
                    self.assign8[v] ^ (l.code() as u8 & 1) == LV_TRUE && self.var_level[v] == 0;
                sat_by_level0 || l == !d1
            });
            if !satisfied {
                emit(lits);
                emitted_lits += lits.len() as u64;
            }
        }

        // --- this side: absorb level 1 into level 0 ---
        let l1_end = if self.decision_level() >= 2 {
            self.level_start[2]
        } else {
            self.trail.len()
        };
        for i in l1_start..l1_end {
            let v = self.trail[i].var().index();
            self.var_level[v] = 0;
            // the absorbed decision becomes an assumption; implications
            // hanging off it are assumption-tainted
            self.level0_global[v] = false;
        }
        for i in l1_end..self.trail.len() {
            let v = self.trail[i].var().index();
            self.var_level[v] -= 1;
        }
        self.level_start.remove(1);
        self.assumptions.push(d1);

        self.stats.work += emitted_lits;
        Some(assumptions)
    }

    // ------------------------------------------------------------------
    // Manual driving & introspection (figures, tests)
    // ------------------------------------------------------------------

    /// Make a scripted decision (used by the Figure 1 walkthrough and by
    /// tests). Returns `Err` if the literal is already assigned.
    pub fn assume_decision(&mut self, l: Lit) -> Result<(), Value> {
        match self.lit_value(l) {
            Value::Unassigned => {
                self.decide(l);
                Ok(())
            }
            v => Err(v),
        }
    }

    /// Propagate to fixpoint; on conflict, return the conflicting
    /// clause's paper-style display id along with its reference.
    pub fn propagate_manual(&mut self) -> Option<(ClauseRef, u32)> {
        self.propagate().map(|c| (c, self.db.display_id(c)))
    }

    /// Snapshot of the implication graph over the current trail.
    pub fn implication_graph(&self) -> Vec<GraphNode> {
        self.trail
            .iter()
            .map(|&l| {
                let v = l.var().index();
                let r = self.reason[v];
                let (antecedent_id, preds) = if r.is_real() {
                    let preds = self
                        .db
                        .lits(r)
                        .iter()
                        .filter(|&&q| q.var() != l.var())
                        .map(|&q| q.var())
                        .collect();
                    (self.db.display_id(r), preds)
                } else {
                    (0, Vec::new())
                };
                GraphNode {
                    lit: l,
                    level: self.var_level[v] as usize,
                    antecedent_id,
                    preds,
                }
            })
            .collect()
    }

    /// Every live clause, in arena order (what [`Solver::export_with`]
    /// streams; tests compare the two).
    pub fn export_clauses(&self) -> Vec<Clause> {
        self.db.iter_refs().map(|c| self.db.export(c)).collect()
    }

    /// The whole subproblem this solver holds, for a sender that encodes
    /// as it goes: every live clause handed to `emit` straight from the
    /// arena, in the order of [`Solver::export_clauses`], and level 0
    /// ([`Solver::level0_assignment`]) returned. Beside
    /// [`Solver::split_off_with`], which gives away half.
    pub fn export_with(&self, mut emit: impl FnMut(&[Lit])) -> Vec<(Lit, bool)> {
        for c in self.db.iter_refs() {
            emit(self.db.lits(c));
        }
        self.level0_assignment()
    }

    /// The level-0 assignment with per-variable global flags
    /// (used by checkpointing; paper Section 3.4 "light checkpoint").
    pub fn level0_assignment(&self) -> Vec<(Lit, bool)> {
        let end = if self.decision_level() >= 1 {
            self.level_start[1]
        } else {
            self.trail.len()
        };
        self.trail[..end]
            .iter()
            .map(|&l| (l, self.level0_global[l.var().index()]))
            .collect()
    }

    /// Everything a load or a split decides that later search can see —
    /// status, clauses in arena order with their display ids, level 0,
    /// VSIDS scores, arena occupancy, counters, the learned-clause cap —
    /// for tests that build one solver two ways and compare.
    #[doc(hidden)]
    pub fn loaded_state(&self) -> impl PartialEq + std::fmt::Debug {
        let ids: Vec<u32> = self.db.iter_refs().map(|c| self.db.display_id(c)).collect();
        let scores: Vec<u64> = (0..self.num_vars * 2)
            .map(|code| self.vsids_score(Lit::from_code(code)))
            .collect();
        (
            self.status(),
            self.export_clauses(),
            self.level0_assignment(),
            ids,
            scores,
            self.db_arena_stats(),
            *self.stats(),
            self.max_learned.to_bits(),
        )
    }

    /// Consistency checks used by tests and debug assertions.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        // trail/levels
        assert_eq!(self.level_start[0], 0);
        for w in self.level_start.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for (i, &l) in self.trail.iter().enumerate() {
            assert_eq!(self.lit_value(l), Value::True, "trail lit {l} not true");
            let lvl = self.var_level[l.var().index()] as usize;
            assert!(lvl < self.level_start.len());
            assert!(self.level_start[lvl] <= i);
        }
        // every assigned var is on the trail exactly once
        assert!(self.assign8.iter().all(|&b| b <= LV_UNASSIGNED));
        let assigned = self.assign8.iter().filter(|&&b| b != LV_UNASSIGNED);
        assert_eq!(assigned.count(), self.trail.len());
        // the decision heap is ordered and holds every unassigned variable,
        // so a pick comes up empty only when every variable is assigned
        assert!(self.vsids.check_invariants(), "decision heap out of order");
        for (v, &b) in self.assign8.iter().enumerate() {
            if b == LV_UNASSIGNED {
                assert!(
                    self.vsids.contains(Var(v as u32)),
                    "unassigned variable {} not in the decision heap",
                    v + 1
                );
            }
        }
        // watch symmetry: clauses with >= 2 lits are watched at lits[0],lits[1]
        for cref in self.db.iter_refs() {
            let lits = self.db.lits(cref);
            if lits.len() >= 2 {
                for &wl in &lits[..2] {
                    assert!(
                        self.watches[wl.code()].iter().any(|w| w.cref == cref),
                        "missing watch for {cref:?} on {wl}"
                    );
                }
            }
        }
        // every watch points at a live clause and watches one of lits[0..2]
        // (a relocating GC that missed a watch list would fail here)
        for code in 0..self.watches.len() {
            let wl = Lit::from_code(code);
            for w in &self.watches[code] {
                assert!(
                    self.db.is_live(w.cref),
                    "watch on {wl} references dead/stale {:?}",
                    w.cref
                );
                let lits = self.db.lits(w.cref);
                assert!(
                    lits[..2].contains(&wl),
                    "watch on {wl} not among first two lits of {:?}",
                    w.cref
                );
            }
        }
        // antecedents of trail literals resolve to live clauses that imply them
        for &l in &self.trail {
            let r = self.reason[l.var().index()];
            if r.is_real() {
                assert!(self.db.is_live(r), "antecedent of {l} is dead/stale");
                let lits = self.db.lits(r);
                assert_eq!(lits[0], l, "antecedent of {l} does not imply it");
            }
        }
        // arena byte/garbage accounting is internally consistent
        self.db.check_accounting();
        self.inbox.check();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_cnf::rng::Rng;

    /// `from_split` as first written: normalise a clone of each clause (a
    /// sort and a dedup, always), copy its literals once more, and sift
    /// the VSIDS heap on every bump.
    fn reference_from_split(spec: &SplitSpec, config: SolverConfig) -> Solver {
        let mut s = Solver::empty(spec.num_vars, config);
        for clause in &spec.clauses {
            if s.status.is_some() {
                break;
            }
            let Some(normalized) = clause.normalized() else {
                let cref = s.db.insert(clause.lits(), false, 0);
                s.db.delete(cref);
                continue;
            };
            if normalized.is_empty() {
                s.mark_unsat();
                continue;
            }
            let lits = normalized.lits().to_vec();
            for &l in &lits {
                s.vsids.bump(l);
            }
            let cref = s.db.insert(&lits, false, 0);
            if lits.len() >= 2 {
                s.attach(cref);
            } else {
                match s.lit_value(lits[0]) {
                    Value::True => {}
                    Value::False => s.mark_unsat(),
                    Value::Unassigned => s.enqueue(lits[0], cref),
                }
            }
            s.note_db_peak();
        }
        s.max_learned = (spec.clauses.len() as f64 * s.config.max_learned_factor).max(1000.0);
        s.initial_propagate();
        for &(lit, global) in &spec.assumptions {
            s.add_assumption(lit, global);
        }
        s.initial_propagate();
        s
    }

    /// A clause in one of the shapes the loader and the merge special-case:
    /// ascending (the no-sort path), shuffled, repeated literals, a
    /// tautology, a unit and, now and then, the empty clause.
    fn arbitrary_clause(rng: &mut Rng, num_vars: usize) -> Clause {
        let lit = |rng: &mut Rng| Lit::new(Var(rng.range_u32(0..num_vars as u32)), rng.next_bool());
        let len = match rng.range_u32(0..20) {
            0 => 0,
            1..=4 => 1,
            _ => rng.range_usize(2..6),
        };
        let mut lits: Vec<Lit> = (0..len).map(|_| lit(rng)).collect();
        match rng.range_u32(0..4) {
            // as drawn: unsorted, duplicates and tautologies likely
            0 => {}
            // sorted, duplicates kept
            1 => lits.sort_unstable(),
            // a tautology for sure
            2 if len >= 2 => lits[1] = !lits[0],
            // strictly ascending: the no-sort path
            _ => {
                lits.sort_unstable();
                lits.dedup();
            }
        }
        Clause::new(lits)
    }

    /// A spec of up to two dozen [`arbitrary_clause`]s and a few assumptions.
    fn arbitrary_spec(rng: &mut Rng) -> SplitSpec {
        let num_vars = rng.range_usize(1..13);
        let clauses = (0..rng.range_usize(0..24))
            .map(|_| arbitrary_clause(rng, num_vars))
            .collect();
        let assumptions = (0..rng.range_usize(0..3))
            .map(|_| {
                let var = Var(rng.range_u32(0..num_vars as u32));
                (Lit::new(var, rng.next_bool()), rng.next_bool())
            })
            .collect();
        SplitSpec {
            num_vars,
            assumptions,
            clauses,
        }
    }

    #[test]
    fn slice_loader_agrees_with_the_clone_and_normalise_path() {
        let mut rng = Rng::seed_from_u64(14);
        let (mut decided, mut searched) = (0, 0);
        for case in 0..2000 {
            let spec = arbitrary_spec(&mut rng);
            let mut new = Solver::from_split(&spec, SolverConfig::default());
            let mut old = reference_from_split(&spec, SolverConfig::default());
            new.check_invariants();
            assert_eq!(
                new.loaded_state(),
                old.loaded_state(),
                "case {case}: {spec:?}"
            );
            if new.status().is_some() {
                decided += 1;
                continue;
            }
            // the heaps were built differently; the decisions must not be
            searched += 1;
            assert_eq!(new.step(u64::MAX), old.step(u64::MAX), "case {case}");
            assert_eq!(new.stats(), old.stats(), "case {case}: {spec:?}");
            assert_eq!(new.model(), old.model(), "case {case}");
        }
        assert!(decided > 100 && searched > 100, "{decided} / {searched}");
    }

    /// The inbox as first written — every queued clause a heap `Clause` of
    /// its own in a `VecDeque` — with the fixed-size ring's rule stated
    /// over whole clauses: a newcomer that does not fit drops the oldest
    /// until it does, one longer than the inbox is dropped itself.
    #[derive(Default)]
    struct ReferenceInbox {
        queue: VecDeque<Clause>,
        cap: Option<usize>,
        dropped: u64,
        peak_lits: u64,
    }

    impl ReferenceInbox {
        fn lits(&self) -> usize {
            self.queue.iter().map(Clause::len).sum()
        }

        fn push(&mut self, clause: Clause) {
            if let Some(cap) = self.cap {
                if clause.len() > cap {
                    self.dropped += 1;
                    return;
                }
                while self.lits() + clause.len() > cap {
                    self.queue.pop_front();
                    self.dropped += 1;
                }
            }
            self.queue.push_back(clause);
            self.peak_lits = self.peak_lits.max(self.lits() as u64);
        }

        /// `old`'s counters for what the solver's own inbox counts.
        fn stamp(&self, old: &mut Solver) {
            old.stats.merge_dropped = self.dropped;
            old.stats.peak_inbox_lits = self.peak_lits;
        }
    }

    /// The foreign-clause merge as first written: each clause normalised
    /// in place, its literal vector reordered and copied into the arena.
    /// Stops once it has charged `slice` work units (`u64::MAX`: never).
    fn reference_merge(s: &mut Solver, inbox: &mut VecDeque<Clause>, slice: u64) {
        assert_eq!(s.decision_level(), 0);
        if !inbox.is_empty() {
            s.proof_complete = false;
        }
        let start = s.stats.work;
        while s.stats.work - start < slice {
            let Some(mut clause) = inbox.pop_front() else {
                break;
            };
            if s.status.is_some() {
                return;
            }
            if clause.normalize() {
                continue;
            }
            let lits = clause.into_lits();
            let mut unknown = 0usize;
            let mut satisfied = false;
            for &l in &lits {
                match s.lit_value(l) {
                    Value::True => satisfied = true,
                    Value::Unassigned => unknown += 1,
                    Value::False => {}
                }
            }
            s.stats.work += lits.len() as u64;
            if satisfied {
                s.stats.merge_discarded += 1;
                continue;
            }
            if unknown == 0 {
                s.mark_unsat();
                s.stats.merged_in += 1;
                return;
            }
            let mut ordered = lits;
            ordered.sort_by_key(|&l| s.lit_value(l) == Value::False);
            for &l in &ordered {
                s.vsids.bump(l);
            }
            if ordered.len() == 1 {
                let l = ordered[0];
                s.enqueue_with_global(l, ClauseRef::NONE, true);
                s.stats.merged_in += 1;
                s.stats.merge_implications += 1;
                continue;
            }
            let implied = if unknown == 1 { Some(ordered[0]) } else { None };
            let cref = s.db.insert(&ordered, true, ordered.len() as u32);
            s.attach(cref);
            s.stats.merged_in += 1;
            if let Some(l) = implied {
                s.enqueue(l, cref);
                s.stats.merge_implications += 1;
            }
        }
        s.note_db_peak();
    }

    /// Variables added by [`spread`].
    const SPREAD_VARS: usize = 8400;

    /// A literal of a spec over at most a dozen variables, its variable
    /// moved into one of three clusters (at +0, +100 and +8,400 by its
    /// index mod 3), so that the inbox's codes and the gaps between them
    /// take one, two and three varint bytes.
    fn spread(l: Lit) -> Lit {
        let shift = [0, 100, SPREAD_VARS][l.var().index() % 3];
        Lit::from_code(l.code() + 2 * shift)
    }

    fn spread_clause(clause: &Clause) -> Clause {
        Clause::new(clause.lits().iter().map(|&l| spread(l)))
    }

    fn spread_spec(spec: SplitSpec) -> SplitSpec {
        SplitSpec {
            num_vars: spec.num_vars + SPREAD_VARS,
            assumptions: spec
                .assumptions
                .iter()
                .map(|&(l, g)| (spread(l), g))
                .collect(),
            clauses: spec.clauses.iter().map(spread_clause).collect(),
        }
    }

    /// Queue one [`arbitrary_clause`] over `num_vars` variables — through
    /// [`spread`] if `spread_out` — on `new` and on the reference, and
    /// return it.
    fn queue_on_both(
        rng: &mut Rng,
        num_vars: usize,
        spread_out: bool,
        new: &mut Solver,
        old_inbox: &mut ReferenceInbox,
    ) -> Clause {
        let mut clause = arbitrary_clause(rng, num_vars);
        if spread_out {
            clause = spread_clause(&clause);
        }
        new.queue_fresh(clause.lits());
        old_inbox.push(clause.clone());
        assert_eq!(new.pending_foreign(), old_inbox.queue.len());
        assert_eq!(new.inbox.lits, old_inbox.lits());
        clause
    }

    /// With no capacity the ring merges whole, exactly like the queue of
    /// clauses. With one, every merge is a slice: it stops within a clause
    /// of its budget, takes the queue's oldest clauses in arrival order,
    /// leaves the rest for the next call, and what the ring evicted to
    /// stay inside its capacity is what the reference dropped. One case in
    /// four runs on [`spread`] variables, so the records hold multi-byte
    /// codes and gaps; clauses come unsorted and with repeated literals as
    /// [`arbitrary_clause`] draws them.
    #[test]
    fn flat_inbox_merges_like_the_queue_of_clauses() {
        let mut rng = Rng::seed_from_u64(15);
        let (mut implied, mut refuted, mut discarded) = (0, 0, 0);
        let (mut sliced, mut evicted, mut evicted_spread) = (0, 0, 0);
        let (mut unsorted, mut repeated, mut wrapped) = (0, 0, 0);
        // records whose widest code or gap took two bytes, three bytes
        let mut widest = [0, 0];
        for case in 0..3000 {
            let spread_out = case % 4 == 1;
            let mut spec = arbitrary_spec(&mut rng);
            let small_vars = spec.num_vars;
            if spread_out {
                spec = spread_spec(spec);
            }
            // two cases in three on the unbounded ring
            let cap = (case % 3 == 2).then(|| rng.range_usize(3..40));
            let config = SolverConfig {
                inbox_lits: cap,
                ..SolverConfig::default()
            };
            let mut new = Solver::from_split(&spec, config.clone());
            let mut old = Solver::from_split(&spec, config);
            let mut old_inbox = ReferenceInbox {
                cap,
                ..ReferenceInbox::default()
            };
            let (mut queued, mut taken) = (0, 0);
            // a merge into the freshly loaded subproblem, then two more
            // after some search, back at level 0 among learned clauses,
            // then whatever a fixed-size ring still holds
            for round in 0..4 {
                if round > 0 {
                    assert_eq!(new.step(40), old.step(40), "case {case}");
                    new.check_invariants();
                    new.backtrack(0);
                    old.backtrack(0);
                }
                if new.status().is_some() {
                    break;
                }
                let slice = match (cap, round) {
                    (Some(_), 0..3) => rng.range_u32(1..10) as u64,
                    _ => u64::MAX,
                };
                let fresh = if round < 3 { rng.range_usize(1..10) } else { 0 };
                for _ in 0..fresh {
                    let clause =
                        queue_on_both(&mut rng, small_vars, spread_out, &mut new, &mut old_inbox);
                    let mut codes: Vec<usize> = clause.lits().iter().map(|l| l.code()).collect();
                    unsorted += u64::from(!codes.is_sorted());
                    codes.sort_unstable();
                    repeated += u64::from(codes.windows(2).any(|w| w[0] == w[1]));
                    let gaps = codes.windows(2).map(|w| w[1] - w[0]);
                    let wide = codes.first().copied().into_iter().chain(gaps).max();
                    widest[0] += u64::from(wide >= Some(128));
                    widest[1] += u64::from(wide >= Some(16_384));
                    wrapped += u64::from(!new.inbox.ring.as_slices().1.is_empty());
                }
                queued += fresh as u64;
                let longest = old_inbox.queue.iter().map(Clause::len).max().unwrap_or(0);
                let (before, pending) = (new.stats().work, new.pending_foreign());
                new.merge_foreign(slice);
                new.check_invariants();
                let burst = new.stats().work - before;
                assert!(
                    burst <= slice.saturating_add(longest as u64),
                    "case {case} round {round}: a slice of {slice} charged {burst}"
                );
                sliced += u64::from(new.pending_foreign() > 0 && new.status().is_none());
                reference_merge(&mut old, &mut old_inbox.queue, slice);
                old_inbox.stamp(&mut old);
                assert_eq!(
                    new.loaded_state(),
                    old.loaded_state(),
                    "case {case} round {round}: {spec:?}"
                );
                assert_eq!(new.proof_complete, old.proof_complete);
                assert_eq!(new.pending_foreign(), old_inbox.queue.len(), "case {case}");
                assert!(cap.is_none_or(|cap| new.stats().peak_inbox_lits <= cap as u64));
                // every clause queued was evicted or taken by a merge, or
                // is waiting
                taken += (pending - new.pending_foreign()) as u64;
                let s = new.stats();
                assert_eq!(
                    queued,
                    s.merge_dropped + taken + new.pending_foreign() as u64,
                    "case {case} round {round}"
                );
                refuted += u64::from(new.status() == Some(SolveStatus::Unsat));
            }
            let s = new.stats();
            implied += s.merge_implications;
            discarded += s.merge_discarded;
            evicted += s.merge_dropped;
            if spread_out {
                evicted_spread += s.merge_dropped;
            }
            // both run on to the same verdict by the same steps
            if new.status().is_none() {
                assert_eq!(new.pending_foreign(), 0, "case {case}");
            }
            assert_eq!(new.step(u64::MAX), old.step(u64::MAX), "case {case}");
            assert_eq!(new.stats(), old.stats(), "case {case}: {spec:?}");
            assert_eq!(new.model(), old.model(), "case {case}");
        }
        assert!(
            implied > 100 && refuted > 100 && discarded > 100,
            "{implied} / {refuted} / {discarded}"
        );
        assert!(sliced > 100 && evicted > 100, "{sliced} / {evicted}");
        assert!(
            unsorted > 1000 && repeated > 1000 && wrapped > 100,
            "{unsorted} / {repeated} / {wrapped}"
        );
        assert!(
            widest[0] > 1000 && widest[1] > 1000 && evicted_spread > 100,
            "{widest:?} / {evicted_spread}"
        );
    }

    /// Sorted codes as varint gaps: 1,000 six-literal clauses over 700
    /// variables (codes below 1,400) take at most two bytes a literal and
    /// one for the length, where a ring of `u32` words took 28 a record.
    #[test]
    fn the_inbox_holds_a_clause_in_a_few_bytes() {
        let mut rng = Rng::seed_from_u64(38);
        let mut inbox = Inbox::default();
        let mut queued = VecDeque::new();
        for _ in 0..1000 {
            let lits: Vec<Lit> = (0..6)
                .map(|_| Lit::new(Var(rng.range_u32(0..700)), rng.next_bool()))
                .collect();
            inbox.push(&lits);
            queued.push_back(lits);
        }
        assert_eq!((inbox.clauses, inbox.lits), (1000, 6000));
        assert!(
            inbox.ring.len() <= 1000 * (6 * 2 + 1),
            "{} bytes",
            inbox.ring.len()
        );
        inbox.check();
        let mut out = Vec::new();
        while inbox.pop_into(&mut out) {
            let mut want = queued.pop_front().expect("as many records as pushed");
            want.sort_unstable();
            assert_eq!(out, want);
            out.clear();
        }
        assert!(queued.is_empty() && inbox.ring.is_empty());
        assert_eq!((inbox.clauses, inbox.lits), (0, 0));
    }

    /// Inside the search loop a fixed-size inbox gives up one slice per
    /// visit to level 0: nothing is merged while a decision is open, the
    /// residue is merged — oldest first — when search is next back at
    /// level 0, and a merge never charges more than the step's budget plus
    /// one clause. Driven a budget of 1 at a time, so a call is one visit
    /// at most and a twin fed the same clauses by hand must keep in step.
    #[test]
    fn a_fixed_size_inbox_gives_search_one_slice_per_visit_to_level_0() {
        let mut rng = Rng::seed_from_u64(19);
        let (mut waited, mut resumed, mut verdicts_over_a_residue) = (0, 0, 0);
        for case in 0..1500 {
            let spec = arbitrary_spec(&mut rng);
            let cap = rng.range_usize(6..60);
            let config = SolverConfig {
                inbox_lits: Some(cap),
                ..SolverConfig::default()
            };
            let mut new = Solver::from_split(&spec, config.clone());
            let mut old = Solver::from_split(&spec, config.clone());
            // the same traffic at a budget of its own: only the bound on
            // a merge's work is checked on this one
            let budget = rng.range_u32(1..25) as u64;
            let mut wide = Solver::from_split(&spec, config);
            let mut old_inbox = ReferenceInbox {
                cap: Some(cap),
                ..ReferenceInbox::default()
            };
            let mut longest = 0;
            for _ in 0..60 {
                if new.status().is_some() {
                    break;
                }
                for _ in 0..rng.range_usize(0..4) {
                    queue_on_both(&mut rng, spec.num_vars, false, &mut new, &mut old_inbox);
                    let last = old_inbox.queue.back().map_or(0, Clause::len);
                    longest = longest.max(last as u64);
                }
                wide.inbox.clone_from(&new.inbox);
                let _ = wide.step(budget);
                wide.check_invariants();
                assert!(
                    wide.stats().max_merge_burst <= budget + longest,
                    "case {case}"
                );

                let (level, pending) = (new.decision_level(), new.pending_foreign());
                let step = new.step(1);
                new.check_invariants();
                let taken = pending - new.pending_foreign();
                if level > 0 {
                    assert_eq!(taken, 0, "case {case}: merged under a decision");
                    waited += u64::from(pending > 0);
                } else if pending > 0 && step == Step::Running {
                    assert!(taken > 0, "case {case}: back at level 0, nothing merged");
                    resumed += 1;
                }
                assert!(new.stats().max_merge_burst <= 1 + longest, "case {case}");
                // the twin: the clauses that slice took, merged by hand
                if taken > 0 {
                    let mut slice: VecDeque<Clause> = old_inbox.queue.drain(..taken).collect();
                    reference_merge(&mut old, &mut slice, u64::MAX);
                }
                assert_eq!(old.step(1), step, "case {case}");
                old_inbox.stamp(&mut old);
                old.stats.max_merge_burst = new.stats().max_merge_burst;
                old.stats.max_step_work = new.stats().max_step_work;
                assert_eq!(
                    new.loaded_state(),
                    old.loaded_state(),
                    "case {case}: {spec:?}"
                );
                if new.status().is_some() && new.pending_foreign() > 0 {
                    verdicts_over_a_residue += 1;
                }
            }
        }
        assert!(
            waited > 100 && resumed > 100 && verdicts_over_a_residue > 20,
            "{waited} / {resumed} / {verdicts_over_a_residue}"
        );
    }

    /// `Solver::new` and `from_parts` go through the same loader.
    #[test]
    fn every_constructor_loads_alike() {
        let mut rng = Rng::seed_from_u64(41);
        for _ in 0..200 {
            let spec = SplitSpec {
                assumptions: Vec::new(),
                ..arbitrary_spec(&mut rng)
            };
            let mut f = Formula::new(spec.num_vars);
            for c in &spec.clauses {
                f.add_clause(c.iter());
            }
            let want = reference_from_split(&spec, SolverConfig::default()).loaded_state();
            let new = Solver::new(&f, SolverConfig::default());
            assert_eq!(new.loaded_state(), want, "{spec:?}");
            let parts = Solver::from_parts(
                spec.num_vars,
                spec.clauses.iter().cloned(),
                &[],
                SolverConfig::default(),
            );
            assert_eq!(parts.loaded_state(), want, "{spec:?}");
        }
    }
}
