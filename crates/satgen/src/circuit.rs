//! A small combinational-circuit library with Tseitin CNF encoding.
//!
//! Several SAT2002 benchmark families are circuit-derived (processor
//! pipelines, factoring multipliers, hardware counters). This module builds
//! such circuits gate by gate and emits the standard Tseitin clauses, so the
//! family generators in this crate can produce structurally similar
//! instances.

use gridsat_cnf::{Formula, Lit};

/// Incremental circuit-to-CNF builder.
///
/// Wraps a [`Formula`] and allocates one variable per wire. Gate methods
/// return the output wire as a [`Lit`], so circuits compose functionally:
///
/// ```
/// use gridsat_satgen::circuit::CircuitBuilder;
///
/// let mut c = CircuitBuilder::new();
/// let a = c.input();
/// let b = c.input();
/// let y = c.xor(a, b);
/// c.assert_true(y); // a != b
/// let f = c.finish("xor-demo");
/// assert_eq!(f.num_vars(), 3);
/// ```
pub struct CircuitBuilder {
    f: Formula,
    num_gates: usize,
}

impl CircuitBuilder {
    /// A builder with no wires.
    pub fn new() -> CircuitBuilder {
        CircuitBuilder {
            f: Formula::new(0),
            num_gates: 0,
        }
    }

    /// Allocate a primary-input wire.
    pub fn input(&mut self) -> Lit {
        self.f.new_var().positive()
    }

    /// Allocate `n` primary-input wires (e.g. a bit-vector, LSB first).
    pub fn inputs(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Number of gates emitted so far.
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// The negation of a wire (free: just the complemented literal).
    pub fn not(&mut self, a: Lit) -> Lit {
        !a
    }

    /// AND gate: `y <-> a & b`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let y = self.f.new_var().positive();
        // (~a + ~b + y), (a + ~y), (b + ~y)
        self.f.add_clause([!a, !b, y]);
        self.f.add_clause([a, !y]);
        self.f.add_clause([b, !y]);
        self.num_gates += 1;
        y
    }

    /// OR gate: `y <-> a | b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let y = self.and(!a, !b);
        !y
    }

    /// XOR gate: `y <-> a ^ b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let y = self.f.new_var().positive();
        self.f.add_clause([!a, !b, !y]);
        self.f.add_clause([a, b, !y]);
        self.f.add_clause([!a, b, y]);
        self.f.add_clause([a, !b, y]);
        self.num_gates += 1;
        y
    }

    /// Multiplexer: `y = if s { t } else { e }`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let y = self.f.new_var().positive();
        self.f.add_clause([!s, !t, y]);
        self.f.add_clause([!s, t, !y]);
        self.f.add_clause([s, !e, y]);
        self.f.add_clause([s, e, !y]);
        self.num_gates += 1;
        y
    }

    /// Wide AND over any number of wires. Returns constant-true-ish handling:
    /// an empty input list yields a fresh wire constrained true.
    pub fn and_many(&mut self, xs: &[Lit]) -> Lit {
        match xs {
            [] => {
                let y = self.f.new_var().positive();
                self.f.add_clause([y]);
                y
            }
            [x] => *x,
            _ => {
                let y = self.f.new_var().positive();
                // each input implied by y; y implied by all inputs
                let mut long: Vec<Lit> = xs.iter().map(|&x| !x).collect();
                long.push(y);
                self.f.add_clause(long);
                for &x in xs {
                    self.f.add_clause([x, !y]);
                }
                self.num_gates += 1;
                y
            }
        }
    }

    /// Wide OR over any number of wires.
    pub fn or_many(&mut self, xs: &[Lit]) -> Lit {
        let negs: Vec<Lit> = xs.iter().map(|&x| !x).collect();
        let y = self.and_many(&negs);
        !y
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: Lit, b: Lit) -> (Lit, Lit) {
        (self.xor(a, b), self.and(a, b))
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let s1 = self.xor(a, b);
        let sum = self.xor(s1, cin);
        let c1 = self.and(a, b);
        let c2 = self.and(s1, cin);
        let carry = self.or(c1, c2);
        (sum, carry)
    }

    /// Ripple-carry adder over two equal-width bit-vectors (LSB first).
    /// Returns the sum bits plus the final carry as the extra top bit.
    pub fn ripple_add(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry: Option<Lit> = None;
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = match carry {
                None => self.half_adder(x, y),
                Some(cin) => self.full_adder(x, y, cin),
            };
            out.push(s);
            carry = Some(c);
        }
        out.push(carry.expect("non-empty addend"));
        out
    }

    /// Shift-and-add array multiplier over bit-vectors (LSB first); returns
    /// `a.len() + b.len()` product bits.
    ///
    /// Each partial-product row is padded to the full product width and
    /// accumulated with a ripple-carry add; the adder's top carry is always
    /// zero at full width and is dropped.
    pub fn multiply(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        assert!(!a.is_empty() && !b.is_empty());
        let w = a.len() + b.len();
        let zero = self.constant(false);
        let mut acc: Vec<Lit> = vec![zero; w];
        for (i, &bi) in b.iter().enumerate() {
            let mut row: Vec<Lit> = vec![zero; w];
            for (j, &aj) in a.iter().enumerate() {
                row[i + j] = self.and(aj, bi);
            }
            let sum = self.ripple_add(&acc, &row);
            acc = sum[..w].to_vec();
        }
        acc
    }

    /// A constant wire (encoded as a fresh variable pinned by a unit clause).
    pub fn constant(&mut self, value: bool) -> Lit {
        let v = self.f.new_var();
        // pin the variable so its positive literal evaluates to `value`
        self.f.add_clause([v.lit(!value)]);
        v.positive()
    }

    /// Equality comparator over equal-width vectors: single output wire.
    pub fn equals(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        assert_eq!(a.len(), b.len());
        let bits: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = self.xor(x, y);
                !d
            })
            .collect();
        self.and_many(&bits)
    }

    /// Constrain a wire to be true in the final formula.
    pub fn assert_true(&mut self, l: Lit) {
        self.f.add_clause([l]);
    }

    /// Constrain a wire to be false.
    pub fn assert_false(&mut self, l: Lit) {
        self.f.add_clause([!l]);
    }

    /// Constrain a bit-vector to equal a concrete value (LSB first).
    pub fn assert_value(&mut self, bits: &[Lit], mut value: u128) {
        for &b in bits {
            if value & 1 == 1 {
                self.assert_true(b);
            } else {
                self.assert_false(b);
            }
            value >>= 1;
        }
        assert_eq!(value, 0, "value does not fit in the bit-vector");
    }

    /// Finish, naming the instance.
    pub fn finish(self, name: impl Into<String>) -> Formula {
        self.f.with_name(name)
    }
}

impl Default for CircuitBuilder {
    fn default() -> Self {
        CircuitBuilder::new()
    }
}

/// Exhaustively check a single-output circuit against a reference function
/// by brute force. Test helper: only usable for few inputs.
#[cfg(test)]
pub(crate) fn check_truth_table(
    build: impl Fn(&mut CircuitBuilder, &[Lit]) -> Lit,
    n_inputs: usize,
    reference: impl Fn(&[bool]) -> bool,
) {
    use gridsat_cnf::Value;
    assert!(n_inputs <= 12);
    for mask in 0u32..(1 << n_inputs) {
        let mut c = CircuitBuilder::new();
        let ins = c.inputs(n_inputs);
        let out = build(&mut c, &ins);
        let bits: Vec<bool> = (0..n_inputs).map(|i| mask >> i & 1 == 1).collect();
        for (l, b) in ins.iter().zip(&bits) {
            if *b {
                c.assert_true(*l);
            } else {
                c.assert_false(*l);
            }
        }
        let expect = reference(&bits);
        if expect {
            c.assert_true(out);
        } else {
            c.assert_false(out);
        }
        let f = c.finish("tt");
        // The constrained circuit must be satisfiable: find the (unique)
        // assignment by unit propagation via brute force over gate wires.
        assert!(
            brute_force_sat(&f),
            "inputs {bits:?}: expected output {expect}"
        );
        let _ = Value::True;
    }
}

/// Tiny brute-force SAT check for test circuits (exponential; tests only).
#[cfg(test)]
pub(crate) fn brute_force_sat(f: &gridsat_cnf::Formula) -> bool {
    use gridsat_cnf::{Assignment, Value};
    // Variables are allocated in topological order by the builder, so the
    // index-order backtracking below detects violated gate clauses right
    // after the offending guess; circuits of ~100 wires stay fast.
    let n = f.num_vars();
    assert!(n <= 120, "brute force limited to 120 vars, got {n}");
    let mut a = Assignment::new(n);
    fn rec(f: &gridsat_cnf::Formula, a: &mut Assignment, v: usize) -> bool {
        match f.eval(a) {
            Value::True => return true,
            Value::False => return false,
            Value::Unassigned => {}
        }
        if v == a.num_vars() {
            return false;
        }
        for val in [Value::True, Value::False] {
            a.set((v as u32).into(), val);
            if rec(f, a, v + 1) {
                return true;
            }
        }
        a.set((v as u32).into(), Value::Unassigned);
        false
    }
    rec(f, &mut a, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_match_truth_tables() {
        check_truth_table(|c, i| c.and(i[0], i[1]), 2, |b| b[0] && b[1]);
        check_truth_table(|c, i| c.or(i[0], i[1]), 2, |b| b[0] || b[1]);
        check_truth_table(|c, i| c.xor(i[0], i[1]), 2, |b| b[0] ^ b[1]);
        check_truth_table(
            |c, i| c.mux(i[0], i[1], i[2]),
            3,
            |b| if b[0] { b[1] } else { b[2] },
        );
        check_truth_table(|c, i| c.and_many(i), 4, |b| b.iter().all(|&x| x));
        check_truth_table(|c, i| c.or_many(i), 4, |b| b.iter().any(|&x| x));
        check_truth_table(|c, i| c.and_many(&[i[0]]), 1, |b| b[0]);
    }

    #[test]
    fn adder_is_correct() {
        // 3-bit + 3-bit ripple adder, checked exhaustively.
        for a in 0u32..8 {
            for b in 0u32..8 {
                let mut c = CircuitBuilder::new();
                let av = c.inputs(3);
                let bv = c.inputs(3);
                let sum = c.ripple_add(&av, &bv);
                assert_eq!(sum.len(), 4);
                c.assert_value(&av, a as u128);
                c.assert_value(&bv, b as u128);
                c.assert_value(&sum, (a + b) as u128);
                let f = c.finish("add");
                assert!(brute_force_sat(&f), "{a}+{b}");

                // and the wrong sum must be UNSAT
                let mut c = CircuitBuilder::new();
                let av = c.inputs(3);
                let bv = c.inputs(3);
                let sum = c.ripple_add(&av, &bv);
                c.assert_value(&av, a as u128);
                c.assert_value(&bv, b as u128);
                c.assert_value(&sum, ((a + b) ^ 1) as u128);
                let f = c.finish("add-bad");
                assert!(!brute_force_sat(&f), "{a}+{b} wrong sum accepted");
            }
        }
    }

    #[test]
    fn multiplier_is_correct_small() {
        // 2x2-bit multiplier, exhaustive.
        for a in 0u32..4 {
            for b in 0u32..4 {
                let mut c = CircuitBuilder::new();
                let av = c.inputs(2);
                let bv = c.inputs(2);
                let p = c.multiply(&av, &bv);
                assert_eq!(p.len(), 4);
                c.assert_value(&av, a as u128);
                c.assert_value(&bv, b as u128);
                c.assert_value(&p, (a * b) as u128);
                let f = c.finish("mul");
                assert!(brute_force_sat(&f), "{a}*{b}");
            }
        }
    }

    #[test]
    fn equals_works() {
        check_truth_table(
            |c, i| {
                let (a, b) = i.split_at(2);
                c.equals(a, b)
            },
            4,
            |b| (b[0] == b[2]) && (b[1] == b[3]),
        );
    }

    #[test]
    fn constants() {
        let mut c = CircuitBuilder::new();
        let t = c.constant(true);
        let fls = c.constant(false);
        let y = c.and(t, !fls);
        c.assert_true(y);
        assert!(brute_force_sat(&c.finish("const")));

        let mut c = CircuitBuilder::new();
        let t = c.constant(true);
        c.assert_false(t);
        assert!(!brute_force_sat(&c.finish("const-bad")));
    }
}
