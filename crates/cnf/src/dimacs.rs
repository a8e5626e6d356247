//! DIMACS CNF reading and writing.
//!
//! The parser accepts the standard format used by the SAT2002 benchmark
//! suite: `c` comment lines, a `p cnf <vars> <clauses>` problem line, and
//! whitespace-separated literal lists terminated by `0`. Clauses may span
//! lines; the declared counts are checked but a trailing unterminated clause
//! is accepted (several SAT2002 files omit the final `0`).

use crate::{Formula, Lit};
use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Errors produced by the DIMACS parser.
#[derive(Debug)]
pub enum DimacsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// No `p cnf` line before the first clause.
    MissingHeader,
    /// Malformed `p` line.
    BadHeader { line: usize, text: String },
    /// A token that is neither an integer literal nor a terminator.
    BadLiteral { line: usize, token: String },
    /// A literal mentions a variable beyond the declared count.
    VarOutOfRange {
        line: usize,
        var: i64,
        declared: usize,
    },
    /// Clause count does not match the header.
    ClauseCountMismatch { declared: usize, found: usize },
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::Io(e) => write!(f, "I/O error: {e}"),
            DimacsError::MissingHeader => write!(f, "missing 'p cnf' header line"),
            DimacsError::BadHeader { line, text } => {
                write!(f, "line {line}: malformed problem line {text:?}")
            }
            DimacsError::BadLiteral { line, token } => {
                write!(f, "line {line}: bad literal token {token:?}")
            }
            DimacsError::VarOutOfRange {
                line,
                var,
                declared,
            } => write!(
                f,
                "line {line}: variable {var} out of declared range 1..={declared}"
            ),
            DimacsError::ClauseCountMismatch { declared, found } => {
                write!(
                    f,
                    "clause count mismatch: header declares {declared}, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for DimacsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DimacsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DimacsError {
    fn from(e: io::Error) -> DimacsError {
        DimacsError::Io(e)
    }
}

/// Parse a DIMACS CNF file from a reader.
pub fn parse_dimacs<R: BufRead>(reader: R) -> Result<Formula, DimacsError> {
    let mut formula: Option<Formula> = None;
    let mut declared_clauses = 0usize;
    let mut current: Vec<Lit> = Vec::new();
    let mut found_clauses = 0usize;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if trimmed.starts_with('p') {
            let mut parts = trimmed.split_whitespace();
            let (p, cnf) = (parts.next(), parts.next());
            let nv = parts.next().and_then(|s| s.parse::<usize>().ok());
            let nc = parts.next().and_then(|s| s.parse::<usize>().ok());
            match (p, cnf, nv, nc) {
                (Some("p"), Some("cnf"), Some(nv), Some(nc)) => {
                    formula = Some(Formula::new(nv));
                    declared_clauses = nc;
                }
                _ => {
                    return Err(DimacsError::BadHeader {
                        line: lineno,
                        text: trimmed.to_string(),
                    })
                }
            }
            continue;
        }

        let f = formula.as_mut().ok_or(DimacsError::MissingHeader)?;
        for tok in trimmed.split_whitespace() {
            let d: i64 = tok.parse().map_err(|_| DimacsError::BadLiteral {
                line: lineno,
                token: tok.to_string(),
            })?;
            if d == 0 {
                f.add_clause(current.drain(..));
                found_clauses += 1;
            } else {
                if d.unsigned_abs() as usize > f.num_vars() {
                    return Err(DimacsError::VarOutOfRange {
                        line: lineno,
                        var: d,
                        declared: f.num_vars(),
                    });
                }
                current.push(Lit::from_dimacs(d));
            }
        }
    }

    let mut f = formula.ok_or(DimacsError::MissingHeader)?;
    // Tolerate a final clause missing its terminating 0.
    if !current.is_empty() {
        f.add_clause(current.drain(..));
        found_clauses += 1;
    }
    if found_clauses != declared_clauses {
        return Err(DimacsError::ClauseCountMismatch {
            declared: declared_clauses,
            found: found_clauses,
        });
    }
    Ok(f)
}

/// Parse DIMACS CNF from an in-memory string.
pub fn parse_dimacs_str(s: &str) -> Result<Formula, DimacsError> {
    parse_dimacs(s.as_bytes())
}

/// Parse a DIMACS CNF file from disk, naming the formula after the file.
pub fn parse_dimacs_file(path: impl AsRef<Path>) -> Result<Formula, DimacsError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    let mut f = parse_dimacs(io::BufReader::new(file))?;
    if let Some(stem) = path.file_name().and_then(|s| s.to_str()) {
        f.set_name(stem);
    }
    Ok(f)
}

/// Write a formula in DIMACS CNF format.
pub fn write_dimacs<W: Write>(w: &mut W, f: &Formula) -> io::Result<()> {
    if let Some(name) = f.name() {
        writeln!(w, "c {name}")?;
    }
    writeln!(w, "p cnf {} {}", f.num_vars(), f.num_clauses())?;
    for c in f.clauses() {
        for l in c.lits() {
            write!(w, "{} ", l.to_dimacs())?;
        }
        writeln!(w, "0")?;
    }
    Ok(())
}

/// Render a formula to a DIMACS string.
pub fn to_dimacs_string(f: &Formula) -> String {
    let mut buf = Vec::new();
    write_dimacs(&mut buf, f).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("DIMACS output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    #[test]
    fn parse_simple() {
        let f = parse_dimacs_str("c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.clause(0).lits(), &[Lit::pos(0), Lit::neg(1)]);
    }

    #[test]
    fn parse_multiline_clause_and_missing_final_zero() {
        let f = parse_dimacs_str("p cnf 4 2\n1 2\n3 0\n-4 1\n").unwrap();
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.clause(0).len(), 3);
        assert_eq!(f.clause(1).lits(), &[Lit::neg(3), Lit::pos(0)]);
    }

    #[test]
    fn parse_percent_comments_and_blank_lines() {
        let f = parse_dimacs_str("p cnf 1 1\n\n% footer style\n1 0\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
    }

    #[test]
    fn error_missing_header() {
        assert!(matches!(
            parse_dimacs_str("1 2 0\n"),
            Err(DimacsError::MissingHeader)
        ));
        assert!(matches!(
            parse_dimacs_str(""),
            Err(DimacsError::MissingHeader)
        ));
    }

    #[test]
    fn error_bad_header() {
        assert!(matches!(
            parse_dimacs_str("p cnf three 2\n"),
            Err(DimacsError::BadHeader { .. })
        ));
        assert!(matches!(
            parse_dimacs_str("p sat 3 2\n"),
            Err(DimacsError::BadHeader { .. })
        ));
    }

    #[test]
    fn error_bad_literal() {
        assert!(matches!(
            parse_dimacs_str("p cnf 3 1\n1 x 0\n"),
            Err(DimacsError::BadLiteral { .. })
        ));
    }

    #[test]
    fn error_var_out_of_range() {
        assert!(matches!(
            parse_dimacs_str("p cnf 2 1\n1 -3 0\n"),
            Err(DimacsError::VarOutOfRange { var: -3, .. })
        ));
    }

    #[test]
    fn error_clause_count_mismatch() {
        assert!(matches!(
            parse_dimacs_str("p cnf 2 3\n1 0\n2 0\n"),
            Err(DimacsError::ClauseCountMismatch {
                declared: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn roundtrip_paper_formula() {
        let f = crate::paper::fig1_formula();
        let s = to_dimacs_string(&f);
        let g = parse_dimacs_str(&s).unwrap();
        assert_eq!(f.num_vars(), g.num_vars());
        assert_eq!(f.clauses(), g.clauses());
    }

    #[test]
    fn writer_emits_header_and_terminators() {
        let mut f = Formula::new(2).with_name("tiny");
        f.add_clause([Var(0).positive(), Var(1).negative()]);
        let s = to_dimacs_string(&f);
        assert_eq!(s, "c tiny\np cnf 2 1\n1 -2 0\n");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("gridsat-cnf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.cnf");
        let f = crate::paper::fig1_formula();
        let mut out = std::fs::File::create(&path).unwrap();
        write_dimacs(&mut out, &f).unwrap();
        drop(out);
        let g = parse_dimacs_file(&path).unwrap();
        assert_eq!(g.clauses(), f.clauses());
        assert_eq!(g.name(), Some("t.cnf"));
    }
}
