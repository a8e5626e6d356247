//! Benchmark-owned spans: one per call into a layer, recorded from this
//! crate only (spans inside the program are a later change). They stay in
//! memory and are written out when the run ends.

use crate::json::Json;
use std::time::{Duration, Instant};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The spans of one case share this identifier.
    pub case: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Times every scope it is handed; keeps the span only when tracing.
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            tracing,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` as the span `name` of `case`; returns its result and how
    /// long it took. Scopes opened inside `f` become children.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        case: &str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, Duration) {
        if !self.tracing {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            case: case.to_string(),
            parent: self.open.last().copied(),
            start_s: 0.0,
            end_s: 0.0,
        });
        self.open.push(index);
        let start = Instant::now();
        let out = f(self);
        let took = start.elapsed();
        self.open.pop();
        let start_s = start.duration_since(self.origin).as_secs_f64();
        self.spans[index].start_s = start_s;
        self.spans[index].end_s = start_s + took.as_secs_f64();
        (out, took)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many scopes are open; with [`Recorder::unwind_to`], lets a
    /// caller that catches a panic close the scopes the panic skipped.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.origin.elapsed().as_secs_f64();
        for index in self.open.drain(depth.min(self.open.len())..) {
            self.spans[index].end_s = now;
        }
    }
}

/// A span's duration minus the part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration_s();
        }
    }
    own
}

/// One JSON object per span, with its self time.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (id, (span, self_s)) in spans.iter().zip(own).enumerate() {
        let line = Json::obj([
            ("workload", Json::str(workload)),
            ("id", Json::Num(id as f64)),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("case", Json::str(&span.case)),
            ("name", Json::str(span.name)),
            ("start_s", Json::Num(span.start_s)),
            ("end_s", Json::Num(span.end_s)),
            ("self_s", Json::Num(self_s)),
        ]);
        out.push_str(&line.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: "x",
            case: "c".into(),
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..10 with children 1..4 and 5..9; the second child has a
        // grandchild 6..8 that must not be subtracted from the root twice
        let spans = [
            span(None, 0.0, 10.0),
            span(Some(0), 1.0, 4.0),
            span(Some(0), 5.0, 9.0),
            span(Some(2), 6.0, 8.0),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 3.0, 2.0, 2.0]);
    }

    #[test]
    fn recorder_nests_scopes_and_skips_them_when_not_tracing() {
        let mut rec = Recorder::new(true);
        let (value, _) = rec.scope("outer", "case-1", |rec| {
            rec.scope("inner", "case-1", |_| 7).0
        });
        assert_eq!(value, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        assert_eq!(to_jsonl("w", spans).lines().count(), 2);

        let mut off = Recorder::new(false);
        assert_eq!(off.scope("outer", "c", |_| 1).0, 1);
        assert!(off.spans().is_empty());
    }
}
