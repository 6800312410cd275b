//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only (the layers
//! are not instrumented), kept in memory, and written once at exit in
//! Chrome trace-event format. A switched-off tracer costs one branch per
//! call, which is what the untraced end-to-end runs pay.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer called into (`rv64`, `xpc`, `simos`, ...; `harness` for
    /// the benchmark's own set-up and chunk spans).
    pub layer: &'static str,
    /// The public function called, e.g. `Machine.run`.
    pub call: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Chunk the span belongs to (spans of one chunk share it).
    pub chunk: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// `layer.call`.
    pub fn name(&self) -> String {
        format!("{}.{}", self.layer, self.call)
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder; see the module docs.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    chunk: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            chunk: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tag spans recorded from now on with `chunk`.
    pub fn set_chunk(&mut self, chunk: u64) {
        self.chunk = chunk;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span for `layer.call` under the innermost open span.
    pub fn enter(&mut self, layer: &'static str, call: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            layer,
            call,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            chunk: self.chunk,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close the span `open` refers to, and any span opened inside it
    /// that an early return left open.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.now_ns();
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_ns = now;
                if top == id {
                    break;
                }
            }
        }
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, layer: &'static str, call: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(layer, call);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent,
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total time and self time per `(layer, call)`, in that order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), NameTotals> {
    let mut out: BTreeMap<_, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry((s.layer, s.call)).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The span list as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps, parent and chunk
/// in `args`.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name())),
                ("cat".into(), Value::Str(s.layer.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Value::Num(s.duration_ns() as f64 / 1e3)),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), Value::Int(1)),
                (
                    "args".into(),
                    Value::Obj(vec![
                        ("id".into(), Value::Int(id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Int(p as u64)),
                        ),
                        ("chunk".into(), Value::Int(s.chunk)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("traceEvents".into(), Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(call: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "test",
            call,
            start_ns,
            end_ns,
            parent,
            chunk: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("chunk", 0, 100, None),
            span("run", 10, 40, Some(0)),     // adjacent to the next
            span("check", 40, 70, Some(0)),   // adjacent to the previous
            span("walk", 15, 25, Some(1)),    // nested in run
            span("overlap", 60, 80, Some(0)), // overlaps check by 10
            span("spill", 90, 130, Some(0)),  // clipped to the parent
        ];
        // chunk: 100 - (30 + 30 + 10 beyond check + 10 clipped) = 20
        assert_eq!(self_times(&spans), vec![20, 20, 30, 10, 20, 40]);
        let t = totals_by_name(&spans);
        assert_eq!(
            t[&("test", "run")],
            NameTotals {
                count: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
    }

    #[test]
    fn tracer_records_parents_and_chunks() {
        let mut t = Tracer::new(true);
        t.set_chunk(7);
        let outer = t.enter("harness", "chunk");
        t.span("rv64", "Machine.run", || ());
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name(), s[0].parent, s[0].chunk),
            ("harness.chunk".to_string(), None, 7)
        );
        assert_eq!(
            (s[1].name(), s[1].parent),
            ("rv64.Machine.run".to_string(), Some(0))
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("harness", "chunk");
        t.exit(open);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let doc = chrome_trace(&[span("chunk", 1_000, 3_500, None)]);
        let back = crate::json::parse(&doc.render()).expect("valid JSON");
        let ev = match back.get("traceEvents") {
            Some(Value::Arr(evs)) => evs[0].clone(),
            other => panic!("no traceEvents: {other:?}"),
        };
        assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(ev.get("dur").and_then(Value::as_f64), Some(2.5));
    }
}
