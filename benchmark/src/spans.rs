//! Benchmark-side spans around each call into a layer's public function.
//!
//! Spans live in memory and are written out when the run ends. With
//! tracing off only the duration a metric needs is taken; nothing is
//! stored, so the end-to-end run carries no span cost.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call: `parent` indexes the span that was open on the same
/// thread when this one began; `req` is the response's `X-Request-Id` for
/// socket spans (0 otherwise), the key a later in-program trace joins on.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

/// Handle of an open span ([`Tracer::begin`]).
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<u32>,
    started: Instant,
}

/// A single thread's span recorder. Threads record into their own tracer
/// (same `origin`) and the owner [`absorb`](Tracer::absorb)s them.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer { on, origin, spans: Vec::new(), stack: Vec::new() }
    }

    /// A recorder for another thread of the same run.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        if !self.on {
            return Open { index: None, started };
        }
        let index = self.spans.len() as u32;
        let start_ns = started.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: 0,
        });
        self.stack.push(index);
        Open { index: Some(index), started }
    }

    /// Closes `open` (and anything left open inside it) and returns how
    /// long it ran.
    pub fn end(&mut self, open: Open) -> Duration {
        self.end_req(open, 0)
    }

    /// [`end`](Self::end), tagging the span with a request id.
    pub fn end_req(&mut self, open: Open, req: u64) -> Duration {
        let now = Instant::now();
        if let Some(index) = open.index {
            let end_ns = now.duration_since(self.origin).as_nanos() as u64;
            while let Some(top) = self.stack.pop() {
                self.spans[top as usize].end_ns = end_ns;
                if top == index {
                    break;
                }
            }
            self.spans[index as usize].req = req;
        }
        now.duration_since(open.started)
    }

    /// Times one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Appends another thread's finished spans, keeping their parent
    /// links; its parentless spans become children of `under`, the span
    /// this thread had open while the other ran (the span that caused them).
    pub fn absorb(&mut self, other: Tracer, under: Open) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(under.index);
            s
        }));
    }

    /// Per span name: self time (duration minus the part covered by direct
    /// children) and call count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(children);
            e.1 += 1;
        }
        out
    }

    /// Time inside any layer call: the summed durations of parentless
    /// spans (children are inside their parents).
    pub fn top_level_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// The span file: `{"spans":[{name,start_ns,end_ns,parent,req},...]}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.req
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 40, Some(0)),
            span("c", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
            span("a", 100, 130, None),
        ];
        let st = t.self_times();
        // a: (100 - 30 - 20) + 30; b: (30 - 10) + 20; c: 10.
        assert_eq!(st["a"], (80, 2));
        assert_eq!(st["b"], (40, 2));
        assert_eq!(st["c"], (10, 1));
        assert_eq!(t.top_level_ns(), 130);
        let total: u64 = st.values().map(|v| v.0).sum();
        assert_eq!(total, t.top_level_ns(), "self times partition the traced time");
    }

    #[test]
    fn begin_end_nest_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end_req(inner, 42);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 42);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut other = t.sibling();
        let o = other.begin("outer");
        let (_, d) = other.time("leaf", || ());
        other.end(o);
        assert!(d <= Duration::from_secs(1));
        let phase = t.begin("phase");
        t.absorb(other, phase);
        t.end(phase);
        assert_eq!(t.spans()[3].parent, Some(2), "the other thread's root hangs under the phase");
        assert_eq!(t.spans()[4].parent, Some(3));
        assert!(t.to_json().contains("\"name\":\"leaf\""));
    }

    #[test]
    fn disabled_tracer_stores_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, d) = t.time("x", || 5);
        assert_eq!(v, 5);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }
}
