//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `{name, start, end, parent, request}`; spans of one request
//! share its identifier. They are kept in memory and written out once at
//! exit. A layer's self time is its span minus the part of that interval
//! its child spans cover. With tracing off every call is a branch on one
//! bool, so the end-to-end run and the traced run share their code.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by the tracers of all threads of one run, so
    /// their spans merge onto one clock.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    /// An empty tracer on the same clock, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`, in
    /// recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// A flat profile: per span name, `(name, count, total µs, self µs)`,
    /// in order of first appearance.
    pub fn profile(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self_times_ns(&self.spans);
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, own_ns) in self.spans.iter().zip(own) {
            let row = match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => row,
                None => {
                    rows.push((span.name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += span.duration_ns() as f64 / 1e3;
            row.3 += own_ns as f64 / 1e3;
        }
        rows
    }

    /// The span file: one JSON array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping siblings — children on other
/// threads — are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (start, end) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(own, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, own.start_ns);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            own.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("evaluate", 30, 90, Some(0)),
            span("verify", 40, 80, Some(2)), // grandchild: not the request's
        ];
        assert_eq!(self_times_ns(&spans), [100 - 20 - 60, 20, 60 - 40, 40]);
    }

    #[test]
    fn overlapping_siblings_count_their_union() {
        let spans = vec![
            span("batch", 0, 100, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 40, 80, Some(0)), // overlaps the first by 20
            span("worker", 90, 130, Some(0)), // runs past the parent's end
        ];
        // covered = [10,80) ∪ [90,100) = 70 + 10
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", None, 1);
        assert_eq!(id, None);
        t.close(id);
        assert_eq!(t.time("y", None, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let root = a.open("a.root", None, 1);
        a.close(root);
        let mut b = Tracer::new(true, origin);
        let parent = b.open("b.root", None, 2);
        b.time("b.child", parent, 2, || ());
        b.close(parent);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations_us("b.child").len(), 1);
        let profile = a.profile();
        let names: Vec<&str> = profile.iter().map(|r| r.0).collect();
        assert_eq!(names, ["a.root", "b.root", "b.child"]);
        // b.root's self time is its total minus b.child's.
        assert!((profile[1].3 - (profile[1].2 - profile[2].2)).abs() < 1e-9);
        assert!(a.to_json().contains("\"name\":\"b.child\""));
    }
}
