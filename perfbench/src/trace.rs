//! In-memory span recorder and self-time computation.
//!
//! Spans come from the benchmark's own code: around every build and
//! execute of a traced run and around every replayed layer call. Each
//! carries a name, start and end (ns since the tracer's epoch), its
//! parent span, a request id (one per realization or replayed
//! exchange) and the recording thread. Nothing is written until the
//! run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (valid only for the tracer that made it).
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub thread: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so it can parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
                thread: thread_index(),
            });
            spans.len() - 1
        };
        // Timestamps are taken outside the lock so recording cost stays
        // out of the measured interval as far as possible.
        let start = self.now_ns();
        let r = f(id);
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        r
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                s.thread,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children are clipped to the parent's
/// interval and overlapping children (for example from two worker
/// threads) are merged, so covered time is never counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Number and summed self time of the spans `keep` selects.
pub fn self_total(spans: &[Span], self_ns: &[u64], keep: impl Fn(&Span) -> bool) -> (u64, u64) {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| keep(s))
        .fold((0, 0), |(n, t), (_, &st)| (n + 1, t + st))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn nested_children_subtract_only_direct_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn sibling_children_add_up() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn overlapping_children_from_workers_are_merged() {
        let mut spans = vec![
            span("root", 0, 100, None),
            span("w0", 10, 50, Some(0)),
            span("w1", 30, 70, Some(0)),
            span("w2", 90, 130, Some(0)),
        ];
        spans[1].thread = 1;
        spans[2].thread = 2;
        spans[3].thread = 1;
        // Covered: [10, 70) and [90, 100) clipped to the parent.
        assert_eq!(self_times(&spans)[0], 30);
        assert_eq!(
            self_total(&spans, &self_times(&spans), |s| s.name == "w1"),
            (1, 40)
        );
    }

    #[test]
    fn recorder_links_parents_across_threads() {
        let t = Tracer::default();
        t.span("root", None, 7, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.span("worker", Some(root), 7, |_| ()));
                }
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.request == 7));
        assert!(spans[1..]
            .iter()
            .all(|s| s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns));
        assert!(t.to_json().starts_with("[\n{\"id\":0,\"name\":\"root\""));
    }
}
