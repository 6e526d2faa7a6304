//! In-memory span log for the traced run. Spans are recorded from the
//! benchmark's own code around its calls into the program and written
//! out once, at the end of the run.

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// Span index in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    /// Job id for serve spans, 0 elsewhere: spans of one request share it.
    job: u64,
    /// Candidates the span covers (evaluator calls), 0 elsewhere.
    items: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one run, timed against a common origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the log's origin to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, items: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.push(name, parent, 0, items, start_ns, start_ns)
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned by a panic")[id].end_ns = end_ns;
    }

    /// Records a finished span from timestamps taken elsewhere.
    pub fn push(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        items: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(Span {
            name,
            parent,
            job,
            items,
            start_ns,
            end_ns,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent, 0);
        let out = f();
        self.close(id);
        out
    }

    /// Every span, as report objects in recording order (`id` = index).
    pub fn json(&self) -> Json {
        let spans = self.spans.lock().expect("span log poisoned by a panic");
        Json::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj()
                        .set("id", id)
                        .set("parent", s.parent)
                        .set("name", s.name)
                        .set("job", s.job)
                        .set("items", s.items)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_nests_under_parent() {
        let log = SpanLog::new();
        let root = log.open("root", None, 0);
        let child = log.time("child", Some(root), || log.open("leaf", None, 3));
        log.close(child);
        log.close(root);
        let text = log.json().render();
        assert!(
            text.contains(r#""id":1,"parent":0,"name":"child""#),
            "{text}"
        );
        assert!(
            text.contains(r#""name":"leaf","job":0,"items":3"#),
            "{text}"
        );
    }
}
