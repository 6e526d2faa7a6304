//! The buffered JSONL event sink behind a cloneable [`Trace`] handle.

use crate::event::Event;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

enum SinkImpl {
    Memory(Vec<String>),
    File(BufWriter<File>),
    Forward(Box<dyn FnMut(&str) + Send>),
}

struct Inner {
    sink: Mutex<SinkImpl>,
    emitted: AtomicU64,
}

/// A cloneable handle over a JSONL event sink.
///
/// Four flavors:
///
/// * [`Trace::disabled`] — every [`emit`](Trace::emit) is a no-op (one
///   `Option` check); the default everywhere, so tracing costs nothing
///   unless asked for.
/// * [`Trace::memory`] — events accumulate as lines in memory
///   ([`lines`](Trace::lines) reads them back); used by tests.
/// * [`Trace::to_path`] — events stream through a `BufWriter` to a file,
///   one JSON object per line; flushed on [`flush`](Trace::flush) and on
///   the last handle's drop.
/// * [`Trace::forward`] — each serialized line is handed to a callback
///   as it is emitted; used by the serving daemon to stream live
///   `search_iter` events to subscribed clients.
///
/// Clones share the same sink, so a session and its caller can both hold
/// the handle. Emission is serialized by an internal mutex; events from
/// concurrent threads interleave at line granularity (never mid-line).
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Trace(disabled)"),
            Some(inner) => write!(f, "Trace({} events)", inner.emitted.load(Ordering::Relaxed)),
        }
    }
}

impl Trace {
    /// A no-op trace: every emit returns immediately.
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// An in-memory trace; read back with [`lines`](Trace::lines).
    pub fn memory() -> Self {
        Trace {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(SinkImpl::Memory(Vec::new())),
                emitted: AtomicU64::new(0),
            })),
        }
    }

    /// A trace streaming JSONL to `path` (truncates any existing file).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn to_path(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Trace {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(SinkImpl::File(BufWriter::new(file))),
                emitted: AtomicU64::new(0),
            })),
        })
    }

    /// A trace that pushes each serialized JSONL line into `f` as it is
    /// emitted. Lines arrive fully formed and in emission order; the
    /// callback runs under the sink mutex, so it must not emit into the
    /// same trace (it would deadlock) and should return quickly.
    pub fn forward(f: impl FnMut(&str) + Send + 'static) -> Self {
        Trace {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(SinkImpl::Forward(Box::new(f))),
                emitted: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this handle points at a real sink.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends one event as a JSONL line. No-op when disabled; file
    /// write errors are deliberately swallowed (telemetry must never
    /// abort the run it observes).
    pub fn emit(&self, event: Event) {
        let Some(inner) = &self.inner else {
            return;
        };
        let line = event.to_json();
        let mut sink = inner.sink.lock().unwrap_or_else(|e| e.into_inner());
        match &mut *sink {
            SinkImpl::Memory(lines) => lines.push(line),
            SinkImpl::File(w) => {
                let _ = writeln!(w, "{line}");
            }
            SinkImpl::Forward(f) => f(&line),
        }
        inner.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of events emitted through all clones of this handle.
    pub fn events_emitted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.emitted.load(Ordering::Relaxed))
    }

    /// A copy of the buffered lines (memory sinks only; empty for
    /// disabled and file sinks).
    pub fn lines(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => {
                let sink = inner.sink.lock().unwrap_or_else(|e| e.into_inner());
                match &*sink {
                    SinkImpl::Memory(lines) => lines.clone(),
                    SinkImpl::File(_) | SinkImpl::Forward(_) => Vec::new(),
                }
            }
            None => Vec::new(),
        }
    }

    /// Flushes a file sink's buffer to disk (no-op otherwise).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let SinkImpl::File(w) = &mut *inner.sink.lock().unwrap_or_else(|e| e.into_inner()) {
                let _ = w.flush();
            }
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let SinkImpl::File(w) = self.sink.get_mut().unwrap_or_else(|e| e.into_inner()) {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A temp-file path of this process alone, so concurrent runs of the
    /// suite never write to each other's files.
    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn disabled_trace_is_inert() {
        let t = Trace::disabled();
        t.emit(Event::new("x"));
        assert!(!t.is_enabled());
        assert_eq!(t.events_emitted(), 0);
        assert!(t.lines().is_empty());
        t.flush();
    }

    #[test]
    fn memory_trace_buffers_lines_in_order() {
        let t = Trace::memory();
        t.emit(Event::new("a").with_u64("i", 0));
        t.emit(Event::new("b").with_u64("i", 1));
        let lines = t.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(Event::parse(&lines[0]).unwrap().kind, "a");
        assert_eq!(Event::parse(&lines[1]).unwrap().kind, "b");
        assert_eq!(t.events_emitted(), 2);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Trace::memory();
        let u = t.clone();
        u.emit(Event::new("shared"));
        assert_eq!(t.lines().len(), 1);
        assert_eq!(t.events_emitted(), 1);
    }

    #[test]
    fn file_trace_writes_parseable_jsonl() {
        let path = temp_path("yoso_trace_sink_test");
        let t = Trace::to_path(&path).unwrap();
        t.emit(Event::new("iter").with_u64("i", 7).with_f64("r", 0.5));
        t.emit(Event::new("done"));
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let e = Event::parse(lines[0]).unwrap();
        assert_eq!(e.get_u64("i"), Some(7));
        drop(t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forward_trace_streams_lines_in_emission_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let t = Trace::forward(move |line| sink.lock().unwrap().push(line.to_string()));
        t.emit(Event::new("a").with_u64("i", 0));
        t.emit(Event::new("b").with_u64("i", 1));
        assert_eq!(t.events_emitted(), 2);
        // Forward sinks do not buffer: lines() is empty, the callback saw all.
        assert!(t.lines().is_empty());
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(Event::parse(&seen[0]).unwrap().kind, "a");
        assert_eq!(Event::parse(&seen[1]).unwrap().kind, "b");
        // Forwarded lines are byte-identical to what a memory sink stores.
        let m = Trace::memory();
        m.emit(Event::new("a").with_u64("i", 0));
        assert_eq!(seen[0], m.lines()[0]);
    }

    #[test]
    fn drop_flushes_file_sink() {
        let path = temp_path("yoso_trace_drop_test");
        {
            let t = Trace::to_path(&path).unwrap();
            t.emit(Event::new("only"));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
