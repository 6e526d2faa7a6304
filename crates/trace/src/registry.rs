//! Process-wide registry of named counters and duration histograms.
//!
//! Deep subsystems (the worker pool, the GP predictor, the controller)
//! cannot thread a [`crate::Trace`] handle through their call chains, so
//! they record here instead. The registry is guarded by a single global
//! flag: every entry point loads one relaxed atomic and branches, so with
//! tracing disabled (the default) instrumentation costs a predictable
//! not-taken branch and nothing else — no locks, no clocks, no
//! allocation.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns global telemetry collection on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global telemetry collection is on. Hot paths gate on this:
/// one relaxed load and a branch when disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
}

fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
    })
}

/// Adds `delta` to the named monotonic counter. No-op while telemetry is
/// disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut counters = global().counters.lock().unwrap_or_else(|e| e.into_inner());
    *counters.entry(name).or_insert(0) += delta;
}

/// Records a duration sample (nanoseconds) into the named histogram.
/// No-op while telemetry is disabled.
#[inline]
pub fn record_duration_ns(name: &'static str, nanos: u64) {
    if !enabled() {
        return;
    }
    let mut hists = global().hists.lock().unwrap_or_else(|e| e.into_inner());
    hists.entry(name).or_default().record(nanos);
}

/// RAII span timer from [`span`]: drops record the elapsed wall time into
/// the named registry histogram. When telemetry is disabled at
/// construction the guard holds no clock and the drop is free.
#[must_use = "a span records on drop; binding to _ drops it immediately"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// The histogram name this span records into.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_duration_ns(self.name, nanos);
        }
    }
}

/// Opens an RAII span timer over the named histogram.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Point-in-time copy of every registry counter and histogram.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Duration histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl RegistrySnapshot {
    /// Value of a counter in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Per-counter difference `self - earlier` (clamped at 0), for
    /// expressing what one phase of a run contributed.
    pub fn counters_since(&self, earlier: &RegistrySnapshot) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n))))
            .collect()
    }
}

/// Copies out the current registry contents.
pub fn snapshot() -> RegistrySnapshot {
    let reg = global();
    let counters = reg
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect();
    let histograms = reg
        .hists
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(n, h)| (n.to_string(), h.clone()))
        .collect();
    RegistrySnapshot {
        counters,
        histograms,
    }
}

/// Clears every registry counter and histogram (the enabled flag is left
/// untouched). Intended for tests and bench bins that report per-run
/// numbers.
pub fn reset() {
    let reg = global();
    reg.counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    reg.hists.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry state is process-global, so every assertion here is
    // delta-based. The enabled flag is shared too: each test that sets it
    // holds `FLAG` until it is done, or a concurrent test could flip it
    // between its `set_enabled` and its recording.
    static FLAG: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_paths_record_nothing() {
        let _flag = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let before = snapshot();
        counter_add("test.disabled.counter", 3);
        record_duration_ns("test.disabled.hist", 100);
        drop(span("test.disabled.span"));
        let after = snapshot();
        assert_eq!(
            after.counter("test.disabled.counter"),
            before.counter("test.disabled.counter")
        );
        assert!(
            after.histogram("test.disabled.hist").is_none()
                || before.histogram("test.disabled.hist").is_some()
        );
    }

    #[test]
    fn enabled_counters_and_spans_accumulate() {
        let _flag = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let before = snapshot();
        counter_add("test.enabled.counter", 2);
        counter_add("test.enabled.counter", 3);
        {
            let _s = span("test.enabled.span");
            std::hint::black_box(1 + 1);
        }
        record_duration_ns("test.enabled.hist", 1_000);
        let after = snapshot();
        set_enabled(false);
        assert_eq!(
            after.counter("test.enabled.counter") - before.counter("test.enabled.counter"),
            5
        );
        let span_count =
            |s: &RegistrySnapshot| s.histogram("test.enabled.span").map_or(0, |h| h.count());
        assert_eq!(span_count(&after) - span_count(&before), 1);
        let deltas = after.counters_since(&before);
        assert!(deltas
            .iter()
            .any(|(n, v)| n == "test.enabled.counter" && *v == 5));
    }
}
