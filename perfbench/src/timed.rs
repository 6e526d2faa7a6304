//! The [`Evaluator`] wrapper the searches are run through. Untraced it
//! only forwards; traced it records one span per call. It forwards every
//! trait method, `evaluate_batch` included: the trait's default batch
//! method would score the batch point by point and lose the wrapped
//! evaluator's pooled batch.

use crate::spans::{SpanId, SpanLog};
use std::sync::atomic::{AtomicUsize, Ordering};
use yoso_arch::DesignPoint;
use yoso_core::error::Error;
use yoso_core::evaluation::{Evaluation, Evaluator, ScoringPrecision};

/// Span name of one [`Evaluator::evaluate`] call.
pub const EVALUATE: &str = "core.evaluate";
/// Span name of one [`Evaluator::evaluate_batch`] call.
pub const EVALUATE_BATCH: &str = "core.evaluate_batch";

/// Forwards to `inner`, recording spans under the current phase when a
/// log is attached.
pub struct Timed<'a> {
    inner: &'a dyn Evaluator,
    log: Option<&'a SpanLog>,
    parent: AtomicUsize,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`; `log` is `Some` on the traced run only.
    pub fn new(inner: &'a dyn Evaluator, log: Option<&'a SpanLog>) -> Timed<'a> {
        Timed {
            inner,
            log,
            parent: AtomicUsize::new(0),
        }
    }

    /// Sets the phase span that later calls nest under.
    pub fn set_phase(&self, phase: SpanId) {
        self.parent.store(phase, Ordering::Relaxed);
    }

    fn traced<T>(&self, name: &'static str, items: usize, f: impl FnOnce() -> T) -> T {
        match self.log {
            None => f(),
            Some(log) => {
                let parent = Some(self.parent.load(Ordering::Relaxed));
                let id = log.open(name, parent, items as u64);
                let out = f();
                log.close(id);
                out
            }
        }
    }
}

impl Evaluator for Timed<'_> {
    fn evaluate(&self, point: &DesignPoint) -> Result<Evaluation, Error> {
        self.traced(EVALUATE, 1, || self.inner.evaluate(point))
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Result<Vec<Evaluation>, Error> {
        self.traced(EVALUATE_BATCH, points.len(), || {
            self.inner.evaluate_batch(points)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_scoring_precision(&self, precision: ScoringPrecision) {
        self.inner.set_scoring_precision(precision);
    }

    fn scoring_precision(&self) -> ScoringPrecision {
        self.inner.scoring_precision()
    }

    fn degraded_queries(&self) -> u64 {
        self.inner.degraded_queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Counts which entry point was used.
    #[derive(Default)]
    struct Probe {
        single: AtomicU64,
        batch: AtomicU64,
    }

    impl Evaluator for Probe {
        fn evaluate(&self, _: &DesignPoint) -> Result<Evaluation, Error> {
            self.single.fetch_add(1, Ordering::Relaxed);
            Ok(Evaluation {
                accuracy: 0.5,
                latency_ms: 1.0,
                energy_mj: 1.0,
            })
        }

        fn evaluate_batch(&self, points: &[DesignPoint]) -> Result<Vec<Evaluation>, Error> {
            self.batch.fetch_add(1, Ordering::Relaxed);
            Ok(vec![self.evaluate(&points[0])?; points.len()])
        }

        fn name(&self) -> &'static str {
            "probe"
        }

        fn scoring_precision(&self) -> ScoringPrecision {
            ScoringPrecision::Int8
        }

        fn degraded_queries(&self) -> u64 {
            7
        }
    }

    #[test]
    fn forwards_every_method_traced_or_not() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let points: Vec<DesignPoint> = (0..4).map(|_| DesignPoint::random(&mut rng)).collect();
        let probe = Probe::default();
        let log = SpanLog::new();
        for log in [None, Some(&log)] {
            let timed = Timed::new(&probe, log);
            assert_eq!(timed.evaluate_batch(&points).unwrap().len(), 4);
            assert_eq!(timed.name(), "probe");
            assert_eq!(timed.scoring_precision(), ScoringPrecision::Int8);
            assert_eq!(timed.degraded_queries(), 7);
        }
        // One inner batch call per outer call: the batch was not split.
        assert_eq!(probe.batch.load(Ordering::Relaxed), 2);
        assert_eq!(probe.single.load(Ordering::Relaxed), 2);
        assert!(log
            .json()
            .render()
            .contains(r#""name":"core.evaluate_batch""#));
    }
}
