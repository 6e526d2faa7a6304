//! `FastEvaluator`'s accuracy telemetry: traced runs time every
//! validation-batch walk into an `eval.accuracy.f32` span and count each
//! accuracy query as a cache hit or miss; untraced runs record nothing.
//! (Alone in its test binary: the trace registry is process-global, so a
//! concurrent traced run would add to the counted deltas.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, NetworkSkeleton};
use yoso_core::{Evaluator, FastEvaluator};
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::HyperNet;
use yoso_predictor::{collect_samples, PerfPredictor};
use yoso_trace::RegistrySnapshot;

/// Validation batches per accuracy query: 128 examples in batches of 48.
const VAL_BATCHES: u64 = 3;

/// An untrained `tiny` evaluator: the telemetry does not depend on what
/// the HyperNet has learnt.
fn evaluator() -> FastEvaluator {
    let sk = NetworkSkeleton::tiny();
    let data = SynthCifar::generate(&SynthCifarConfig::tiny());
    let samples = collect_samples(&sk, &Simulator::fast(), 80, 11);
    let predictor = PerfPredictor::train(&sk, &samples).unwrap();
    let mut ev = FastEvaluator::from_parts(HyperNet::new(sk, 0), predictor, data);
    ev.eval_batch = 48;
    ev
}

/// `(walk spans, cache hits, cache misses)` recorded since the last
/// reset.
fn recorded(snap: &RegistrySnapshot) -> (u64, u64, u64) {
    (
        snap.histogram("eval.accuracy.f32").map_or(0, |h| h.count()),
        snap.counter("eval.accuracy.cache_hits"),
        snap.counter("eval.accuracy.cache_misses"),
    )
}

/// Runs `run` after a registry reset and returns what it recorded.
fn record(run: impl FnOnce()) -> (u64, u64, u64) {
    yoso_trace::reset();
    run();
    recorded(&yoso_trace::snapshot())
}

#[test]
fn traced_scoring_counts_walks_and_cache_queries() {
    let mut rng = StdRng::seed_from_u64(3);
    let points: Vec<DesignPoint> = (0..6).map(|_| DesignPoint::random(&mut rng)).collect();
    let (batch, fresh) = (&points[..5], &points[5]);
    let p = batch.len() as u64;

    yoso_trace::set_enabled(false);
    let untraced = evaluator();
    let got = record(|| {
        untraced.evaluate_batch(batch).unwrap();
        untraced.evaluate_batch(batch).unwrap();
    });
    assert_eq!(got, (0, 0, 0), "untraced scoring recorded telemetry");

    yoso_trace::set_enabled(true);
    let ev = evaluator();
    let cold = record(|| {
        ev.evaluate_batch(batch).unwrap();
    });
    assert_eq!(cold, (p * VAL_BATCHES, 0, p), "cold batch");
    let warm = record(|| {
        ev.evaluate_batch(batch).unwrap();
    });
    assert_eq!(warm, (0, p, 0), "warm batch");

    // The per-point path, on a point the batches never scored.
    let cold = record(|| {
        ev.evaluate(fresh).unwrap();
    });
    assert_eq!(cold, (VAL_BATCHES, 0, 1), "cold point");
    let warm = record(|| {
        ev.evaluate(fresh).unwrap();
    });
    assert_eq!(warm, (0, 1, 0), "warm point");
    yoso_trace::set_enabled(false);
}
