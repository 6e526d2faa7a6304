//! Pins the performance predictor's outputs bit for bit. Its latency and
//! energy predictions feed every fast-evaluator reward, checkpoint and
//! `search_iter` stream, so a change to the GP's fit, its mean or its
//! snapshot must not move a single bit. The batch and per-point paths
//! are compared with each other elsewhere; this digest also sees a
//! change that moves both alike.

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoso::accel::Simulator;
use yoso::arch::{DesignPoint, NetworkSkeleton};
use yoso::persist::{fnv1a, ByteReader, ByteWriter, Snapshot};
use yoso::predictor::perf::{collect_samples, PerfPredictor};

/// Seeded design points queried per predictor.
const POINTS: usize = 64;

/// Simulator samples each predictor is trained on.
const SAMPLES: usize = 160;

fn put(w: &mut ByteWriter, (latency_ms, energy_mj): (f64, f64)) {
    w.put_u64(latency_ms.to_bits());
    w.put_u64(energy_mj.to_bits());
}

/// Digest of `(latency_ms, energy_mj)` for seeded points on predictors
/// trained on seeded `tiny` and `paper_default` samples, through the
/// per-point `predict`, `predict_batch` and a predictor restored from
/// its snapshot. The constant was taken while the per-point path still
/// solved for a predictive variance it then discarded.
#[test]
fn predictions_match_pinned_digest() {
    let sim = Simulator::exact();
    let mut rng = StdRng::seed_from_u64(0x9e5d);
    let mut w = ByteWriter::new();
    for (seed, sk) in [NetworkSkeleton::tiny(), NetworkSkeleton::paper_default()]
        .into_iter()
        .enumerate()
    {
        let samples = collect_samples(&sk, &sim, SAMPLES, seed as u64);
        let pred = PerfPredictor::train(&sk, &samples).expect("fit");
        let mut bytes = ByteWriter::new();
        pred.snapshot(&mut bytes);
        let bytes = bytes.into_bytes();
        let back = PerfPredictor::restore(&mut ByteReader::new(&bytes)).expect("restore");
        let points: Vec<DesignPoint> = (0..POINTS).map(|_| DesignPoint::random(&mut rng)).collect();
        for p in &points {
            put(&mut w, pred.predict(p));
        }
        for (p, b) in points.iter().zip(pred.predict_batch(&points)) {
            assert!(b.0 > 0.0 && b.1 > 0.0, "{p:?}: {b:?}");
            put(&mut w, b);
        }
        for p in &points {
            put(&mut w, back.predict(p));
        }
    }
    let digest = fnv1a(&w.into_bytes());
    assert_eq!(
        digest, 0x4f37_99ba_066a_fe88,
        "performance predictions changed (digest {digest:#018x})"
    );
}
