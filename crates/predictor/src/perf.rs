//! The hardware performance predictor: two Gaussian processes (latency,
//! energy) trained on simulator samples — paper §III-E.

use crate::features::design_features;
use crate::metrics::mape;
use crate::regressors::gp::GaussianProcess;
use crate::regressors::{FitError, Regressor};
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, NetworkSkeleton};
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};

/// The GP family behind the performance predictor: the paper's exact
/// RBF-kernel GP, the only one. It keeps a name because
/// [`PerfPredictor::train_with`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateKind {
    /// Exact GP (paper default).
    Exact,
}

/// One ground-truth sample: a design point and its simulated performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// The sampled design point.
    pub point: DesignPoint,
    /// Simulated end-to-end latency (ms).
    pub latency_ms: f64,
    /// Simulated end-to-end energy (mJ).
    pub energy_mj: f64,
}

/// Draws `n` random design points and simulates each one — the paper's
/// "performance samples taken from the accelerator simulator".
///
/// Simulation fans out over the global worker pool. Each sample's design
/// point comes from an RNG derived from `(seed, index)`, so the result
/// is deterministic and identical at any thread count.
pub fn collect_samples(
    skeleton: &NetworkSkeleton,
    sim: &Simulator,
    n: usize,
    seed: u64,
) -> Vec<PerfSample> {
    yoso_pool::parallel_map_seeded(n, 0, seed, |_, rng| {
        let point = DesignPoint::random(rng);
        let plan = skeleton.compile(&point.genotype);
        let rep = sim.simulate_plan(&plan, &point.hw);
        PerfSample {
            point,
            latency_ms: rep.latency_ms,
            energy_mj: rep.energy_mj,
        }
    })
}

/// Latency + energy predictor bundle (GP regressors over log targets).
#[derive(Debug, Clone)]
pub struct PerfPredictor {
    skeleton: NetworkSkeleton,
    latency_gp: GaussianProcess,
    energy_gp: GaussianProcess,
}

impl PerfPredictor {
    /// Trains both GPs from simulator samples.
    ///
    /// Targets are modeled in log space (latency and energy are positive
    /// and multiplicative in the design factors), then exponentiated at
    /// prediction time.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if `samples` is empty or a fit fails.
    pub fn train(skeleton: &NetworkSkeleton, samples: &[PerfSample]) -> Result<Self, FitError> {
        if samples.is_empty() {
            return Err(FitError::EmptyTrainingSet);
        }
        let xs: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| design_features(&s.point, skeleton))
            .collect();
        let y_lat: Vec<f64> = samples
            .iter()
            .map(|s| s.latency_ms.max(1e-12).ln())
            .collect();
        let y_eer: Vec<f64> = samples
            .iter()
            .map(|s| s.energy_mj.max(1e-12).ln())
            .collect();
        let mut latency_gp = GaussianProcess::default_rbf();
        latency_gp.fit(&xs, &y_lat)?;
        let mut energy_gp = GaussianProcess::default_rbf();
        energy_gp.fit(&xs, &y_eer)?;
        Ok(PerfPredictor {
            skeleton: skeleton.clone(),
            latency_gp,
            energy_gp,
        })
    }

    /// [`train`](Self::train), naming the one [`SurrogateKind`].
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if `samples` is empty or a fit fails.
    pub fn train_with(
        skeleton: &NetworkSkeleton,
        samples: &[PerfSample],
        _kind: SurrogateKind,
    ) -> Result<Self, FitError> {
        Self::train(skeleton, samples)
    }

    /// Predicts `(latency_ms, energy_mj)` for a design point.
    pub fn predict(&self, point: &DesignPoint) -> (f64, f64) {
        let f = design_features(point, &self.skeleton);
        self.predict_from_features(&f)
    }

    /// Prediction from precomputed network statistics — lets callers cache
    /// the genotype compilation when sweeping hardware configurations.
    pub fn predict_from_stats(
        &self,
        stats: &yoso_arch::NetworkStats,
        hw: &yoso_arch::HwConfig,
        out_arities: (usize, usize),
    ) -> (f64, f64) {
        let f = crate::features::stats_features(stats, hw, out_arities);
        self.predict_from_features(&f)
    }

    fn predict_from_features(&self, f: &[f64]) -> (f64, f64) {
        (
            self.latency_gp.predict_one(f).exp(),
            self.energy_gp.predict_one(f).exp(),
        )
    }

    /// Predicts `(latency_ms, energy_mj)` for a whole batch of points.
    ///
    /// Feature extraction (which compiles each genotype) fans out over
    /// the worker pool, and both GPs score the batch through
    /// [`GaussianProcess::predict_batch`] — one blocked cross-kernel
    /// pass each, on the mean path [`predict`](Self::predict) also
    /// ends in, so results match it bit for bit.
    pub fn predict_batch(&self, points: &[DesignPoint]) -> Vec<(f64, f64)> {
        let xs: Vec<Vec<f64>> = yoso_pool::parallel_map(points.len(), 0, |i| {
            design_features(&points[i], &self.skeleton)
        });
        self.predict_batch_from_features(&xs)
    }

    /// Batched prediction from precomputed feature rows.
    pub fn predict_batch_from_features(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let lat = self.latency_gp.predict_batch(xs);
        let eer = self.energy_gp.predict_batch(xs);
        lat.into_iter()
            .zip(eer)
            .map(|(l, e)| (l.exp(), e.exp()))
            .collect()
    }

    /// Mean absolute percentage errors `(latency, energy)` on a held-out
    /// sample set — the paper claims < 4% accuracy loss.
    pub fn evaluate(&self, samples: &[PerfSample]) -> (f64, f64) {
        let mut pl = Vec::with_capacity(samples.len());
        let mut pe = Vec::with_capacity(samples.len());
        let mut tl = Vec::with_capacity(samples.len());
        let mut te = Vec::with_capacity(samples.len());
        for s in samples {
            let (l, e) = self.predict(&s.point);
            pl.push(l);
            pe.push(e);
            tl.push(s.latency_ms);
            te.push(s.energy_mj);
        }
        (mape(&pl, &tl), mape(&pe, &te))
    }
}

impl Snapshot for PerfSample {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.point.snapshot(w);
        w.put_f64(self.latency_ms);
        w.put_f64(self.energy_mj);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(PerfSample {
            point: DesignPoint::restore(r)?,
            latency_ms: r.take_f64()?,
            energy_mj: r.take_f64()?,
        })
    }
}

impl Snapshot for PerfPredictor {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.skeleton.snapshot(w);
        self.latency_gp.snapshot(w);
        self.energy_gp.snapshot(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(PerfPredictor {
            skeleton: NetworkSkeleton::restore(r)?,
            latency_gp: GaussianProcess::restore(r)?,
            energy_gp: GaussianProcess::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn predictor_is_accurate_on_held_out_points() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 300, 0);
        let test = collect_samples(&skeleton, &sim, 60, 1);
        let pred = PerfPredictor::train(&skeleton, &train).unwrap();
        let (lat_err, eer_err) = pred.evaluate(&test);
        // The paper reports < 4% loss at 3000 samples; at this reduced
        // scale we accept < 15%.
        assert!(lat_err < 0.15, "latency MAPE {lat_err}");
        assert!(eer_err < 0.15, "energy MAPE {eer_err}");
    }

    #[test]
    fn predictions_positive() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 100, 2);
        let pred = PerfPredictor::train(&skeleton, &train).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let p = DesignPoint::random(&mut rng);
            let (l, e) = pred.predict(&p);
            assert!(l > 0.0 && e > 0.0);
        }
    }

    #[test]
    fn empty_training_rejected() {
        assert!(matches!(
            PerfPredictor::train(&NetworkSkeleton::tiny(), &[]),
            Err(FitError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn predict_batch_matches_per_point_predict() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 100, 4);
        let pred = PerfPredictor::train(&skeleton, &train).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let points: Vec<DesignPoint> = (0..37).map(|_| DesignPoint::random(&mut rng)).collect();
        let batch = pred.predict_batch(&points);
        assert_eq!(batch.len(), points.len());
        for (p, &(bl, be)) in points.iter().zip(&batch) {
            let (l, e) = pred.predict(p);
            assert_eq!(l.to_bits(), bl.to_bits(), "{l} vs {bl}");
            assert_eq!(e.to_bits(), be.to_bits(), "{e} vs {be}");
        }
    }

    #[test]
    fn restored_predictor_predicts_bit_identically() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let train = collect_samples(&skeleton, &sim, 120, 11);
        let pred = PerfPredictor::train(&skeleton, &train).unwrap();
        let mut w = ByteWriter::new();
        pred.snapshot(&mut w);
        let bytes = w.into_bytes();
        let back = PerfPredictor::restore(&mut ByteReader::new(&bytes)).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..25 {
            let p = DesignPoint::random(&mut rng);
            let (l0, e0) = pred.predict(&p);
            let (l1, e1) = back.predict(&p);
            assert_eq!(l0.to_bits(), l1.to_bits());
            assert_eq!(e0.to_bits(), e1.to_bits());
        }
    }

    #[test]
    fn samples_deterministic_by_seed() {
        let skeleton = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let a = collect_samples(&skeleton, &sim, 10, 7);
        let b = collect_samples(&skeleton, &sim, 10, 7);
        assert_eq!(a, b);
    }
}
