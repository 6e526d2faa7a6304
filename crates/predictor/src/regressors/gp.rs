//! Gaussian-process regression with an RBF kernel (Eq. 7–8 of the paper).
//!
//! This is the model the paper selects as its hardware performance
//! predictor: `y = f(λ) + ε`, `f ~ GP(µ, K)` with the radial basis
//! function kernel `K(λ, λ') = exp(-||λ - λ'||² / (2ℓ²))` and Gaussian
//! observation noise. Hyper-parameters (lengthscale `ℓ`, noise variance)
//! are chosen by maximizing the log marginal likelihood over a small grid
//! on a training subsample. The model is fitted once and read only
//! through its posterior mean.

use super::{validate, FitError, Regressor};
use crate::linalg::{sq_dist, Matrix};
use crate::standardize::{ScalarStandardizer, Standardizer};
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};

/// RBF-kernel Gaussian-process regressor.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    lengthscale_factors: Vec<f64>,
    noise_grid: Vec<f64>,
    /// Cap on training points actually factorized (subsampled by stride).
    max_train: usize,
    /// Cap on subsample size used for hyper-parameter selection.
    max_hyper: usize,
    // Fitted state: what the posterior mean reads.
    std: Standardizer,
    ystd: Option<ScalarStandardizer>,
    xs: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    lengthscale: f64,
    noise: f64,
}

impl GaussianProcess {
    /// The default configuration used by the experiments.
    pub fn default_rbf() -> Self {
        GaussianProcess {
            lengthscale_factors: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            noise_grid: vec![1e-4, 1e-3, 1e-2, 1e-1],
            max_train: 2000,
            max_hyper: 300,
            std: Standardizer::default(),
            ystd: None,
            xs: Vec::new(),
            alpha: Vec::new(),
            lengthscale: 1.0,
            noise: 1e-2,
        }
    }

    /// Builds a GP with a fixed lengthscale/noise (no grid search).
    pub fn with_hyperparams(lengthscale: f64, noise: f64) -> Self {
        GaussianProcess {
            lengthscale_factors: vec![],
            noise_grid: vec![],
            lengthscale,
            noise,
            ..Self::default_rbf()
        }
    }

    /// Overrides the training-set cap (larger = slower, more accurate).
    pub fn with_max_train(mut self, cap: usize) -> Self {
        self.max_train = cap.max(2);
        self
    }

    /// Fitted lengthscale.
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// Fitted noise variance.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        (-sq_dist(a, b) / (2.0 * self.lengthscale * self.lengthscale)).exp()
    }

    fn kernel_matrix(xs: &[Vec<f64>], ell: f64, noise: f64) -> Matrix {
        let n = xs.len();
        let mut k = Matrix::zeros(n, n);
        let inv = 1.0 / (2.0 * ell * ell);
        for i in 0..n {
            k[(i, i)] = 1.0 + noise;
            for j in 0..i {
                let v = (-sq_dist(&xs[i], &xs[j]) * inv).exp();
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    /// Log marginal likelihood of `(xs, ys)` under `(ell, noise)`.
    fn log_marginal(xs: &[Vec<f64>], ys: &[f64], ell: f64, noise: f64) -> f64 {
        let k = Self::kernel_matrix(xs, ell, noise);
        let Ok(l) = k.cholesky() else {
            return f64::NEG_INFINITY;
        };
        let alpha = l.solve_lower_transpose(&l.solve_lower(ys));
        let n = xs.len();
        let data_fit: f64 = ys.iter().zip(&alpha).map(|(y, a)| y * a).sum::<f64>() * -0.5;
        let log_det: f64 = (0..n).map(|i| l[(i, i)].ln()).sum();
        data_fit - log_det - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Posterior means (raw target space) of raw queries: the one mean
    /// path, which [`predict_one`](Regressor::predict_one) and
    /// [`predict_batch`](Self::predict_batch) both end in.
    ///
    /// Each query's mean adds its kernel terms in training order into a
    /// single `f64`, so a query's bits do not depend on the batch it
    /// rides in. Every query then makes one `GpPredictNan` chaos draw, in
    /// query order.
    fn mean<X: AsRef<[f64]>>(&self, xs: &[X]) -> Vec<f64> {
        let Some(ystd) = self.ystd else {
            return vec![0.0; xs.len()];
        };
        xs.iter()
            .map(|x| {
                let q = self.std.transform(x.as_ref());
                let z = self
                    .xs
                    .iter()
                    .zip(&self.alpha)
                    .fold(0.0, |m, (xi, a)| m + self.kernel(&q, xi) * a);
                if yoso_chaos::armed()
                    && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpPredictNan)
                {
                    return f64::NAN;
                }
                ystd.inverse(z)
            })
            .collect()
    }

    /// Predictive means for a batch of points (raw target space), under
    /// the `gp.predict_batch` span.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        // Batch-size and latency telemetry (`gp.points / gp.batches` is
        // the mean batch size); one atomic load when tracing is off.
        let _span = yoso_trace::span("gp.predict_batch");
        if yoso_trace::enabled() {
            yoso_trace::counter_add("gp.batches", 1);
            yoso_trace::counter_add("gp.points", xs.len() as u64);
        }
        self.mean(xs)
    }

    /// Number of training points currently factorized.
    pub fn train_len(&self) -> usize {
        self.xs.len()
    }
}

impl Default for GaussianProcess {
    fn default() -> Self {
        Self::default_rbf()
    }
}

fn stride_subsample<T: Clone>(v: &[T], cap: usize) -> Vec<T> {
    if v.len() <= cap {
        return v.to_vec();
    }
    let stride = v.len() as f64 / cap as f64;
    (0..cap)
        .map(|i| v[(i as f64 * stride) as usize].clone())
        .collect()
}

// The fitted state the mean reads (standardizers, training subsample,
// alpha weights, selected hyper-parameters) is persisted with the fit
// configuration, so a restored GP predicts bit-identically without
// re-running the O(n^3) fit or the hyper-parameter grid search.
impl Snapshot for GaussianProcess {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64s(&self.lengthscale_factors);
        w.put_f64s(&self.noise_grid);
        w.put_usize(self.max_train);
        w.put_usize(self.max_hyper);
        self.std.snapshot(w);
        match self.ystd {
            Some(y) => {
                w.put_bool(true);
                y.snapshot(w);
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.xs.len());
        for x in &self.xs {
            w.put_f64s(x);
        }
        w.put_f64s(&self.alpha);
        w.put_f64(self.lengthscale);
        w.put_f64(self.noise);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let lengthscale_factors = r.take_f64s()?;
        let noise_grid = r.take_f64s()?;
        let max_train = r.take_usize()?;
        let max_hyper = r.take_usize()?;
        let std = Standardizer::restore(r)?;
        let ystd = if r.take_bool()? {
            Some(ScalarStandardizer::restore(r)?)
        } else {
            None
        };
        let n = r.take_usize()?;
        let xs = (0..n)
            .map(|_| r.take_f64s())
            .collect::<Result<Vec<_>, _>>()?;
        let alpha = r.take_f64s()?;
        if alpha.len() != xs.len() {
            return Err(PersistError::Malformed(format!(
                "gp: {} training points vs {} alpha weights",
                xs.len(),
                alpha.len()
            )));
        }
        Ok(GaussianProcess {
            lengthscale_factors,
            noise_grid,
            max_train,
            max_hyper,
            std,
            ystd,
            xs,
            alpha,
            lengthscale: r.take_f64()?,
            noise: r.take_f64()?,
        })
    }
}

impl Regressor for GaussianProcess {
    /// Fits under the `gp.fit` span, recorded while tracing is on.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError> {
        let _span = yoso_trace::span("gp.fit");
        // Chaos hook: a deterministic stand-in for the real-world failure
        // mode (ill-conditioned kernel matrix → Cholesky breakdown).
        if yoso_chaos::armed() && yoso_chaos::should_fault(yoso_chaos::FaultKind::GpFitFail) {
            return Err(FitError::Numerical("chaos: injected GP fit failure".into()));
        }
        let d = validate(x, y)?;
        self.std = Standardizer::fit(x);
        let xs_full = self.std.transform_all(x);
        let ystd = ScalarStandardizer::fit(y);
        let ys_full: Vec<f64> = y.iter().map(|&v| ystd.transform(v)).collect();
        self.ystd = Some(ystd);

        // Hyper-parameter selection by log marginal likelihood on a
        // subsample; the base lengthscale is sqrt(d) (typical pairwise
        // distance after standardization).
        if !self.lengthscale_factors.is_empty() {
            let xs_h = stride_subsample(&xs_full, self.max_hyper);
            let ys_h = stride_subsample(&ys_full, self.max_hyper);
            let base = (d as f64).sqrt();
            let mut best = f64::NEG_INFINITY;
            for &lf in &self.lengthscale_factors {
                for &nv in &self.noise_grid {
                    let lml = Self::log_marginal(&xs_h, &ys_h, lf * base, nv);
                    if lml > best {
                        best = lml;
                        self.lengthscale = lf * base;
                        self.noise = nv;
                    }
                }
            }
            if best == f64::NEG_INFINITY {
                return Err(FitError::Numerical(
                    "no hyper-parameter candidate yielded an SPD kernel".into(),
                ));
            }
        }

        // Final factorization on (up to max_train) points; only the
        // weights `alpha = K⁻¹ y` outlive it.
        let xs = stride_subsample(&xs_full, self.max_train);
        let ys = stride_subsample(&ys_full, self.max_train);
        let k = Self::kernel_matrix(&xs, self.lengthscale, self.noise.max(1e-6));
        let l = k
            .cholesky()
            .map_err(|e| FitError::Numerical(e.to_string()))?;
        self.alpha = l.solve_lower_transpose(&l.solve_lower(&ys));
        self.xs = xs;
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        self.mean(&[x])[0]
    }

    fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.predict_batch(xs)
    }

    fn name(&self) -> &'static str {
        "GaussianProcess"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mse, r2};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn smooth_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0]).sin() + 0.5 * (x[1] * 0.8).cos() + 0.3 * x[0])
            .collect();
        (xs, ys)
    }

    #[test]
    fn gp_interpolates_smooth_function() {
        let (xs, ys) = smooth_data(200, 0);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let (tx, ty) = smooth_data(50, 1);
        let preds = gp.predict(&tx);
        assert!(r2(&preds, &ty) > 0.95, "r2 {}", r2(&preds, &ty));
    }

    #[test]
    fn gp_beats_linear_on_nonlinear_target() {
        let (xs, ys) = smooth_data(200, 2);
        let (tx, ty) = smooth_data(80, 3);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let mut lin = super::super::linear::LinearRegression::new();
        lin.fit(&xs, &ys).unwrap();
        assert!(mse(&gp.predict(&tx), &ty) < mse(&lin.predict(&tx), &ty));
    }

    #[test]
    fn fixed_hyperparams_skip_grid() {
        let (xs, ys) = smooth_data(50, 5);
        let mut gp = GaussianProcess::with_hyperparams(1.5, 1e-3);
        gp.fit(&xs, &ys).unwrap();
        assert_eq!(gp.lengthscale(), 1.5);
        assert_eq!(gp.noise(), 1e-3);
    }

    #[test]
    fn subsampling_caps_training_size() {
        let (xs, ys) = smooth_data(300, 6);
        let mut gp = GaussianProcess::default_rbf().with_max_train(64);
        gp.fit(&xs, &ys).unwrap();
        assert_eq!(gp.xs.len(), 64);
        // Still a sensible predictor.
        let preds = gp.predict(&xs);
        assert!(r2(&preds, &ys) > 0.8);
    }

    #[test]
    fn unfitted_predicts_zero() {
        let gp = GaussianProcess::default_rbf();
        assert_eq!(gp.predict_one(&[1.0, 2.0]), 0.0);
        assert_eq!(gp.predict_batch(&[vec![1.0, 2.0]]), vec![0.0]);
    }

    #[test]
    fn predict_batch_matches_predict_one() {
        let (xs, ys) = smooth_data(200, 7);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let (tx, _) = smooth_data(97, 8);
        let batch = gp.predict_batch(&tx);
        assert_eq!(batch.len(), tx.len());
        for (x, &b) in tx.iter().zip(&batch) {
            let one = gp.predict_one(x);
            assert_eq!(
                one.to_bits(),
                b.to_bits(),
                "batch {b} vs one-at-a-time {one}"
            );
        }
    }
}
