//! Contract tests every regression family must satisfy, plus GP-specific
//! statistical properties.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use yoso_predictor::metrics::{mse, r2};
use yoso_predictor::{fig4_models, GaussianProcess, Regressor};

fn smooth_dataset(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            vec![
                rng.random_range(-2.0..2.0),
                rng.random_range(-2.0..2.0),
                rng.random_range(-2.0..2.0),
            ]
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 2.0 * x[0] + x[1] * x[1] - 0.5 * x[2] + 0.3 * (x[0] * 3.0).sin())
        .collect();
    (xs, ys)
}

/// Every Fig. 4 model must (1) fit without error, (2) beat the
/// mean-predictor baseline on training data, (3) produce finite
/// predictions everywhere.
#[test]
fn all_models_beat_mean_predictor() {
    let (xs, ys) = smooth_dataset(250, 0);
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let baseline = mse(&vec![mean; ys.len()], &ys);
    for mut model in fig4_models(0) {
        model
            .fit(&xs, &ys)
            .unwrap_or_else(|e| panic!("{}: {e}", model.name()));
        let preds = model.predict(&xs);
        assert!(preds.iter().all(|p| p.is_finite()), "{}", model.name());
        let err = mse(&preds, &ys);
        assert!(
            err < baseline * 0.9,
            "{} train MSE {err:.4} vs baseline {baseline:.4}",
            model.name()
        );
    }
}

/// All models generalize at least weakly (positive held-out R^2).
#[test]
fn all_models_generalize() {
    let (xs, ys) = smooth_dataset(300, 1);
    let (tx, ty) = smooth_dataset(100, 2);
    for mut model in fig4_models(1) {
        model.fit(&xs, &ys).unwrap();
        let preds = model.predict(&tx);
        let score = r2(&preds, &ty);
        assert!(score > 0.1, "{} held-out r2 {score:.3}", model.name());
    }
}

/// Refitting on the same data is idempotent (no hidden state leaks).
#[test]
fn fitting_twice_is_idempotent() {
    let (xs, ys) = smooth_dataset(120, 3);
    for mut model in fig4_models(2) {
        model.fit(&xs, &ys).unwrap();
        let a = model.predict_one(&xs[0]);
        model.fit(&xs, &ys).unwrap();
        let b = model.predict_one(&xs[0]);
        assert!(
            (a - b).abs() < 1e-9,
            "{}: {a} != {b} after refit",
            model.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The GP interpolates: at a training point, the prediction is close
    /// to the observed target (noise-level tolerance).
    #[test]
    fn gp_interpolation(seed in 0u64..300) {
        let (xs, ys) = smooth_dataset(80, seed);
        let mut gp = GaussianProcess::default_rbf();
        gp.fit(&xs, &ys).unwrap();
        let span = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - ys.iter().cloned().fold(f64::INFINITY, f64::min);
        for i in [0usize, 40, 79] {
            let p = gp.predict_one(&xs[i]);
            prop_assert!((p - ys[i]).abs() < 0.25 * span.max(1e-9),
                "pred {} vs target {} (span {})", p, ys[i], span);
        }
    }

    /// Scaling targets by a constant scales GP predictions accordingly
    /// (standardization correctness).
    #[test]
    fn gp_equivariant_to_target_scaling(seed in 0u64..200, scale in 1.0f64..50.0) {
        let (xs, ys) = smooth_dataset(60, seed);
        let ys2: Vec<f64> = ys.iter().map(|v| v * scale).collect();
        let mut gp1 = GaussianProcess::with_hyperparams(1.5, 1e-3);
        let mut gp2 = GaussianProcess::with_hyperparams(1.5, 1e-3);
        gp1.fit(&xs, &ys).unwrap();
        gp2.fit(&xs, &ys2).unwrap();
        let q = [0.3, -0.4, 0.9];
        let (p1, p2) = (gp1.predict_one(&q), gp2.predict_one(&q));
        prop_assert!((p2 - p1 * scale).abs() < 1e-6 * (1.0 + p2.abs()),
            "{} vs {}", p2, p1 * scale);
    }
}
