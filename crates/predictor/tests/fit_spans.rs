//! `GaussianProcess::fit` times each fit into a `gp.fit` span while
//! tracing is on and records nothing while it is off. (Alone in its test
//! binary: the trace registry is process-global, so a concurrent traced
//! fit would add to the counts.)

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use yoso_predictor::{GaussianProcess, Regressor};

/// Fits `fits` GPs to a small smooth dataset.
fn fit_gps(fits: usize) {
    let mut rng = StdRng::seed_from_u64(2);
    let xs: Vec<Vec<f64>> = (0..40)
        .map(|_| vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0] - 0.5 * x[1] * x[1]).collect();
    for _ in 0..fits {
        GaussianProcess::default().fit(&xs, &ys).unwrap();
    }
}

/// `gp.fit` spans recorded by `run` after a registry reset.
fn recorded(run: impl FnOnce()) -> u64 {
    yoso_trace::reset();
    run();
    let snap = yoso_trace::snapshot();
    snap.histogram("gp.fit").map_or(0, |h| h.count())
}

#[test]
fn traced_fits_record_one_span_each() {
    yoso_trace::set_enabled(false);
    assert_eq!(recorded(|| fit_gps(3)), 0, "untraced fits recorded spans");
    yoso_trace::set_enabled(true);
    assert_eq!(recorded(|| fit_gps(3)), 3);
    yoso_trace::set_enabled(false);
}
