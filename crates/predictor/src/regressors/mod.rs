//! The six regression families compared in Fig. 4 of the paper.
//!
//! Each model implements [`Regressor`]; the Gaussian process
//! ([`gp::GaussianProcess`]) is the one the paper selects (lowest MSE) as
//! the hardware performance predictor.

pub mod forest;
pub mod gp;
pub mod knn;
pub mod linear;
pub mod svr;
pub mod tree;

use std::fmt;

/// Error returned by [`Regressor::fit`] on degenerate training sets.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// Feature rows had inconsistent dimensions.
    DimensionMismatch {
        /// Expected dimension (from the first row / targets).
        expected: usize,
        /// Offending dimension.
        got: usize,
    },
    /// A numerical failure (e.g. a singular system).
    Numerical(String),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyTrainingSet => f.write_str("empty training set"),
            FitError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            FitError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for FitError {}

/// A trainable regression model `R^d -> R`.
pub trait Regressor {
    /// Fits the model on feature rows `x` and targets `y`.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] on empty/ill-shaped data or numerical failure.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError>;

    /// Predicts the target for one feature vector.
    fn predict_one(&self, x: &[f64]) -> f64;

    /// Predicts a batch.
    fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }

    /// Short human-readable model name (used in Fig. 4 output).
    fn name(&self) -> &'static str;
}

pub(crate) fn validate(x: &[Vec<f64>], y: &[f64]) -> Result<usize, FitError> {
    if x.is_empty() || y.is_empty() {
        return Err(FitError::EmptyTrainingSet);
    }
    if x.len() != y.len() {
        return Err(FitError::DimensionMismatch {
            expected: x.len(),
            got: y.len(),
        });
    }
    let d = x[0].len();
    for row in x {
        if row.len() != d {
            return Err(FitError::DimensionMismatch {
                expected: d,
                got: row.len(),
            });
        }
    }
    Ok(d)
}

/// Builds all six Fig. 4 regressors with sensible defaults and a seed for
/// the stochastic ones.
pub fn fig4_models(seed: u64) -> Vec<Box<dyn Regressor + Send>> {
    vec![
        Box::new(linear::LinearRegression::new()),
        Box::new(linear::Ridge::new(1.0)),
        Box::new(knn::Knn::new(5)),
        Box::new(tree::DecisionTree::new(12, 4)),
        Box::new(forest::RandomForest::new(40, 12, 4, seed)),
        Box::new(gp::GaussianProcess::default_rbf()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_empty_and_mismatch() {
        assert_eq!(validate(&[], &[]), Err(FitError::EmptyTrainingSet));
        let x = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            validate(&x, &[1.0]),
            Err(FitError::DimensionMismatch { .. })
        ));
        let bad = vec![vec![1.0], vec![2.0, 3.0]];
        assert!(matches!(
            validate(&bad, &[1.0, 2.0]),
            Err(FitError::DimensionMismatch { .. })
        ));
        assert_eq!(validate(&x, &[1.0, 2.0]), Ok(1));
    }

    #[test]
    fn fig4_has_six_models_with_unique_names() {
        let models = fig4_models(0);
        assert_eq!(models.len(), 6);
        let names: std::collections::HashSet<&str> = models.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn fit_error_display() {
        assert!(FitError::EmptyTrainingSet.to_string().contains("empty"));
        assert!(FitError::Numerical("x".into()).to_string().contains("x"));
    }
}
