//! # yoso-predictor
//!
//! Machine-learning hardware performance predictors — the paper's §III-E.
//!
//! The crate provides the six regression families compared in Fig. 4
//! (linear, ridge, k-NN, CART decision tree, random forest and the
//! Gaussian process that wins the comparison, plus a bonus linear SVR),
//! a tiny dense linear-algebra kernel (Cholesky solves for the GP), the
//! regression/ranking metrics used throughout the evaluation, and the
//! [`PerfPredictor`] bundle that replaces the cycle-level simulator inside
//! the search loop.
//!
//! ## Example
//!
//! ```
//! use yoso_accel::Simulator;
//! use yoso_arch::NetworkSkeleton;
//! use yoso_predictor::perf::{collect_samples, PerfPredictor};
//!
//! let skeleton = NetworkSkeleton::tiny();
//! let samples = collect_samples(&skeleton, &Simulator::fast(), 100, 0);
//! let predictor = PerfPredictor::train(&skeleton, &samples).unwrap();
//! let (lat, eer) = predictor.predict(&samples[0].point);
//! assert!(lat > 0.0 && eer > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod linalg;
pub mod metrics;
pub mod perf;
pub mod regressors;
pub mod standardize;

pub use features::{design_features, stats_features, FEATURE_DIM};
pub use perf::{collect_samples, PerfPredictor, PerfSample};
pub use regressors::forest::RandomForest;
pub use regressors::gp::GaussianProcess;
pub use regressors::knn::Knn;
pub use regressors::linear::{LinearRegression, Ridge};
pub use regressors::svr::LinearSvr;
pub use regressors::tree::DecisionTree;
pub use regressors::{fig4_models, FitError, Regressor};
pub use standardize::{ScalarStandardizer, Standardizer};
