//! # yoso-core
//!
//! The single-stage DNN/accelerator co-design engine — the paper's primary
//! contribution, assembled from the substrate crates:
//!
//! * [`reward`] — the multi-objective reward `R(λ)` (Eq. 2) and user
//!   constraints;
//! * [`evaluation`] — the fast evaluator (HyperNet accuracy + GP
//!   performance predictors), the accurate evaluator (full training +
//!   exact simulation) and a deterministic surrogate;
//! * [`search`] — search configuration and history bookkeeping
//!   (top-N selection, Pareto extraction, quarantine ledger);
//! * [`archive`] — the non-dominated Pareto archive over typed
//!   [`Objectives`] with RHNAS-style feasibility
//!   caps, the multi-target answer a single run serves;
//! * [`session`] — the unified [`SearchSession`] entry point that runs
//!   the RL loop (LSTM + REINFORCE over the 44-symbol joint action
//!   space), regularized evolution or random search, with optional
//!   structured telemetry and crash-safe checkpointing;
//! * [`checkpoint`] — the on-disk checkpoint container behind
//!   [`SearchSession::resume_from`];
//! * [`error`] — the unified [`Error`] enum every fallible core path
//!   returns;
//! * [`twostage`] — the two-stage baseline flow with representative
//!   reference models (Table 2);
//! * [`pipeline`] — the three-step YOSO flow ending in top-N accurate
//!   reranking.
//!
//! ## Example
//!
//! ```
//! use yoso_core::evaluation::{calibrate_constraints, SurrogateEvaluator};
//! use yoso_core::reward::RewardConfig;
//! use yoso_core::search::SearchConfig;
//! use yoso_core::session::{SearchSession, Strategy};
//! use yoso_arch::NetworkSkeleton;
//!
//! let sk = NetworkSkeleton::tiny();
//! let evaluator = SurrogateEvaluator::new(sk.clone());
//! let constraints = calibrate_constraints(&sk, 30, 0, 50.0);
//! let reward = RewardConfig::balanced(constraints);
//! let outcome = SearchSession::builder()
//!     .evaluator(&evaluator)
//!     .reward(reward)
//!     .strategy(Strategy::Rl)
//!     .config(SearchConfig::builder().iterations(20).rollouts_per_update(4).build())
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.history.len(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod archive;
pub mod checkpoint;
pub mod error;
pub mod evaluation;
pub mod pipeline;
pub mod reward;
pub mod search;
pub mod session;
pub mod twostage;

pub use analysis::{
    feasible, hypervolume, save_history_csv, save_pareto_csv, summarize, EvalSummary,
};
pub use archive::{area_units, power_w, FeasibilityCaps, Objective, Objectives, ParetoArchive};
pub use checkpoint::{latest_checkpoint, SessionCheckpoint};
pub use error::{error_chain, Error};
pub use evaluation::{
    calibrate_constraints, AccurateEvaluator, Evaluation, Evaluator, FastEvaluator,
    ScoringPrecision, SurrogateEvaluator,
};
pub use pipeline::{finalize, run_search_and_finalize, Finalist, YosoResult};
pub use reward::{Constraints, RewardConfig, RewardForm};
pub use search::{SearchConfig, SearchConfigBuilder, SearchOutcome, SearchRecord};
pub use session::{SearchEvent, SearchSession, SearchSessionBuilder, Strategy};
pub use twostage::{
    best_hw_for, reference_models, run_two_stage, BestHw, OptimizationTarget, ReferenceModel,
    TwoStageResult,
};
