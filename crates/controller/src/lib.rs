//! # yoso-controller
//!
//! The reinforcement-learning searcher of the YOSO framework: an LSTM
//! policy (120 hidden units) that autoregressively emits the 44-symbol
//! DNN+accelerator action sequence and is trained with REINFORCE, a
//! moving-average baseline and an entropy bonus (paper §III-C, Eq. 2–4).
//!
//! The crate is search-space agnostic: it takes a list of per-step
//! vocabulary sizes, so it composes with `yoso_arch::ActionSpace` but can
//! drive any discrete sequence-design problem.
//!
//! ## Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use yoso_controller::{Controller, ControllerConfig};
//!
//! let mut cfg = ControllerConfig::paper_default(vec![4, 4, 4]);
//! cfg.hidden = 16; // small for the doc test
//! let mut ctrl = Controller::new(cfg);
//! let mut rng = StdRng::seed_from_u64(0);
//! let rollout = ctrl.sample(&mut rng);
//! let reward = rollout.actions.iter().sum::<usize>() as f64; // toy reward
//! let stats = ctrl.update(&[(rollout, reward)]);
//! assert_eq!(stats.mean_reward, reward);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gemm;
pub mod lstm;
pub mod policy;

pub use lstm::{LstmParams, LstmShape};
pub use policy::{Controller, ControllerConfig, Rollout, UpdateStats};
