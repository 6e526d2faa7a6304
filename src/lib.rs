//! # yoso
//!
//! Facade crate for the YOSO reproduction — *"You Only Search Once: A
//! Fast Automation Framework for Single-Stage DNN/Accelerator Co-design"*
//! (Chen et al., DATE 2020).
//!
//! Each subsystem lives in its own crate and is re-exported here:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`trace`] | `yoso-trace` | zero-dep structured telemetry |
//! | [`chaos`] | `yoso-chaos` | deterministic fault injection |
//! | [`pool`] | `yoso-pool` | deterministic work-sharing thread pool |
//! | [`tensor`] | `yoso-tensor` | CPU tensor + autograd engine |
//! | [`dataset`] | `yoso-dataset` | SynthCifar procedural dataset |
//! | [`arch`] | `yoso-arch` | joint search space + action codec |
//! | [`nn`] | `yoso-nn` | trainable cell networks |
//! | [`accel`] | `yoso-accel` | systolic-array simulator |
//! | [`predictor`] | `yoso-predictor` | GP & friends performance predictors |
//! | [`controller`] | `yoso-controller` | LSTM + REINFORCE agent |
//! | [`hypernet`] | `yoso-hypernet` | one-shot weight-sharing supernet |
//! | [`persist`] | `yoso-persist` | checksummed atomic snapshot container |
//! | [`core`] | `yoso-core` | rewards, evaluators, search, baselines |
//! | [`server`] | `yoso-server` | multi-tenant search daemon + wire protocol |
//! | [`client`] | `yoso-client` | blocking protocol client library |
//!
//! The common entry points are gathered in [`prelude`]:
//!
//! ```
//! use yoso::prelude::*;
//!
//! let sk = yoso::arch::NetworkSkeleton::tiny();
//! let evaluator = SurrogateEvaluator::new(sk.clone());
//! let reward = RewardConfig::balanced(calibrate_constraints(&sk, 30, 0, 50.0));
//! let trace = Trace::memory();
//! let outcome = SearchSession::builder()
//!     .evaluator(&evaluator)
//!     .reward(reward)
//!     .strategy(Strategy::Rl)
//!     .config(SearchConfig::builder().iterations(20).rollouts_per_update(4).build())
//!     .trace(trace.clone())
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.history.len(), 20);
//! assert!(trace.events_emitted() > 20);
//! ```
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for
//! the experiment index.

#![forbid(unsafe_code)]

pub use yoso_accel as accel;
pub use yoso_arch as arch;
pub use yoso_chaos as chaos;
pub use yoso_client as client;
pub use yoso_controller as controller;
pub use yoso_core as core;
pub use yoso_dataset as dataset;
pub use yoso_hypernet as hypernet;
pub use yoso_nn as nn;
pub use yoso_persist as persist;
pub use yoso_pool as pool;
pub use yoso_predictor as predictor;
pub use yoso_server as server;
pub use yoso_tensor as tensor;
pub use yoso_trace as trace;

/// One-import surface for the co-design flow: the
/// [`SearchSession`](yoso_core::session::SearchSession) builder and its
/// inputs (evaluators, rewards, config), the unified
/// [`Error`](yoso_core::error::Error) type, the persistence surface
/// ([`Snapshot`](yoso_persist::Snapshot), checkpoint helpers) behind
/// crash-safe resume, plus the telemetry handle
/// ([`Trace`](yoso_trace::Trace)) and event type
/// ([`Event`](yoso_trace::Event)) it emits. The fault-tolerance surface
/// rides along: chaos plans ([`FaultPlan`](yoso_chaos::FaultPlan)),
/// supervised-pool outcomes ([`ItemOutcome`](yoso_pool::ItemOutcome))
/// and the quarantine ledger
/// ([`QuarantineEntry`](yoso_core::search::QuarantineEntry)). The
/// serving surface rides along too: the daemon
/// ([`Server`](yoso_server::Server) / [`ServerConfig`](yoso_server::ServerConfig)),
/// the blocking [`Client`](yoso_client::Client), its self-healing
/// wrapper ([`ResilientClient`](yoso_client::ResilientClient) under a
/// [`RetryPolicy`](yoso_client::RetryPolicy)), the crash-recovery
/// journal ([`Journal`](yoso_server::journal::Journal) /
/// [`Recovery`](yoso_server::journal::Recovery)) and the versioned wire
/// types ([`JobSpec`](yoso_server::proto::JobSpec),
/// [`JobStatus`](yoso_server::proto::JobStatus),
/// [`ErrorCode`](yoso_server::proto::ErrorCode), …). The
/// multi-objective surface (DESIGN.md §12) completes the set: the
/// typed [`Objectives`](yoso_core::archive::Objectives) point, rank
/// axis [`Objective`](yoso_core::archive::Objective), deployment
/// [`FeasibilityCaps`](yoso_core::archive::FeasibilityCaps), the
/// [`ParetoArchive`](yoso_core::archive::ParetoArchive) itself and its
/// wire form ([`ParetoFront`](yoso_server::proto::ParetoFront)).
pub mod prelude {
    pub use yoso_chaos::{FaultKind, FaultPlan, FaultRule};
    pub use yoso_client::{Client, ClientError, ResilientClient, RetryPolicy};
    pub use yoso_core::archive::{FeasibilityCaps, Objective, Objectives, ParetoArchive};
    pub use yoso_core::checkpoint::{latest_checkpoint, SessionCheckpoint};
    pub use yoso_core::error::{error_chain, Error};
    pub use yoso_core::evaluation::{
        calibrate_constraints, AccurateEvaluator, Evaluation, Evaluator, FastEvaluator,
        SurrogateEvaluator,
    };
    pub use yoso_core::reward::{Constraints, NonFiniteMetric, RewardConfig, RewardForm};
    pub use yoso_core::search::{
        QuarantineEntry, SearchConfig, SearchConfigBuilder, SearchOutcome, SearchRecord,
        QUARANTINE_REWARD,
    };
    pub use yoso_core::session::{SearchEvent, SearchSession, SearchSessionBuilder, Strategy};
    pub use yoso_persist::{PersistError, Snapshot, SnapshotArchive, SnapshotBuilder};
    pub use yoso_pool::{ItemOutcome, PoolError, SupervisorConfig};
    pub use yoso_server::journal::{Journal, Record, RecoveredJob, Recovery};
    pub use yoso_server::proto::{
        ErrorCode, JobDone, JobSpec, JobState, JobStatus, ParetoEntry, ParetoFront, Reply, Request,
        ServerStats, PROTO_VERSION,
    };
    pub use yoso_server::{Server, ServerConfig};
    pub use yoso_trace::{Event, Trace};
}
