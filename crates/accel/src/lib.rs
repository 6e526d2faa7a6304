//! # yoso-accel
//!
//! Analytical systolic-array accelerator simulator — the reproduction's
//! stand-in for the paper's modified `nn_dataflow` \[21\] performance oracle.
//!
//! Given a network compiled by [`yoso_arch::NetworkSkeleton::compile`] and
//! a hardware configuration ([`yoso_arch::HwConfig`]), the simulator maps
//! each layer onto the PE array under the configured dataflow
//! (WS / OS / RS / NLR), counts operand movements through the
//! register → NoC → global buffer → DRAM hierarchy with Eyeriss-style
//! per-access energies, and searches loop tilings under the buffer
//! capacity constraint. [`Fidelity::Exact`] is the slow exhaustive oracle
//! the Gaussian-process predictor replaces; [`Fidelity::Fast`] is a greedy
//! approximation.
//!
//! ## Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use yoso_accel::Simulator;
//! use yoso_arch::{Genotype, HwConfig, NetworkSkeleton};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let plan = NetworkSkeleton::paper_default().compile(&Genotype::random(&mut rng));
//! let hw = HwConfig::random(&mut rng);
//! let report = Simulator::exact().simulate_plan(&plan, &hw);
//! assert!(report.latency_ms > 0.0 && report.energy_mj > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod report;
pub mod sim;

pub use cache::CacheStats;
pub use cost::CostModel;
pub use report::{EnergyBreakdown, LayerReport, PerfReport};
pub use sim::{Fidelity, Simulator};
