//! # yoso-nn
//!
//! Trainable cell networks on top of `yoso-tensor`: a genotype compiled by
//! `yoso-arch` becomes a differentiable forward graph (stem → cells →
//! global pool → classifier), with DARTS-style cell plumbing (ReLU-Conv-BN
//! op blocks, 1x1 input preprocessing, factorized reduce at resolution
//! boundaries).
//!
//! The [`WeightProvider`] abstraction decouples graph construction from
//! weight storage so the standalone [`CellNetwork`] and the weight-sharing
//! HyperNet (`yoso-hypernet`) share exactly one forward implementation —
//! which is what makes weight inheritance meaningful. Training runs it on
//! the autograd tape ([`forward_network`]); every inference runs the
//! tape-free [`infer_network`] walk without building a `Graph`. The walk
//! mirrors the tape op for op and returns bit-identical logits.
//!
//! ## Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use yoso_arch::{Genotype, NetworkSkeleton};
//! use yoso_nn::CellNetwork;
//! use yoso_tensor::Tensor;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
//! let net = CellNetwork::new(plan, 0);
//! let logits = net.logits(Tensor::zeros(&[2, 3, 8, 8]));
//! assert_eq!(logits.shape(), &[2, 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forward;
pub mod infer;
pub mod network;
pub mod weights;

pub use forward::forward_network;
pub use infer::infer_network;
pub use network::{evaluate_with, CellNetwork, EpochStat, TrainConfig, TrainHistory};
pub use weights::{ConvBn, Head, OpWeights, SepConv, WeightProvider};
