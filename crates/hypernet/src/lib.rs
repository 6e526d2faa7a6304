//! # yoso-hypernet
//!
//! The one-shot **HyperNet** of the paper (§III-D): an over-parameterized
//! network holding shared weights for *every* candidate operation on
//! *every* edge of every cell instance. A candidate genotype is a single
//! path through the HyperNet; it inherits the shared weights and its
//! validation accuracy is measured with one test run — no per-candidate
//! training.
//!
//! Training follows the paper's uniform-sampling strategy (Eq. 6): each
//! step samples one sub-model uniformly at random and updates only the
//! parameters on the sampled path. The paper stresses that *uniform*
//! sampling (rather than the biased sampling of ENAS/SMASH-style
//! controllers) is vital for the HyperNet to rank sub-models faithfully —
//! an ablation bench in `yoso-bench` reproduces that comparison.
//!
//! Because cell outputs concatenate a genotype-dependent number of nodes,
//! the HyperNet allocates *shape-indexed* preprocessing convolutions and
//! classifier heads (one per possible input-channel count), so every
//! sub-model finds correctly-shaped weights.
//!
//! ## Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use yoso_arch::{Genotype, NetworkSkeleton};
//! use yoso_dataset::{SynthCifar, SynthCifarConfig};
//! use yoso_hypernet::{HyperNet, HyperTrainConfig};
//!
//! let data = SynthCifar::generate(&SynthCifarConfig::tiny());
//! let mut hyper = HyperNet::new(NetworkSkeleton::tiny(), 0);
//! let cfg = HyperTrainConfig { epochs: 1, ..Default::default() };
//! hyper.train(&data, &cfg);
//! let mut rng = StdRng::seed_from_u64(1);
//! let acc = hyper.evaluate_genotype(&Genotype::random(&mut rng), &data.val, 64);
//! assert!((0.0..=1.0).contains(&acc));
//! ```

#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use yoso_arch::{Genotype, NetworkPlan, NetworkSkeleton, Op, INTERNAL_NODES, NODES_PER_CELL};
use yoso_dataset::{Split, SynthCifar};
use yoso_nn::{
    evaluate_with, forward_network, infer_network, ConvBn, Head, OpWeights, WeightProvider,
};
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};
use yoso_tensor::{CosineLr, Graph, ParamId, ParamStore, Scratch, Tensor};

/// HyperNet training hyper-parameters (paper: SGD momentum 0.9, L2 4e-5,
/// cosine LR 0.05 → 0.0001, batch 144, 300 epochs — scaled down here).
#[derive(Debug, Clone, PartialEq)]
pub struct HyperTrainConfig {
    /// Number of epochs over the training split.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr_max: f32,
    /// Final learning rate.
    pub lr_min: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay (applied only to the sampled path's weights).
    pub weight_decay: f32,
    /// Gradient-norm clip.
    pub grad_clip: f32,
    /// Random-crop/flip augmentation.
    pub augment: bool,
    /// Sampling seed.
    pub seed: u64,
    /// If `false`, disables uniform path sampling and trains a single
    /// fixed path — the *biased* baseline for the sampling ablation.
    pub uniform_sampling: bool,
}

impl Default for HyperTrainConfig {
    fn default() -> Self {
        HyperTrainConfig {
            epochs: 8,
            batch_size: 64,
            lr_max: 0.05,
            lr_min: 0.0001,
            momentum: 0.9,
            weight_decay: 4e-5,
            grad_clip: 5.0,
            augment: true,
            seed: 0,
            uniform_sampling: true,
        }
    }
}

/// Per-epoch HyperNet statistics (the data behind Fig. 5(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperEpochStat {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training loss over sampled paths.
    pub train_loss: f64,
    /// Validation accuracy of one freshly sampled sub-model — the paper
    /// uses this as "the accuracy of the HyperNet".
    pub sampled_val_acc: f64,
}

/// The weight-sharing supernet.
#[derive(Debug, Clone)]
pub struct HyperNet {
    skeleton: NetworkSkeleton,
    store: ParamStore,
    stem: ConvBn,
    /// `(cell, which, cin) -> ConvBn`.
    preps: HashMap<(usize, usize, usize), ConvBn>,
    /// `(cell, node, src, op) -> OpWeights`.
    ops: HashMap<(usize, usize, usize, Op), OpWeights>,
    /// `c_last -> Head`.
    heads: HashMap<usize, Head>,
    velocity: Vec<Tensor>,
    /// Conv workspace arena threaded through training steps so im2col
    /// buffers are allocated once, not once per layer per step.
    /// Transient: not persisted in snapshots.
    scratch: Scratch,
}

/// Weight provider view binding a HyperNet to one compiled plan.
#[derive(Debug)]
pub struct HyperProvider<'a> {
    hyper: &'a HyperNet,
    plan: &'a NetworkPlan,
}

impl WeightProvider for HyperProvider<'_> {
    fn stem(&self) -> ConvBn {
        self.hyper.stem
    }
    fn prep(&self, cell: usize, which: usize) -> ConvBn {
        let c = &self.plan.cells[cell];
        let cin = if which == 0 { c.c_in0 } else { c.c_in1 };
        self.hyper.preps[&(cell, which, cin)]
    }
    fn op(&self, cell: usize, node: usize, src: usize, op: Op) -> OpWeights {
        self.hyper.ops[&(cell, node, src, op)]
    }
    fn head(&self) -> Head {
        self.hyper.heads[&self.plan.final_channels()]
    }
}

impl HyperNet {
    /// Allocates shared weights for every edge/op/shape of the skeleton.
    pub fn new(skeleton: NetworkSkeleton, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let stem = ConvBn::alloc(
            &mut store,
            skeleton.input_channels,
            skeleton.init_channels,
            3,
            &mut rng,
        );
        // Cell channel schedule and possible producer output widths.
        let mut c_cur = skeleton.init_channels;
        let mut cell_c = Vec::with_capacity(skeleton.num_cells);
        for idx in 0..skeleton.num_cells {
            if skeleton.is_reduction(idx) {
                c_cur *= 2;
            }
            cell_c.push(c_cur);
        }
        let possible_outputs = |cell: isize| -> Vec<usize> {
            if cell < 0 {
                vec![skeleton.init_channels]
            } else {
                (1..=INTERNAL_NODES)
                    .map(|a| a * cell_c[cell as usize])
                    .collect()
            }
        };
        let mut preps = HashMap::new();
        let mut ops = HashMap::new();
        for idx in 0..skeleton.num_cells {
            let c = cell_c[idx];
            for cin in possible_outputs(idx as isize - 2) {
                preps.insert(
                    (idx, 0usize, cin),
                    ConvBn::alloc(&mut store, cin, c, 1, &mut rng),
                );
            }
            for cin in possible_outputs(idx as isize - 1) {
                preps.insert(
                    (idx, 1usize, cin),
                    ConvBn::alloc(&mut store, cin, c, 1, &mut rng),
                );
            }
            for node in 2..NODES_PER_CELL {
                for src in 0..node {
                    for op in Op::ALL {
                        ops.insert(
                            (idx, node, src, op),
                            OpWeights::alloc(&mut store, op, c, &mut rng),
                        );
                    }
                }
            }
        }
        let mut heads = HashMap::new();
        let last = skeleton.num_cells as isize - 1;
        for c_last in possible_outputs(last) {
            heads.insert(
                c_last,
                Head {
                    w: store.add(Tensor::he_normal(
                        &[skeleton.num_classes, c_last],
                        c_last,
                        &mut rng,
                    )),
                    b: store.add(Tensor::zeros(&[skeleton.num_classes])),
                },
            );
        }
        HyperNet {
            skeleton,
            store,
            stem,
            preps,
            ops,
            heads,
            velocity: Vec::new(),
            scratch: Scratch::new(),
        }
    }

    /// The skeleton this HyperNet was built for.
    pub fn skeleton(&self) -> &NetworkSkeleton {
        &self.skeleton
    }

    /// Total shared parameters.
    pub fn param_count(&self) -> usize {
        self.store.total_elems()
    }

    /// The shared parameter store (read access for custom forward passes
    /// via [`HyperNet::provider`]).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Binds the HyperNet weights to a compiled plan.
    pub fn provider<'a>(&'a self, plan: &'a NetworkPlan) -> HyperProvider<'a> {
        HyperProvider { hyper: self, plan }
    }

    /// Validation accuracy of a genotype with *inherited* weights — a
    /// single test run, the paper's fast accuracy evaluation — on the
    /// tape-free [`infer_network`] walk, whose logits are bit-identical
    /// to the training tape's.
    pub fn evaluate_genotype(&self, genotype: &Genotype, split: &Split, batch_size: usize) -> f64 {
        let plan = self.skeleton.compile(genotype);
        let provider = self.provider(&plan);
        evaluate_with(split, batch_size, |images| {
            infer_network(&plan, &self.store, &provider, &images)
        })
    }

    /// Masked SGD step over the parameters `ids`: only those with
    /// non-zero gradients (the sampled path) receive momentum, decay and
    /// updates. The first step allocates a momentum buffer for every
    /// parameter, sampled or not.
    fn masked_sgd_step(&mut self, ids: &[ParamId], lr: f32, momentum: f32, weight_decay: f32) {
        let have = self.velocity.len();
        let missing = self.store.iter().skip(have);
        self.velocity
            .extend(missing.map(|(_, v)| Tensor::zeros(v.shape())));
        let velocity = &mut self.velocity;
        self.store.for_each_of_mut(ids, |i, value, grad| {
            if grad.sq_norm() == 0.0 {
                return;
            }
            let v = &mut velocity[i];
            for ((vv, g), w) in v.data_mut().iter_mut().zip(grad.data()).zip(value.data()) {
                *vv = momentum * *vv + g + weight_decay * w;
            }
            value.axpy_in_place(-lr, v);
        });
    }

    /// Trains the HyperNet with uniform path sampling; returns the
    /// per-epoch history (Fig. 5(a) data).
    ///
    /// A step's gradients can be non-zero only on its sampled path, the
    /// parameters on its tape ([`Graph::param_ids`]). So every gradient
    /// is zeroed once, and each step zeroes only the previous step's
    /// path, then clips and updates only its own: the same bits as
    /// zeroing, clipping and sweeping all of the HyperNet's weights.
    pub fn train(&mut self, data: &SynthCifar, cfg: &HyperTrainConfig) -> Vec<HyperEpochStat> {
        self.train_sweeping(data, cfg, Sweep::Path)
    }

    fn train_sweeping(
        &mut self,
        data: &SynthCifar,
        cfg: &HyperTrainConfig,
        sweep: Sweep,
    ) -> Vec<HyperEpochStat> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let steps_per_epoch = (data.train.len() / cfg.batch_size).max(1);
        let sched = CosineLr::new(cfg.lr_max, cfg.lr_min, cfg.epochs * steps_per_epoch);
        let mut history = Vec::with_capacity(cfg.epochs);
        let mut step = 0usize;
        // Biased baseline: one fixed path trained repeatedly.
        let fixed_path = Genotype::random(&mut rng);
        self.store.zero_grads();
        let mut path: Vec<ParamId> = Vec::new();
        for epoch in 0..cfg.epochs {
            let mut loss_sum = 0.0f64;
            let batches = data.train.epoch_batches(cfg.batch_size, &mut rng);
            let nb = batches.len().max(1);
            for idx in &batches {
                let genotype = if cfg.uniform_sampling {
                    Genotype::random(&mut rng)
                } else {
                    fixed_path
                };
                let plan = self.skeleton.compile(&genotype);
                let (images, labels) = if cfg.augment {
                    data.train.batch_augmented(idx, &mut rng)
                } else {
                    data.train.batch(idx)
                };
                let lr = sched.lr(step);
                step += 1;
                let mut g = Graph::with_scratch(std::mem::take(&mut self.scratch));
                let provider = HyperProvider {
                    hyper: self,
                    plan: &plan,
                };
                let logits = forward_network(&plan, &mut g, &self.store, &provider, images);
                let loss = g.softmax_cross_entropy(logits, &labels);
                loss_sum += g.value(loss).data()[0] as f64;
                path = match sweep {
                    Sweep::Path => {
                        self.store.zero_grads_of(&path);
                        g.param_ids()
                    }
                    #[cfg(test)]
                    Sweep::Full => {
                        self.store.zero_grads();
                        self.store.iter().map(|(id, _)| id).collect()
                    }
                };
                self.scratch = g.backward_scratch(loss, &mut self.store);
                self.store.clip_grad_norm_of(&path, cfg.grad_clip);
                self.masked_sgd_step(&path, lr, cfg.momentum, cfg.weight_decay);
            }
            let probe = Genotype::random(&mut rng);
            let sampled_val_acc = self.evaluate_genotype(&probe, &data.val, cfg.batch_size.max(32));
            history.push(HyperEpochStat {
                epoch,
                train_loss: loss_sum / nb as f64,
                sampled_val_acc,
            });
        }
        history
    }
}

/// Which parameters a HyperNet training step zeroes, clips and updates.
#[derive(Debug, Clone, Copy)]
enum Sweep {
    /// The sampled path: what [`HyperNet::train`] runs.
    Path,
    /// Every parameter, as training did before it swept only the path;
    /// kept to pin the path sweep bit for bit.
    #[cfg(test)]
    Full,
}

// Restore-by-reconstruct, like the controller: `HyperNet::new` allocates
// the same shape-indexed parameter layout for a given skeleton (its
// construction loops are deterministic; the seed only affects the
// initial values), so restore rebuilds the allocation maps from the
// stored skeleton and overwrites the trained weights and the momentum
// buffers. A snapshot whose parameter shapes disagree with the
// reconstructed layout, or whose momentum buffers are neither absent
// (never trained) nor one per parameter of its shape, is rejected as
// `Malformed`.
impl Snapshot for HyperNet {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.skeleton.snapshot(w);
        self.store.snapshot(w);
        w.put_usize(self.velocity.len());
        for v in &self.velocity {
            v.snapshot(w);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let skeleton = NetworkSkeleton::restore(r)?;
        let store = ParamStore::restore(r)?;
        let nv = r.take_usize()?;
        let velocity = (0..nv)
            .map(|_| Tensor::restore(r))
            .collect::<Result<Vec<_>, _>>()?;
        let mut hyper = HyperNet::new(skeleton, 0);
        if store.param_count() != hyper.store.param_count() {
            return Err(PersistError::Malformed(format!(
                "hypernet: snapshot has {} params, skeleton implies {}",
                store.param_count(),
                hyper.store.param_count()
            )));
        }
        for (id, value) in store.iter() {
            if value.shape() != hyper.store.value(id).shape() {
                return Err(PersistError::Malformed(format!(
                    "hypernet param {}: snapshot shape {:?} vs layout {:?}",
                    id.index(),
                    value.shape(),
                    hyper.store.value(id).shape()
                )));
            }
        }
        if !velocity.is_empty() && velocity.len() != store.param_count() {
            return Err(PersistError::Malformed(format!(
                "hypernet: snapshot has {} momentum buffers for {} params",
                velocity.len(),
                store.param_count()
            )));
        }
        for ((id, value), v) in store.iter().zip(&velocity) {
            if v.shape() != value.shape() {
                return Err(PersistError::Malformed(format!(
                    "hypernet momentum {}: shape {:?} vs param {:?}",
                    id.index(),
                    v.shape(),
                    value.shape()
                )));
            }
        }
        hyper.store = store;
        hyper.velocity = velocity;
        Ok(hyper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoso_dataset::SynthCifarConfig;

    fn tiny_data() -> SynthCifar {
        SynthCifar::generate(&SynthCifarConfig::tiny())
    }

    #[test]
    fn hypernet_covers_every_submodel_shape() {
        let hyper = HyperNet::new(NetworkSkeleton::tiny(), 0);
        let mut rng = StdRng::seed_from_u64(1);
        // Any random genotype must find weights for all its slots.
        for _ in 0..30 {
            let g = Genotype::random(&mut rng);
            let plan = hyper.skeleton.compile(&g);
            let provider = hyper.provider(&plan);
            for cell in &plan.cells {
                let _ = provider.prep(cell.index, 0);
                let _ = provider.prep(cell.index, 1);
            }
            let _ = provider.head();
        }
    }

    #[test]
    fn restored_hypernet_evaluates_bit_identically() {
        let data = tiny_data();
        let mut hyper = HyperNet::new(NetworkSkeleton::tiny(), 3);
        let cfg = HyperTrainConfig {
            epochs: 1,
            batch_size: 32,
            augment: false,
            ..Default::default()
        };
        hyper.train(&data, &cfg);
        let mut w = ByteWriter::new();
        hyper.snapshot(&mut w);
        let bytes = w.into_bytes();
        let back = HyperNet::restore(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.skeleton(), hyper.skeleton());
        assert_eq!(back.param_count(), hyper.param_count());
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..5 {
            let g = Genotype::random(&mut rng);
            let a = hyper.evaluate_genotype(&g, &data.val, 32);
            let b = back.evaluate_genotype(&g, &data.val, 32);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Truncated snapshot -> typed error.
        assert!(matches!(
            HyperNet::restore(&mut ByteReader::new(&bytes[..bytes.len() - 9])),
            Err(PersistError::Truncated { .. })
        ));
    }

    /// Snapshot bytes: weights and momentum buffers.
    fn snapshot_bytes(hyper: &HyperNet) -> Vec<u8> {
        let mut w = ByteWriter::new();
        hyper.snapshot(&mut w);
        w.into_bytes()
    }

    /// Zeroing, clipping and updating only the sampled path leaves the
    /// bits of every weight and momentum buffer that a sweep over all
    /// of them does, with and without augmentation and clipping.
    #[test]
    fn path_sweep_matches_full_sweep_bitwise() {
        let data = tiny_data();
        for (seed, augment, grad_clip) in [(5, true, 5.0), (6, false, 0.05)] {
            let cfg = HyperTrainConfig {
                epochs: 1,
                batch_size: 48,
                augment,
                grad_clip,
                seed,
                ..Default::default()
            };
            let mut path = HyperNet::new(NetworkSkeleton::tiny(), seed);
            let mut full = path.clone();
            path.train_sweeping(&data, &cfg, Sweep::Path);
            full.train_sweeping(&data, &cfg, Sweep::Full);
            assert_eq!(path.velocity.len(), path.store.param_count());
            assert!(
                snapshot_bytes(&path) == snapshot_bytes(&full),
                "seed {seed}"
            );
        }
    }

    /// A snapshot whose momentum buffers are neither absent nor one per
    /// parameter of its shape is refused, not restored to panic at the
    /// first training step.
    #[test]
    fn restore_rejects_malformed_momentum_buffers() {
        let hyper = HyperNet::new(NetworkSkeleton::tiny(), 1);
        let with_velocity = |velocity: &[Tensor]| {
            let mut w = ByteWriter::new();
            hyper.skeleton.snapshot(&mut w);
            hyper.store.snapshot(&mut w);
            w.put_usize(velocity.len());
            for v in velocity {
                v.snapshot(&mut w);
            }
            HyperNet::restore(&mut ByteReader::new(&w.into_bytes()))
        };
        let mut velocity: Vec<Tensor> = hyper
            .store
            .iter()
            .map(|(_, v)| Tensor::zeros(v.shape()))
            .collect();
        assert!(with_velocity(&[]).is_ok());
        assert!(with_velocity(&velocity).is_ok());
        assert!(matches!(
            with_velocity(&velocity[1..]),
            Err(PersistError::Malformed(_))
        ));
        let last = velocity.len() - 1;
        velocity[last] = Tensor::zeros(&[velocity[last].len() + 1]);
        assert!(matches!(
            with_velocity(&velocity),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn training_reduces_loss_and_improves_probe_accuracy() {
        let data = tiny_data();
        let mut hyper = HyperNet::new(NetworkSkeleton::tiny(), 0);
        let cfg = HyperTrainConfig {
            epochs: 12,
            batch_size: 32,
            augment: false,
            lr_max: 0.05,
            ..Default::default()
        };
        let hist = hyper.train(&data, &cfg);
        assert_eq!(hist.len(), 12);
        // Uniform path sampling trains each shared weight only
        // occasionally, so per-epoch loss is noisy: compare window means.
        let mean_loss =
            |s: &[HyperEpochStat]| s.iter().map(|h| h.train_loss).sum::<f64>() / s.len() as f64;
        assert!(
            mean_loss(&hist[9..]) < mean_loss(&hist[..3]),
            "loss did not decrease: {hist:?}"
        );
        // Inherited-weight sub-models beat chance (0.1) on average after
        // training; individual rarely-sampled paths can still be weak.
        // Average over enough genotypes that one weak rarely-sampled
        // path cannot drag the estimate below chance.
        let mut rng = StdRng::seed_from_u64(9);
        let mean_acc: f64 = (0..8)
            .map(|_| hyper.evaluate_genotype(&Genotype::random(&mut rng), &data.val, 64))
            .sum::<f64>()
            / 8.0;
        assert!(mean_acc > 0.11, "mean inherited accuracy {mean_acc}");
    }

    #[test]
    fn evaluation_does_not_mutate_weights() {
        let data = tiny_data();
        let hyper = HyperNet::new(NetworkSkeleton::tiny(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let g = Genotype::random(&mut rng);
        let a = hyper.evaluate_genotype(&g, &data.val, 64);
        let b = hyper.evaluate_genotype(&g, &data.val, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn different_genotypes_get_different_accuracy() {
        let data = tiny_data();
        let mut hyper = HyperNet::new(NetworkSkeleton::tiny(), 4);
        let cfg = HyperTrainConfig {
            epochs: 2,
            batch_size: 32,
            augment: false,
            ..Default::default()
        };
        hyper.train(&data, &cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let accs: Vec<f64> = (0..5)
            .map(|_| hyper.evaluate_genotype(&Genotype::random(&mut rng), &data.val, 64))
            .collect();
        let distinct = accs.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9);
        assert!(distinct, "all sub-models identical: {accs:?}");
    }

    #[test]
    fn param_count_much_larger_than_single_network() {
        let hyper = HyperNet::new(NetworkSkeleton::tiny(), 0);
        let mut rng = StdRng::seed_from_u64(6);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let single = yoso_nn::CellNetwork::new(plan, 0);
        assert!(hyper.param_count() > 5 * single.param_count());
    }
}
