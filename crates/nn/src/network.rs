//! Standalone trainable network for a fixed genotype, with the SGD +
//! cosine-decay training loop used for final candidate evaluation
//! (paper step 3 / Fig. 5(b) ground truth).

use crate::forward::forward_network;
use crate::infer::infer_network;
use crate::weights::{ConvBn, Head, OpWeights, WeightProvider};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use yoso_arch::{NetworkPlan, Op};
use yoso_dataset::{Split, SynthCifar};
use yoso_tensor::{accuracy, CosineLr, Graph, ParamStore, Sgd, Tensor};

/// Weight catalogue for one fixed genotype.
#[derive(Debug, Clone)]
pub struct StandaloneProvider {
    stem: ConvBn,
    preps: Vec<[ConvBn; 2]>,
    ops: HashMap<(usize, usize, usize, Op), OpWeights>,
    head: Head,
}

impl WeightProvider for StandaloneProvider {
    fn stem(&self) -> ConvBn {
        self.stem
    }
    fn prep(&self, cell: usize, which: usize) -> ConvBn {
        self.preps[cell][which]
    }
    fn op(&self, cell: usize, node: usize, src: usize, op: Op) -> OpWeights {
        self.ops[&(cell, node, src, op)]
    }
    fn head(&self) -> Head {
        self.head
    }
}

/// Training hyper-parameters (defaults mirror the paper's recipe scaled to
/// CPU: SGD momentum 0.9, L2 4e-5, cosine LR 0.05 → 0.0001).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr_max: f32,
    /// Final learning rate.
    pub lr_min: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Gradient-norm clip.
    pub grad_clip: f32,
    /// Apply random-crop/flip augmentation.
    pub augment: bool,
    /// Shuffling/augmentation seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 64,
            lr_max: 0.05,
            lr_min: 0.0001,
            momentum: 0.9,
            weight_decay: 4e-5,
            grad_clip: 5.0,
            augment: true,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast_test() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 32,
            lr_max: 0.1,
            augment: false,
            ..Default::default()
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStat {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f64,
    /// Mean training accuracy.
    pub train_acc: f64,
    /// Validation accuracy after the epoch.
    pub val_acc: f64,
}

/// Full training record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainHistory {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStat>,
    /// Final validation accuracy.
    pub final_val_acc: f64,
    /// Final test accuracy.
    pub final_test_acc: f64,
}

/// A trainable network instantiating one genotype.
#[derive(Debug, Clone)]
pub struct CellNetwork {
    plan: NetworkPlan,
    store: ParamStore,
    provider: StandaloneProvider,
}

impl CellNetwork {
    /// Allocates weights for the plan's genotype.
    pub fn new(plan: NetworkPlan, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let sk = &plan.skeleton;
        let stem = ConvBn::alloc(&mut store, sk.input_channels, sk.init_channels, 3, &mut rng);
        let mut preps = Vec::with_capacity(plan.cells.len());
        let mut ops = HashMap::new();
        for cell in &plan.cells {
            preps.push([
                ConvBn::alloc(&mut store, cell.c_in0, cell.c, 1, &mut rng),
                ConvBn::alloc(&mut store, cell.c_in1, cell.c, 1, &mut rng),
            ]);
            for (ni, gene) in cell.genotype.nodes.iter().enumerate() {
                let node = ni + 2;
                for (src, op) in [(gene.in1, gene.op1), (gene.in2, gene.op2)] {
                    ops.entry((cell.index, node, src, op))
                        .or_insert_with(|| OpWeights::alloc(&mut store, op, cell.c, &mut rng));
                }
            }
        }
        let c_last = plan.final_channels();
        let head = Head {
            w: store.add(Tensor::he_normal(
                &[sk.num_classes, c_last],
                c_last,
                &mut rng,
            )),
            b: store.add(Tensor::zeros(&[sk.num_classes])),
        };
        let provider = StandaloneProvider {
            stem,
            preps,
            ops,
            head,
        };
        CellNetwork {
            plan,
            store,
            provider,
        }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &NetworkPlan {
        &self.plan
    }

    /// The parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The weight provider.
    pub fn provider(&self) -> &StandaloneProvider {
        &self.provider
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.store.total_elems()
    }

    /// Computes logits for a batch of images on the tape-free
    /// [`infer_network`] walk.
    pub fn logits(&self, images: Tensor) -> Tensor {
        infer_network(&self.plan, &self.store, &self.provider, &images)
    }

    /// Accuracy over an entire split (BN uses per-batch statistics, the
    /// one-shot-NAS convention; use a batch size ≥ 32 for stable results).
    pub fn evaluate(&self, split: &Split, batch_size: usize) -> f64 {
        evaluate_with(split, batch_size, |images| self.logits(images))
    }

    /// Trains in place and returns the history.
    pub fn train(&mut self, data: &SynthCifar, cfg: &TrainConfig) -> TrainHistory {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut opt = Sgd::new(cfg.lr_max, cfg.momentum, cfg.weight_decay);
        let steps_per_epoch = (data.train.len() / cfg.batch_size).max(1);
        let sched = CosineLr::new(cfg.lr_max, cfg.lr_min, cfg.epochs * steps_per_epoch);
        let mut history = TrainHistory::default();
        let mut step = 0usize;
        for epoch in 0..cfg.epochs {
            let mut loss_sum = 0.0f64;
            let mut acc_sum = 0.0f64;
            let batches = data.train.epoch_batches(cfg.batch_size, &mut rng);
            let nb = batches.len().max(1);
            for idx in &batches {
                let (images, labels) = if cfg.augment {
                    data.train.batch_augmented(idx, &mut rng)
                } else {
                    data.train.batch(idx)
                };
                opt.lr = sched.lr(step);
                step += 1;
                let mut g = Graph::new();
                let logits =
                    forward_network(&self.plan, &mut g, &self.store, &self.provider, images);
                let loss = g.softmax_cross_entropy(logits, &labels);
                loss_sum += g.value(loss).data()[0] as f64;
                acc_sum += accuracy(g.value(logits), &labels);
                self.store.zero_grads();
                g.backward(loss, &mut self.store);
                self.store.clip_grad_norm(cfg.grad_clip);
                opt.step(&mut self.store);
            }
            let val_acc = self.evaluate(&data.val, cfg.batch_size.max(32));
            history.epochs.push(EpochStat {
                epoch,
                train_loss: loss_sum / nb as f64,
                train_acc: acc_sum / nb as f64,
                val_acc,
            });
        }
        history.final_val_acc = history.epochs.last().map_or(0.0, |e| e.val_acc);
        history.final_test_acc = self.evaluate(&data.test, cfg.batch_size.max(32));
        history
    }
}

/// Shared evaluation loop: runs `logits_fn` over the split in fixed-size
/// batches and averages accuracy (weighted by batch size).
pub fn evaluate_with(
    split: &Split,
    batch_size: usize,
    mut logits_fn: impl FnMut(Tensor) -> Tensor,
) -> f64 {
    let n = split.len();
    if n == 0 {
        return 0.0;
    }
    let bs = batch_size.max(1);
    let mut correct_weighted = 0.0;
    let mut total = 0usize;
    let mut i = 0;
    while i < n {
        let end = (i + bs).min(n);
        let idx: Vec<usize> = (i..end).collect();
        let (images, labels) = split.batch(&idx);
        let logits = logits_fn(images);
        correct_weighted += accuracy(&logits, &labels) * idx.len() as f64;
        total += idx.len();
        i = end;
    }
    correct_weighted / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoso_arch::{Genotype, NetworkSkeleton};
    use yoso_dataset::SynthCifarConfig;

    #[test]
    fn network_trains_above_chance() {
        let mut rng = StdRng::seed_from_u64(0);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let data = SynthCifar::generate(&SynthCifarConfig::tiny());
        let mut net = CellNetwork::new(plan, 0);
        let hist = net.train(&data, &TrainConfig::fast_test());
        assert_eq!(hist.epochs.len(), 3);
        // 10 classes => chance is 0.1; a trained net must beat it clearly.
        assert!(
            hist.final_val_acc > 0.25,
            "val acc {} too low",
            hist.final_val_acc
        );
        // Loss decreased over training.
        assert!(hist.epochs.last().unwrap().train_loss < hist.epochs[0].train_loss);
    }

    #[test]
    fn param_count_scales_with_genotype() {
        let mut rng = StdRng::seed_from_u64(1);
        let sk = NetworkSkeleton::tiny();
        let a = CellNetwork::new(sk.compile(&Genotype::random(&mut rng)), 0);
        assert!(a.param_count() > 1000);
    }

    #[test]
    fn logits_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let net = CellNetwork::new(plan, 3);
        let x = Tensor::randn(&[4, 3, 8, 8], 1.0, &mut rng);
        assert_eq!(net.logits(x.clone()).data(), net.logits(x).data());
    }

    #[test]
    fn evaluate_empty_split_is_zero() {
        let data = SynthCifar::generate(&SynthCifarConfig::tiny());
        let mut rng = StdRng::seed_from_u64(4);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let net = CellNetwork::new(plan, 0);
        // Evaluate on a small batch size to exercise the batching loop.
        let acc = net.evaluate(&data.val, 17);
        assert!((0.0..=1.0).contains(&acc));
    }
}
