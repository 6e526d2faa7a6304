//! Pins the f32 scoring pass's logits bit for bit. F32 accuracies feed
//! the accuracy cache, checkpoints and `search_iter` streams of every
//! default search, so a change to a conv, depthwise or pooling kernel
//! must not move a single bit. `infer_bit_identity` compares the walk
//! with the training tape, and both run the same kernels, so it cannot
//! see a kernel change that moves both alike; this digest can.
//!
//! The digest depends on the host build's f32 rounding (the GEMM
//! microkernel fuses multiply-adds where the build has FMA, and HyperNet
//! training runs the same kernels), so it lives in the root suite, which
//! builds for the host ISA, and not in the forced-scalar leg, which has
//! no FMA.

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoso::arch::{Genotype, NetworkSkeleton};
use yoso::dataset::{SynthCifar, SynthCifarConfig};
use yoso::hypernet::{HyperNet, HyperTrainConfig};
use yoso::nn::infer_network;
use yoso::persist::{fnv1a, ByteWriter};
use yoso::tensor::Tensor;

/// Genotypes drawn per (skeleton, batch size) pair.
const GENOTYPES: usize = 3;

/// F32 logits of `genotype` on `images` with the HyperNet's inherited
/// weights.
fn f32_logits(hyper: &HyperNet, genotype: &Genotype, images: &Tensor) -> Tensor {
    let plan = hyper.skeleton().compile(genotype);
    let provider = hyper.provider(&plan);
    infer_network(&plan, hyper.store(), &provider, images)
}

/// Digest of the f32 logits of seeded genotypes on a briefly trained
/// HyperNet, over the `tiny` and `small` skeletons and validation
/// batches of 1, 7 and 128 SynthCifar images. The constant was taken
/// with the per-sample im2col conv and the per-row window kernels,
/// before convs lowered runs of samples into one GEMM.
#[test]
fn f32_logits_match_pinned_digest() {
    let cases = [
        (NetworkSkeleton::tiny(), SynthCifarConfig::tiny()),
        (NetworkSkeleton::small(), SynthCifarConfig::small()),
    ];
    let mut rng = StdRng::seed_from_u64(0xf32d);
    let mut w = ByteWriter::new();
    for (seed, (sk, data_cfg)) in cases.into_iter().enumerate() {
        let data = SynthCifar::generate(&data_cfg);
        let mut hyper = HyperNet::new(sk, seed as u64);
        hyper.train(
            &data,
            &HyperTrainConfig {
                epochs: 1,
                batch_size: 128,
                augment: false,
                seed: seed as u64,
                ..Default::default()
            },
        );
        for batch in [1usize, 7, 128] {
            let idx: Vec<usize> = (0..batch).collect();
            let (images, _) = data.val.batch(&idx);
            for _ in 0..GENOTYPES {
                let logits = f32_logits(&hyper, &Genotype::random(&mut rng), &images);
                assert_eq!(logits.shape(), &[batch, 10]);
                assert!(logits.all_finite());
                w.put_f32s(logits.data());
            }
        }
    }
    let digest = fnv1a(&w.into_bytes());
    assert_eq!(
        digest, 0xce9a_211b_27a1_ad86,
        "f32 logits changed (digest {digest:#018x})"
    );
}
