//! Pins the int8 scoring pass's logits bit for bit. Int8 accuracies feed
//! the accuracy cache, checkpoints and `search_iter` streams of an int8
//! search, so a change to the int8 lowering must not move a single bit.
//!
//! The digest depends on the host build's f32 GEMM rounding (the
//! classifier head and HyperNet training run in f32), so it lives in the
//! root suite, which builds for the host ISA, and not in the
//! forced-scalar leg.

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoso::arch::{Genotype, NetworkSkeleton};
use yoso::dataset::{SynthCifar, SynthCifarConfig};
use yoso::hypernet::{HyperNet, HyperTrainConfig};
use yoso::nn::{infer_network, ScoringPrecision};
use yoso::persist::{fnv1a, ByteWriter};
use yoso::tensor::Tensor;

/// Genotypes drawn per (skeleton, batch size) pair.
const GENOTYPES: usize = 3;

/// Int8 logits of `genotype` on `images` with the HyperNet's inherited
/// weights.
fn int8_logits(hyper: &HyperNet, genotype: &Genotype, images: &Tensor) -> Tensor {
    let plan = hyper.skeleton().compile(genotype);
    let provider = hyper.provider(&plan);
    infer_network(
        &plan,
        hyper.store(),
        &provider,
        images,
        ScoringPrecision::Int8,
    )
}

/// Digest of the int8 logits of seeded genotypes on a briefly trained
/// HyperNet, over the `tiny` and `small` skeletons and validation
/// batches of 1, 7 and 128 SynthCifar images. The constant was taken from
/// the int8 path's own network walk (`QuantizedNetwork`), before int8
/// became a conv lowering of the shared inference walk.
#[test]
fn int8_logits_match_pinned_digest() {
    let cases = [
        (NetworkSkeleton::tiny(), SynthCifarConfig::tiny()),
        (NetworkSkeleton::small(), SynthCifarConfig::small()),
    ];
    let mut rng = StdRng::seed_from_u64(0x1e78);
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
                let logits = int8_logits(&hyper, &Genotype::random(&mut rng), &images);
                assert_eq!(logits.shape(), &[batch, 10]);
                assert!(logits.all_finite());
                w.put_f32s(logits.data());
            }
        }
    }
    let digest = fnv1a(&w.into_bytes());
    assert_eq!(
        digest, 0xd584_ec54_2ae2_056c,
        "int8 logits changed (digest {digest:#018x})"
    );
}
