//! Pins HyperNet training bit for bit: every weight and momentum buffer
//! after a short training run. `f32_logit_digest` sees the weights only
//! through sampled logits, and trains at batch 128 without augmentation;
//! this digest covers the whole snapshot, at the batch `paper_search`
//! trains with (32, which ends the 8-channel 3×3 convs' runs of samples
//! in a shorter tail run), with augmentation on.
//!
//! Like `f32_logit_digest`, it depends on the host build's f32 rounding
//! (the GEMM microkernel fuses multiply-adds where the build has FMA), so
//! it lives in the root suite and not in the forced-scalar leg; there,
//! `yoso-hypernet`'s own tests pin the sampled-path step against a full
//! sweep instead.

use yoso::arch::NetworkSkeleton;
use yoso::dataset::{SynthCifar, SynthCifarConfig};
use yoso::hypernet::{HyperNet, HyperTrainConfig};
use yoso::persist::{fnv1a, ByteWriter, Snapshot};

/// Digest of the `small` HyperNet's snapshot after 2 epochs at batch 32
/// over 256 augmented 12×12 SynthCifar images (16 steps). The constant
/// was taken with per-sample conv lowering, per-element window backward
/// loops and a full sweep of every gradient each step, before the tape
/// convs ran on runs of samples.
#[test]
fn trained_hypernet_matches_pinned_digest() {
    let data = SynthCifar::generate(&SynthCifarConfig {
        train_count: 256,
        ..SynthCifarConfig::small()
    });
    let mut hyper = HyperNet::new(NetworkSkeleton::small(), 23);
    let history = hyper.train(
        &data,
        &HyperTrainConfig {
            epochs: 2,
            batch_size: 32,
            augment: true,
            seed: 23,
            ..Default::default()
        },
    );
    assert_eq!(history.len(), 2);
    let mut w = ByteWriter::new();
    hyper.snapshot(&mut w);
    let digest = fnv1a(&w.into_bytes());
    assert_eq!(
        digest, 0x4549_3222_e92e_efa4,
        "trained HyperNet changed (digest {digest:#018x})"
    );
}
