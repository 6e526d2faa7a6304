//! The tape-free inference walk returns the training tape's logits bit
//! for bit: same kernels, same op order, same ReLU / add / pooling
//! semantics. Accuracy caches and `search_iter` streams rest on this.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use yoso_arch::{Genotype, NetworkSkeleton};
use yoso_nn::{forward_network, infer_network, CellNetwork};
use yoso_tensor::{Graph, ParamStore, Tensor};

/// Genotypes drawn per (skeleton, batch size) pair.
const GENOTYPES: usize = 4;

/// Standard-normal images with about one value in eight replaced by
/// `-0.0` and one in eight by a large negative value, so ReLU inputs,
/// padding borders and BN statistics see signed zeros and outliers.
fn salted_input(n: usize, sk: &NetworkSkeleton, rng: &mut StdRng) -> Tensor {
    let shape = [n, sk.input_channels, sk.input_hw, sk.input_hw];
    let mut x = Tensor::randn(&shape, 1.0, rng);
    for v in x.data_mut() {
        match rng.random_range(0..8u32) {
            0 => *v = -0.0,
            1 => *v = -rng.random_range(1e3f32..1e6),
            _ => {}
        }
    }
    x
}

/// Every 1-D parameter (BN scales and shifts, the head bias) set to
/// random values, so BN is not the identity affine map of a fresh net.
fn perturbed_store(net: &CellNetwork, rng: &mut StdRng) -> ParamStore {
    let mut store = net.store().clone();
    store.for_each_mut(|_, value, _| {
        if value.ndim() == 1 {
            for v in value.data_mut() {
                *v = rng.random_range(-1.5f32..1.5);
            }
        }
    });
    store
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn infer_network_matches_forward_network_bit_for_bit() {
    let skeletons = [
        ("tiny", NetworkSkeleton::tiny()),
        ("small", NetworkSkeleton::small()),
        ("paper_default", NetworkSkeleton::paper_default()),
    ];
    let mut rng = StdRng::seed_from_u64(0x1f_b175);
    for (name, sk) in &skeletons {
        for batch in [1usize, 7, 128] {
            for trial in 0..GENOTYPES {
                let genotype = Genotype::random(&mut rng);
                let plan = sk.compile(&genotype);
                let net = CellNetwork::new(plan.clone(), trial as u64);
                let store = perturbed_store(&net, &mut rng);
                let input = salted_input(batch, sk, &mut rng);

                let walked = infer_network(&plan, &store, net.provider(), &input);
                let mut g = Graph::new();
                let logits = forward_network(&plan, &mut g, &store, net.provider(), input);
                let taped = g.value(logits);

                assert_eq!(walked.shape(), taped.shape());
                assert!(
                    walked.all_finite(),
                    "{name}, batch {batch}: salting made the logits non-finite"
                );
                assert_eq!(
                    bits(&walked),
                    bits(taped),
                    "{name}, batch {batch}, genotype {genotype:?}: logits differ"
                );
            }
        }
    }
}

/// `CellNetwork::logits` runs the walk, so it too equals the tape.
#[test]
fn cell_network_logits_match_the_tape() {
    let mut rng = StdRng::seed_from_u64(5);
    let sk = NetworkSkeleton::tiny();
    let plan = sk.compile(&Genotype::random(&mut rng));
    let net = CellNetwork::new(plan.clone(), 9);
    let input = salted_input(16, &sk, &mut rng);
    let mut g = Graph::new();
    let logits = forward_network(&plan, &mut g, net.store(), net.provider(), input.clone());
    assert_eq!(bits(&net.logits(input)), bits(g.value(logits)));
}
