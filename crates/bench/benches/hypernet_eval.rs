//! The HyperNet's one-shot evaluation claim: accuracy of a candidate at
//! the cost of a single validation pass with inherited weights, vs the
//! cost of standalone training (even a single epoch). `walk_small_batch128`
//! times the unit a search scores: one f32 inference walk of a `small`
//! candidate over a 128-image validation batch.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use yoso_arch::{Genotype, NetworkSkeleton};
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::{HyperNet, HyperTrainConfig};
use yoso_nn::{infer_network, CellNetwork, TrainConfig};

fn bench_hypernet(c: &mut Criterion) {
    let skeleton = NetworkSkeleton::tiny();
    let data = SynthCifar::generate(&SynthCifarConfig::tiny());
    let mut hyper = HyperNet::new(skeleton.clone(), 0);
    let cfg = HyperTrainConfig {
        epochs: 2,
        batch_size: 32,
        augment: false,
        ..Default::default()
    };
    hyper.train(&data, &cfg);
    let mut rng = StdRng::seed_from_u64(1);
    let genotypes: Vec<Genotype> = (0..8).map(|_| Genotype::random(&mut rng)).collect();

    c.bench_function("hypernet_inherited_eval", |b| {
        let mut i = 0;
        b.iter(|| {
            let g = &genotypes[i % 8];
            i += 1;
            black_box(hyper.evaluate_genotype(g, &data.val, 64))
        })
    });

    let small = NetworkSkeleton::small();
    let small_data = SynthCifar::generate(&SynthCifarConfig::small());
    let mut small_hyper = HyperNet::new(small.clone(), 0);
    small_hyper.train(
        &small_data,
        &HyperTrainConfig {
            epochs: 1,
            batch_size: 128,
            augment: false,
            ..Default::default()
        },
    );
    let idx: Vec<usize> = (0..128).collect();
    let (images, _) = small_data.val.batch(&idx);
    let plans: Vec<_> = genotypes.iter().map(|g| small.compile(g)).collect();
    c.bench_function("walk_small_batch128", |b| {
        let mut i = 0;
        b.iter(|| {
            let plan = &plans[i % 8];
            i += 1;
            let provider = small_hyper.provider(plan);
            black_box(infer_network(plan, small_hyper.store(), &provider, &images))
        })
    });

    c.bench_function("standalone_one_epoch_train", |b| {
        let mut i = 0;
        b.iter(|| {
            let g = &genotypes[i % 8];
            i += 1;
            let mut net = CellNetwork::new(skeleton.compile(g), 0);
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: 32,
                augment: false,
                ..Default::default()
            };
            black_box(net.train(&data, &cfg).final_val_acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hypernet
}
criterion_main!(benches);
