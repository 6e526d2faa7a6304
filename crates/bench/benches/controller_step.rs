//! RL controller throughput: rollout sampling and REINFORCE updates over
//! the 44-step YOSO action space (LSTM-120, as in the paper).
//!
//! The batched cases time both ways `update` can run: on a batch sampled
//! under the current weights it backpropagates through the rollouts' own
//! records, and on a stale batch it first replays the forward pass.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use yoso_arch::ActionSpace;
use yoso_controller::{Controller, ControllerConfig, Rollout};

/// Rollouts per update, as `fig6_search` runs the paper's search.
const BATCH: usize = 10;

fn rewarded(rollouts: Vec<Rollout>) -> Vec<(Rollout, f64)> {
    rollouts
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, i as f64 / BATCH as f64))
        .collect()
}

fn bench_controller(c: &mut Criterion) {
    let space = ActionSpace::new();
    let cfg = ControllerConfig::paper_default(space.vocab_sizes().to_vec());
    let controller = Controller::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(0);

    c.bench_function("controller_sample", |b| {
        b.iter(|| black_box(controller.sample(&mut rng).actions[0]))
    });

    // What a search session does per batch: sample, then learn from the
    // same rollouts through their records.
    c.bench_function("controller_sample_batch10_update", |b| {
        let mut ctrl = Controller::new(cfg.clone());
        b.iter(|| {
            let batch = rewarded(ctrl.sample_batch(&mut rng, BATCH));
            black_box(ctrl.update(&batch).mean_reward)
        })
    });

    // A batch whose records predate the weights: every update replays it.
    c.bench_function("controller_update_stale_batch10", |b| {
        let mut ctrl = Controller::new(cfg.clone());
        let stale = rewarded(ctrl.sample_batch(&mut rng, BATCH));
        ctrl.update(&stale);
        b.iter(|| black_box(ctrl.update(&stale).mean_reward))
    });

    c.bench_function("decode_actions", |b| {
        let rollout = controller.sample(&mut rng);
        b.iter(|| black_box(space.decode(&rollout.actions).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_controller
}
criterion_main!(benches);
