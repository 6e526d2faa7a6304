//! Pins the controller's numerics bit for bit: rollouts, update
//! statistics and the final weights over 25 sample-then-update rounds on
//! the paper's 44-step action space.

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoso_arch::ActionSpace;
use yoso_controller::{Controller, ControllerConfig, Rollout};
use yoso_persist::{ByteWriter, Snapshot};

/// Digest of 25 rounds of `sample_batch(rng, 10)` then `update` on that
/// batch, as a search session runs them. The constant was taken from the
/// rollout-at-a-time controller (ten `sample` calls per round, a replayed
/// forward pass per rollout in `update`), so it also holds the lockstep
/// pass, its records and its gradient order to that controller's bits.
#[test]
fn sample_and_update_numerics_match_pinned_digest() {
    let space = ActionSpace::new();
    let mut cfg = ControllerConfig::paper_default(space.vocab_sizes().to_vec());
    cfg.seed = 17;
    let mut ctrl = Controller::new(cfg);
    let mut rng = StdRng::seed_from_u64(0xD16E57);
    let mut w = ByteWriter::new();
    for _ in 0..25 {
        let batch: Vec<(Rollout, f64)> = ctrl
            .sample_batch(&mut rng, 10)
            .into_iter()
            .map(|r| {
                for &a in &r.actions {
                    w.put_u64(a as u64);
                }
                w.put_u64(r.log_prob.to_bits());
                w.put_u64(r.entropy.to_bits());
                let reward = r
                    .actions
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| ((i % 5) as f64 - 2.0) * a as f64)
                    .sum::<f64>()
                    / 50.0;
                (r, reward)
            })
            .collect();
        let stats = ctrl.update(&batch);
        w.put_u64(stats.mean_reward.to_bits());
        w.put_u64(stats.baseline.to_bits());
        w.put_u64(stats.grad_norm.to_bits() as u64);
        w.put_u64(stats.mean_entropy.to_bits());
    }
    ctrl.snapshot(&mut w);
    let digest = yoso_persist::fnv1a(&w.into_bytes());
    assert_eq!(
        digest, 0x5554_5f77_a564_b63a,
        "controller numerics changed (digest {digest:#018x})"
    );
}
