//! Property tests pinning the packed register-tiled SGEMM to the
//! reference blocked kernel: the optimized path must stay within 1e-4
//! relative tolerance on arbitrary float inputs and shapes, including
//! the transposed-operand entry points the conv backward pass uses.
//!
//! The oracle is `sgemm_reference`, called directly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use yoso_tensor::matmul::{sgemm, sgemm_a_bt_acc, sgemm_at_b_acc, sgemm_reference};

fn random_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
}

fn transpose(rows: usize, cols: usize, m: &[f32]) -> Vec<f32> {
    let mut t = vec![0.0f32; m.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = m[r * cols + c];
        }
    }
    t
}

fn assert_close(got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
            "c[{i}]: packed {g} vs reference {w}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Packed `sgemm` matches the reference kernel on shapes straddling
    /// every tile boundary (m, n around MR=8 / NR=16 multiples, k
    /// around the KC=128 depth block).
    #[test]
    fn packed_sgemm_matches_reference(
        seed in 0u64..1000,
        m in 1usize..40,
        k in 1usize..200,
        n in 1usize..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        sgemm(m, k, n, &a, &b, &mut got);
        sgemm_reference(m, k, n, &a, &b, &mut want);
        assert_close(&got, &want)?;
    }

    /// `c += a^T b` entry point (weight-gradient GEMM) against an
    /// explicit transpose fed to the reference kernel.
    #[test]
    fn packed_at_b_matches_reference(
        seed in 0u64..1000,
        m in 1usize..24,
        k in 1usize..64,
        n in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = random_vec(k * m, &mut rng); // stored k x m
        let b = random_vec(k * n, &mut rng);
        let init = random_vec(m * n, &mut rng);
        let mut got = init.clone();
        sgemm_at_b_acc(m, k, n, &at, &b, &mut got);
        let a = transpose(k, m, &at);
        let mut want = vec![0.0f32; m * n];
        sgemm_reference(m, k, n, &a, &b, &mut want);
        for (w, i) in want.iter_mut().zip(&init) {
            *w += i;
        }
        assert_close(&got, &want)?;
    }

    /// `c += a b^T` entry point (input-gradient GEMM) against an
    /// explicit transpose fed to the reference kernel.
    #[test]
    fn packed_a_bt_matches_reference(
        seed in 0u64..1000,
        m in 1usize..24,
        k in 1usize..64,
        n in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(m * k, &mut rng);
        let bt = random_vec(n * k, &mut rng); // stored n x k
        let init = random_vec(m * n, &mut rng);
        let mut got = init.clone();
        sgemm_a_bt_acc(m, k, n, &a, &bt, &mut got);
        let b = transpose(n, k, &bt);
        let mut want = vec![0.0f32; m * n];
        sgemm_reference(m, k, n, &a, &b, &mut want);
        for (w, i) in want.iter_mut().zip(&init) {
            *w += i;
        }
        assert_close(&got, &want)?;
    }
}
