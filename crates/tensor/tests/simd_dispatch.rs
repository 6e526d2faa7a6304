//! Bit-exactness contracts of the runtime-dispatched kernels: the SIMD
//! tiers and the threaded NC-panel path must be *identical* to their
//! scalar / single-threaded counterparts, not merely close.
//!
//! These tests mutate process-global dispatch state (`set_simd_tier`,
//! `set_matmul_threads`), so every stateful check lives in one `#[test]`
//! body per global, restores the default on exit, and tolerates the
//! sibling property tests in this directory (they run in a separate test
//! binary and never force a tier).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;
use yoso_tensor::matmul::sgemm;
use yoso_tensor::{set_matmul_threads, set_simd_tier, SimdTier};

/// Serializes the tests that force dispatch globals; cargo runs `#[test]`
/// fns of one binary on concurrent threads.
static GLOBAL_DISPATCH: Mutex<()> = Mutex::new(());

fn random_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
}

/// Small-integer matrices: every product and partial sum is exactly
/// representable in f32, so FMA contraction (no intermediate rounding)
/// and separate mul+add agree bit for bit and any summation *grouping*
/// is exact — differences between kernels can only come from bugs.
fn integer_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| rng.random_range(-8i32..=8) as f32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The auto-detected SIMD tier computes bit-identical results to the
    /// forced-scalar packed kernel on exactly representable inputs,
    /// across shapes straddling the MR=8 / NR=16 / KC=128 tile edges.
    #[test]
    fn simd_tiers_bit_exact_on_integer_inputs(
        seed in 0u64..1000,
        m in 1usize..24,
        k in 1usize..150,
        n in 1usize..40,
    ) {
        let _g = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = StdRng::seed_from_u64(seed);
        let a = integer_vec(m * k, &mut rng);
        let b = integer_vec(k * n, &mut rng);
        let mut auto = vec![0.0f32; m * n];
        let mut scalar = vec![0.0f32; m * n];
        set_simd_tier(None);
        sgemm(m, k, n, &a, &b, &mut auto);
        set_simd_tier(Some(SimdTier::Scalar));
        sgemm(m, k, n, &a, &b, &mut scalar);
        set_simd_tier(None);
        for (i, (x, y)) in auto.iter().zip(&scalar).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "c[{}]: simd {} != scalar {}", i, x, y
            );
        }
    }
}

/// One GEMM, every thread count: the fixed NC-panel task grid assigns
/// each output column to exactly one task regardless of worker count, so
/// results are bit-identical at 1, 2, 4 and 8 threads — on arbitrary
/// (not just exactly representable) floats.
#[test]
fn threaded_sgemm_bit_exact_across_thread_counts() {
    let _g = GLOBAL_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(99);
    // Wide enough (n > NC = 256) to actually split into several panels.
    let (m, k, n) = (17, 130, 700);
    let a = random_vec(m * k, &mut rng);
    let b = random_vec(k * n, &mut rng);
    let mut reference = vec![0.0f32; m * n];
    set_matmul_threads(1);
    sgemm(m, k, n, &a, &b, &mut reference);
    for threads in [2usize, 4, 8] {
        let mut c = vec![0.0f32; m * n];
        set_matmul_threads(threads);
        sgemm(m, k, n, &a, &b, &mut c);
        for (i, (x, y)) in c.iter().zip(&reference).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "c[{i}] differs at {threads} threads: {x} vs {y}"
            );
        }
    }
    set_matmul_threads(0);
}
