//! Explicit x86-64 SIMD microkernels behind runtime feature detection.
//!
//! Everything here is selected at runtime (`is_x86_feature_detected!`,
//! probed once by [`crate::matmul::simd_tier`]), never at compile
//! time, so a generic build still runs the fast path on capable
//! hardware. The whole module is compiled out on non-x86-64 targets and
//! under `--cfg yoso_force_scalar` (the portable CI leg); callers fall
//! back to the scalar kernel, which produces identical results for
//! every workload the tests pin down (exact-representable f32 inputs).
//!
//! This is the only module in the crate allowed to use `unsafe`; the
//! crate root carries `#![deny(unsafe_code)]` and each function states
//! the contract its callers uphold.
#![allow(unsafe_code)]

use crate::matmul::{MR, NR};
use core::arch::x86_64::*;

/// `MR x NR` f32 microkernel on 512-bit AVX-512F: `acc += A_tile * B`,
/// where `a` is packed `p`-major (`MR` floats per depth step) and `b`
/// holds `kc` depth steps of at least `NR` columns at stride `b_stride`.
/// With `NR = 16` each accumulator row is exactly one zmm register, so
/// the tile is `MR = 8` independent FMA chains — enough to keep both
/// FMA ports busy past their latency.
///
/// Rounding matches the scalar kernel built with hardware FMA exactly
/// (one rounding per multiply-add, identical accumulation order).
///
/// # Safety
///
/// The caller must ensure:
/// - the CPU supports AVX-512F (runtime-detected);
/// - `a.len() >= kc * MR`;
/// - `kc == 0` or `b.len() >= (kc - 1) * b_stride + NR`.
#[target_feature(enable = "avx512f")]
pub unsafe fn microkernel_f32_avx512(
    kc: usize,
    a: &[f32],
    b: &[f32],
    b_stride: usize,
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(kc == 0 || b.len() >= (kc - 1) * b_stride + NR);
    unsafe {
        let mut c: [__m512; MR] = [_mm512_setzero_ps(); MR];
        for (r, row) in acc.iter().enumerate() {
            c[r] = _mm512_loadu_ps(row.as_ptr());
        }
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for p in 0..kc {
            let bv = _mm512_loadu_ps(bp.add(p * b_stride));
            let arow = ap.add(p * MR);
            for (r, cr) in c.iter_mut().enumerate() {
                *cr = _mm512_fmadd_ps(_mm512_set1_ps(*arow.add(r)), bv, *cr);
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            _mm512_storeu_ps(row.as_mut_ptr(), c[r]);
        }
    }
}

/// `MR x NR` f32 microkernel on 256-bit AVX2 + FMA. The 8 x 16 tile
/// needs 16 ymm accumulators — the whole register file — so it is
/// processed as two 4-row half-tiles (8 accumulators + 2 B loads + 1
/// broadcast each), re-streaming the `KC x NR` B panel once per half
/// from L1.
///
/// Rounding matches the scalar kernel built with hardware FMA exactly.
///
/// # Safety
///
/// The caller must ensure:
/// - the CPU supports AVX2 and FMA (runtime-detected);
/// - `a.len() >= kc * MR`;
/// - `kc == 0` or `b.len() >= (kc - 1) * b_stride + NR`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn microkernel_f32_avx2fma(
    kc: usize,
    a: &[f32],
    b: &[f32],
    b_stride: usize,
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(kc == 0 || b.len() >= (kc - 1) * b_stride + NR);
    unsafe {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for half in 0..2 {
            let r0 = half * (MR / 2);
            let mut c: [[__m256; 2]; MR / 2] = [[_mm256_setzero_ps(); 2]; MR / 2];
            for (r, cr) in c.iter_mut().enumerate() {
                cr[0] = _mm256_loadu_ps(acc[r0 + r].as_ptr());
                cr[1] = _mm256_loadu_ps(acc[r0 + r].as_ptr().add(8));
            }
            for p in 0..kc {
                let brow = bp.add(p * b_stride);
                let b0 = _mm256_loadu_ps(brow);
                let b1 = _mm256_loadu_ps(brow.add(8));
                let arow = ap.add(p * MR + r0);
                for (r, cr) in c.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*arow.add(r));
                    cr[0] = _mm256_fmadd_ps(av, b0, cr[0]);
                    cr[1] = _mm256_fmadd_ps(av, b1, cr[1]);
                }
            }
            for (r, cr) in c.iter().enumerate() {
                _mm256_storeu_ps(acc[r0 + r].as_mut_ptr(), cr[0]);
                _mm256_storeu_ps(acc[r0 + r].as_mut_ptr().add(8), cr[1]);
            }
        }
    }
}
