//! The one matrix kernel of the lockstep controller.
//!
//! Gate pre-activations, the head logits, the input gradients and every
//! weight gradient have one shape: `c[i][j] += Σ_p a[i][p] · b[p][j]`.
//! [`gemm_acc`] computes it register-blocked, yet each output element
//! still sees the serial loop's exact operation sequence: it starts from
//! its current value and adds its terms one at a time, `p` ascending,
//! each product rounded before its add. Rust never contracts `x += y * z`
//! into a fused multiply-add, so the blocked result is bit-identical to
//! `for p in 0..k { c += a * b }`. (`yoso_tensor::sgemm` is not: it splits
//! `k` into blocks and uses FMA where the target has it.)

/// Rows of one register tile.
const MR: usize = 4;

/// `c[i·ldc + j] += Σ_{p<k} a(i, p) · b(p)[j]` for `i < m`, `j < n`, in
/// the serial order described in the module docs.
///
/// `a(i, p)` is read once per element of `a`; `b(p)` returns row `p` of
/// `b` (at least `n` long). With `SKIP_ZERO`, a term whose `a(i, p)` is
/// zero is left out, as the serial backward loops' `if d == 0.0
/// { continue }` does. That only differs from adding it when the matching
/// `b` entry is not finite: the accumulators here start at `+0.0` or at a
/// sum that did, so they are never `-0.0`, and adding a zero to them
/// changes nothing.
pub(crate) fn gemm_acc<'b, const SKIP_ZERO: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize) -> &'b [f32],
    c: &mut [f32],
    ldc: usize,
) {
    // `a` packed per tile of rows, `pack[p·MR + i] = a(i0 + i, p)`.
    let mut pack = vec![0.0f32; k * MR];
    for i0 in (0..m).step_by(MR) {
        let rows = (m - i0).min(MR);
        for p in 0..k {
            for i in 0..rows {
                pack[p * MR + i] = a(i0 + i, p);
            }
        }
        let c = &mut c[i0 * ldc..];
        let mut j0 = 0;
        while n - j0 >= 8 {
            let w = match n - j0 {
                32.. => 32,
                16..=31 => 16,
                _ => 8,
            };
            match (rows, w) {
                (4, 32) => tile4::<32, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (4, 16) => tile4::<16, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (4, _) => tile4::<8, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (3, 32) => tile3::<32, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (3, 16) => tile3::<16, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (3, _) => tile3::<8, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (2, 32) => tile2::<32, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (2, 16) => tile2::<16, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (2, _) => tile2::<8, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (_, 32) => tile1::<32, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                (_, 16) => tile1::<16, SKIP_ZERO>(&pack, j0, &b, c, ldc),
                _ => tile1::<8, SKIP_ZERO>(&pack, j0, &b, c, ldc),
            }
            j0 += w;
        }
        if j0 < n {
            tail::<SKIP_ZERO>(rows, &pack, j0, n - j0, &b, c, ldc);
        }
    }
}

/// Defines a tile of one to four rows by `C` columns, each row's
/// accumulator a separate array so that it stays in vector registers
/// across all of `k` (an array of rows indexed in a loop may be left in
/// memory and vectorized with gathers).
macro_rules! tile {
    ($name:ident: $($acc:ident $i:literal),+) => {
        fn $name<'b, const C: usize, const SKIP_ZERO: bool>(
            pack: &[f32],
            j0: usize,
            b: &impl Fn(usize) -> &'b [f32],
            c: &mut [f32],
            ldc: usize,
        ) {
            $(
                let mut $acc = [0.0f32; C];
                $acc.copy_from_slice(&c[$i * ldc + j0..$i * ldc + j0 + C]);
            )+
            for (p, ap) in pack.chunks_exact(MR).enumerate() {
                let bp: &[f32; C] = b(p)[j0..j0 + C].try_into().expect("b row too short");
                if SKIP_ZERO && [$(ap[$i]),+].contains(&0.0) {
                    $(
                        if ap[$i] != 0.0 {
                            for (x, &y) in $acc.iter_mut().zip(bp) {
                                *x += ap[$i] * y;
                            }
                        }
                    )+
                } else {
                    $(
                        for (x, &y) in $acc.iter_mut().zip(bp) {
                            *x += ap[$i] * y;
                        }
                    )+
                }
            }
            $(
                c[$i * ldc + j0..$i * ldc + j0 + C].copy_from_slice(&$acc);
            )+
        }
    };
}

tile!(tile1: x0 0);
tile!(tile2: x0 0, x1 1);
tile!(tile3: x0 0, x1 1, x2 2);
tile!(tile4: x0 0, x1 1, x2 2, x3 3);

/// The last `w < 8` columns, one row at a time.
fn tail<'b, const SKIP_ZERO: bool>(
    rows: usize,
    pack: &[f32],
    j0: usize,
    w: usize,
    b: &impl Fn(usize) -> &'b [f32],
    c: &mut [f32],
    ldc: usize,
) {
    for i in 0..rows {
        let mut acc = [0.0f32; 8];
        let acc = &mut acc[..w];
        let out = &mut c[i * ldc + j0..i * ldc + j0 + w];
        acc.copy_from_slice(out);
        for (p, ap) in pack.chunks_exact(MR).enumerate() {
            let av = ap[i];
            if SKIP_ZERO && av == 0.0 {
                continue;
            }
            for (x, &y) in acc.iter_mut().zip(&b(p)[j0..j0 + w]) {
                *x += av * y;
            }
        }
        out.copy_from_slice(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial loop every element must match bit for bit.
    fn serial(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], skip_zero: bool) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    let av = a[i * k + p];
                    if skip_zero && av == 0.0 {
                        continue;
                    }
                    acc += av * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn lcg(state: &mut u64) -> f32 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Wide exponent range so rounding differences would show.
        let unit = (*state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        unit * 2f32.powi(((*state >> 33) % 24) as i32 - 12)
    }

    #[test]
    fn blocked_kernel_matches_serial_loop_bitwise() {
        let mut s = 7u64;
        for &(m, n, k) in &[
            (1, 1, 1),
            (10, 480, 152),
            (3, 120, 480),
            (13, 37, 29),
            (8, 8, 5),
            (9, 7, 120),
            (480, 120, 44),
            (2, 0, 4),
            (0, 5, 4),
            (4, 5, 0),
        ] {
            for skip_zero in [false, true] {
                let mut a: Vec<f32> = (0..m * k).map(|_| lcg(&mut s)).collect();
                for (idx, v) in a.iter_mut().enumerate() {
                    if idx % 5 == 0 {
                        *v = if idx % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                let b: Vec<f32> = (0..k * n).map(|_| lcg(&mut s)).collect();
                let c0: Vec<f32> = (0..m * n).map(|_| lcg(&mut s)).collect();
                let mut want = c0.clone();
                serial(m, n, k, &a, &b, &mut want, skip_zero);
                let mut got = c0.clone();
                if skip_zero {
                    gemm_acc::<true>(m, n, k, |i, p| a[i * k + p], |p| &b[p * n..], &mut got, n);
                } else {
                    gemm_acc::<false>(m, n, k, |i, p| a[i * k + p], |p| &b[p * n..], &mut got, n);
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{m}x{n}x{k} skip {skip_zero}");
            }
        }
    }

    #[test]
    fn skip_zero_ignores_non_finite_partners_of_zero_terms() {
        // The serial backward loops skip `d == 0` rows, so an infinite
        // weight behind a zero gradient must not turn the sum into NaN.
        let a = [0.0f32, 2.0];
        let b = [f32::INFINITY, 1.0];
        let mut c = [0.5f32];
        gemm_acc::<true>(1, 1, 2, |_, p| a[p], |p| &b[p..p + 1], &mut c, 1);
        assert_eq!(c, [2.5]);
        let mut c = [0.5f32];
        gemm_acc::<false>(1, 1, 2, |_, p| a[p], |p| &b[p..p + 1], &mut c, 1);
        assert!(c[0].is_nan());
    }
}
