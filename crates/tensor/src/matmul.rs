//! Blocked SGEMM: one packed, register-tiled kernel behind every entry
//! point, plus [`sgemm_reference`], a plain `ikj` loop kept as the oracle
//! that tests and the kernel bench compare against.
//!
//! ## Packed kernel architecture (see DESIGN.md §9)
//!
//! The kernel is a BLIS-style three-level blocking scheme:
//!
//! * **B packing** — for each `KC x NC` block of `b`, columns are packed
//!   into contiguous `KC x NR` panels so the microkernel streams them
//!   linearly regardless of the original row stride (or transposition).
//! * **A packing** — each `MR x KC` tile of `a` is packed column-major
//!   (`p`-major), so one microkernel step reads `MR` consecutive floats.
//! * **Microkernel** — an `MR x NR` register block accumulates
//!   `kc` rank-1 updates. Three implementations exist: explicit AVX-512F
//!   intrinsics (one zmm per tile row), explicit AVX2+FMA (the tile as
//!   two 4-row halves), and a portable scalar loop the compiler
//!   auto-vectorizes. Every GEMM runs the strongest tier the CPU
//!   supports ([`simd_tier`], probed once); no `target-cpu` build flag
//!   is required for the fast paths.
//!
//! Packing buffers and the block accumulator live in thread-local
//! scratch, so steady-state GEMM calls are allocation-free.
//!
//! ## Determinism: a fixed block grid over `c`
//!
//! `c` is cut into `RB`-row x `NC`-column blocks (the same `NC` split the
//! packing loop uses). Each block is accumulated in a zeroed buffer over
//! the *full* depth `k` and then added into `c`. Every output element
//! belongs to exactly one block and takes its `k` terms in increasing-`k`
//! order, blocked only by the fixed `KC` boundary, so a GEMM of given
//! operands returns the same bits on every call, on any thread, and the
//! SIMD tiers agree bitwise on exactly representable inputs. GEMMs run
//! on their caller's thread: this workload parallelises across
//! candidates and validation batches (`yoso_pool`), each pool item
//! running its own GEMMs.

// The internal packing/block routines take the full block geometry as
// scalars; bundling them into structs would only obscure the BLIS shape.
#![allow(clippy::too_many_arguments)]

use std::cell::RefCell;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// SIMD tier detection
// ---------------------------------------------------------------------------

/// Instruction tier of the packed microkernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// Portable scalar microkernel (the compiler may still
    /// auto-vectorize it when built with target features enabled).
    Scalar,
    /// Explicit 256-bit AVX2 + FMA intrinsics (x86-64 only, detected at
    /// runtime).
    Avx2Fma,
    /// Explicit 512-bit AVX-512F intrinsics (x86-64 only, detected at
    /// runtime).
    Avx512,
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2Fma => "avx2+fma",
            SimdTier::Avx512 => "avx512",
        })
    }
}

/// Whether this CPU (and build) can run `tier`'s microkernel.
fn tier_supported(tier: SimdTier) -> bool {
    match tier {
        SimdTier::Scalar => true,
        #[cfg(all(target_arch = "x86_64", not(yoso_force_scalar)))]
        SimdTier::Avx2Fma => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(all(target_arch = "x86_64", not(yoso_force_scalar)))]
        SimdTier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        #[cfg(not(all(target_arch = "x86_64", not(yoso_force_scalar))))]
        _ => false,
    }
}

/// The microkernel tier every GEMM runs: the strongest tier this CPU
/// supports, probed once.
pub fn simd_tier() -> SimdTier {
    static DETECTED: OnceLock<SimdTier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        [SimdTier::Avx512, SimdTier::Avx2Fma]
            .into_iter()
            .find(|&tier| tier_supported(tier))
            .unwrap_or(SimdTier::Scalar)
    })
}

// ---------------------------------------------------------------------------
// Packed microkernel
// ---------------------------------------------------------------------------

/// Microkernel tile height (rows of `c` held in registers). Eight rows
/// give the AVX-512 tier one zmm accumulator per row — eight
/// independent FMA chains, enough to hide FMA latency on both ports.
/// The AVX2 tier can't hold 8 x 16 in ymm registers, so it runs the
/// tile as two 4-row halves (see `simd::microkernel_f32_avx2fma`).
pub const MR: usize = 8;
/// Microkernel tile width (columns of `c` held in registers).
pub const NR: usize = 16;
/// Depth blocking: `KC x NR` B panels stay cache-resident while every
/// row tile of the current block visits them.
const KC: usize = 128;
/// Column blocking: B is packed (or walked) `NC` columns at a time, and
/// the block grid splits `c` on the same boundary.
const NC: usize = 256;
/// Rows of `c` per block (a few `MR` tiles). Together with the `NC`
/// column split this fixes the block grid, and with it every element's
/// accumulation order.
const RB: usize = 64;

thread_local! {
    /// Per-thread packing scratch `(a_tile, b_block)`; reused across every
    /// GEMM call on this thread, so steady state allocates nothing.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
    /// Per-thread block accumulator, zeroed for each block.
    static C_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Fused multiply-add `a * b + c` when the build target has hardware FMA
/// (one rounding, matching the explicit SIMD kernel bit-for-bit); plain
/// multiply-add otherwise, where `mul_add` would fall back to a slow
/// libm call. Which branch is taken is a build-wide constant, so the
/// scalar path rounds identically everywhere in the process; only the
/// runtime-dispatched SIMD kernel can differ from it (by at most one
/// rounding per FMA), and the property tests pin the two together on
/// exact-representable inputs.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// Portable `MR x NR` register-block microkernel: `acc += A_tile * B`
/// over a depth of `kc`, where `a` is packed `p`-major (`MR` floats per
/// step) and `b` holds one `>= NR`-wide row per depth step at stride
/// `b_stride` (`NR` for packed panels, `n` for in-place rows of a
/// row-major `b`). The fixed-size inner loops vectorize without any
/// data-dependent branches: each depth step is `MR` broadcast-FMAs
/// against one `NR`-wide vector load.
#[inline(always)]
fn microkernel_scalar(kc: usize, a: &[f32], b: &[f32], b_stride: usize, acc: &mut [[f32; NR]; MR]) {
    // Each row's accumulator is an independent local so the compiler
    // treats every `for c` loop below as its own straight-line NR-lane
    // vector op (broadcast-FMAs per row per depth step) instead of
    // merging rows into one tangle it then scalarizes.
    let [mut acc0, mut acc1, mut acc2, mut acc3, mut acc4, mut acc5, mut acc6, mut acc7] = *acc;
    for p in 0..kc {
        let arow = &a[p * MR..p * MR + MR];
        let bv: &[f32; NR] = b[p * b_stride..p * b_stride + NR]
            .try_into()
            .expect("NR-wide row");
        let a0 = arow[0];
        for c in 0..NR {
            acc0[c] = fmadd(a0, bv[c], acc0[c]);
        }
        let a1 = arow[1];
        for c in 0..NR {
            acc1[c] = fmadd(a1, bv[c], acc1[c]);
        }
        let a2 = arow[2];
        for c in 0..NR {
            acc2[c] = fmadd(a2, bv[c], acc2[c]);
        }
        let a3 = arow[3];
        for c in 0..NR {
            acc3[c] = fmadd(a3, bv[c], acc3[c]);
        }
        let a4 = arow[4];
        for c in 0..NR {
            acc4[c] = fmadd(a4, bv[c], acc4[c]);
        }
        let a5 = arow[5];
        for c in 0..NR {
            acc5[c] = fmadd(a5, bv[c], acc5[c]);
        }
        let a6 = arow[6];
        for c in 0..NR {
            acc6[c] = fmadd(a6, bv[c], acc6[c]);
        }
        let a7 = arow[7];
        for c in 0..NR {
            acc7[c] = fmadd(a7, bv[c], acc7[c]);
        }
    }
    *acc = [acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7];
}

/// Dispatches one register tile to the selected instruction tier.
#[inline(always)]
fn microkernel(
    tier: SimdTier,
    kc: usize,
    a: &[f32],
    b: &[f32],
    b_stride: usize,
    acc: &mut [[f32; NR]; MR],
) {
    // SAFETY: `sgemm_packed` asserts that the CPU supports `tier` and
    // that the operands hold their `m x k` and `k x n` values, and the
    // packing loops hand every tile a slice that meets the kernels'
    // length contract within them.
    match tier {
        #[cfg(all(target_arch = "x86_64", not(yoso_force_scalar)))]
        SimdTier::Avx512 => {
            #[allow(unsafe_code)]
            unsafe {
                crate::simd::microkernel_f32_avx512(kc, a, b, b_stride, acc)
            }
        }
        #[cfg(all(target_arch = "x86_64", not(yoso_force_scalar)))]
        SimdTier::Avx2Fma => {
            #[allow(unsafe_code)]
            unsafe {
                crate::simd::microkernel_f32_avx2fma(kc, a, b, b_stride, acc)
            }
        }
        _ => microkernel_scalar(kc, a, b, b_stride, acc),
    }
}

/// How the packing routines read the source operand.
#[derive(Clone, Copy)]
enum Layout {
    /// Operand stored row-major as `rows x cols` with logical element
    /// `(r, c)` at `data[r * cols + c]`.
    Normal,
    /// Operand stored row-major as `cols x rows` (the logical matrix is
    /// its transpose); logical `(r, c)` is at `data[c * rows + r]`.
    Transposed,
}

/// Packs the `[k0..k1) x [j0..j1)` block of logical `b` (`k x n`) into
/// `KC x NR` panels laid out panel-after-panel in `buf`. Columns past
/// `j1` in the final panel are zero-filled. A transposed `b` stores
/// logical column `j` at `b[j * ldb..]`.
fn pack_b(
    b: &[f32],
    layout: Layout,
    n: usize,
    ldb: usize,
    k0: usize,
    k1: usize,
    j0: usize,
    j1: usize,
    buf: &mut Vec<f32>,
) -> usize {
    let kc = k1 - k0;
    let panels = (j1 - j0).div_ceil(NR);
    buf.clear();
    buf.resize(panels * kc * NR, 0.0);
    for pj in 0..panels {
        let jb = j0 + pj * NR;
        let jw = NR.min(j1 - jb);
        let panel = &mut buf[pj * kc * NR..(pj + 1) * kc * NR];
        match layout {
            Layout::Normal => {
                for p in 0..kc {
                    let src = &b[(k0 + p) * n + jb..(k0 + p) * n + jb + jw];
                    panel[p * NR..p * NR + jw].copy_from_slice(src);
                }
            }
            Layout::Transposed => {
                // Logical (k, j) lives at b[j * ldb + k].
                for (jj, col) in (jb..jb + jw).enumerate() {
                    let src = &b[col * ldb + k0..col * ldb + k1];
                    for (p, v) in src.iter().enumerate() {
                        panel[p * NR + jj] = *v;
                    }
                }
            }
        }
    }
    panels
}

/// Packs the `[i0..i1) x [k0..k1)` tile of logical `a` (`m x k`) into
/// `p`-major order (`MR` consecutive rows per depth step). Rows past `i1`
/// are zero-filled.
fn pack_a(
    a: &[f32],
    layout: Layout,
    k_dim: usize,
    m_dim: usize,
    i0: usize,
    i1: usize,
    k0: usize,
    k1: usize,
    buf: &mut Vec<f32>,
) {
    let kc = k1 - k0;
    let rows = i1 - i0;
    buf.clear();
    buf.resize(kc * MR, 0.0);
    match layout {
        Layout::Normal => {
            for r in 0..rows {
                let src = &a[(i0 + r) * k_dim + k0..(i0 + r) * k_dim + k1];
                for (p, v) in src.iter().enumerate() {
                    buf[p * MR + r] = *v;
                }
            }
        }
        Layout::Transposed => {
            // Logical (i, k) lives at a[k * m_dim + i]: one depth step is
            // a contiguous run of rows.
            for p in 0..kc {
                let src = &a[(k0 + p) * m_dim + i0..(k0 + p) * m_dim + i0 + rows];
                buf[p * MR..p * MR + rows].copy_from_slice(src);
            }
        }
    }
}

/// Adds the valid `(i1-i0) x jw` corner of a register tile into `c_slab`
/// (row stride `n`, tile origin `(i0, jb)` in slab coordinates).
#[inline(always)]
fn writeback(
    acc: &[[f32; NR]; MR],
    c_slab: &mut [f32],
    n: usize,
    i0: usize,
    i1: usize,
    jb: usize,
    jw: usize,
) {
    for (r, arow) in acc.iter().enumerate().take(i1 - i0) {
        let crow = &mut c_slab[(i0 + r) * n + jb..(i0 + r) * n + jb + jw];
        for (cv, av) in crow.iter_mut().zip(arow.iter()) {
            *cv += av;
        }
    }
}

/// One cell of the packed path's block grid: rows `i0..i1` and columns
/// `j0..j1` of `c`.
#[derive(Clone, Copy)]
struct Block {
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
}

/// Computes one block into `out` (zero-initialised,
/// `(i1-i0) x (j1-j0)` row-major): `out += op(a)[i0..i1, :] * op(b)[:, j0..j1]`
/// over the full depth `k`. Returns `(b_panels_packed, b_panel_reuses)`
/// for the trace counters.
fn packed_block(
    tier: SimdTier,
    tb: Block,
    k: usize,
    n: usize,
    a: &[f32],
    a_layout: Layout,
    m: usize,
    b: &[f32],
    b_layout: Layout,
    ldb: usize,
    out: &mut [f32],
) -> (u64, u64) {
    let Block { i0, i1, j0, j1 } = tb;
    let cols = j1 - j0;
    let (mut packed, mut reused) = (0u64, 0u64);
    PACK_SCRATCH.with(|scratch| {
        let (a_buf, b_buf) = &mut *scratch.borrow_mut();
        let mut acc = [[0.0f32; NR]; MR];
        match b_layout {
            // Row-major B already has each depth step's NR-wide group
            // contiguous: full panels are read in place (`n`-strided
            // rows), and only the ragged edge panel (`j1 % NR` columns)
            // is packed — once per depth block, reused by every row
            // tile.
            Layout::Normal => {
                let mut k0 = 0;
                while k0 < k {
                    let k1 = (k0 + KC).min(k);
                    let kc = k1 - k0;
                    let mut edge_packed = false;
                    let mut i = i0;
                    while i < i1 {
                        let i2 = (i + MR).min(i1);
                        pack_a(a, a_layout, k, m, i, i2, k0, k1, a_buf);
                        let mut jb = j0;
                        while jb < j1 {
                            let jw = NR.min(j1 - jb);
                            for row in acc.iter_mut() {
                                *row = [0.0; NR];
                            }
                            if jw == NR {
                                microkernel(tier, kc, a_buf, &b[k0 * n + jb..], n, &mut acc);
                            } else {
                                if edge_packed {
                                    reused += 1;
                                } else {
                                    pack_b(b, b_layout, n, ldb, k0, k1, jb, j1, b_buf);
                                    edge_packed = true;
                                    packed += 1;
                                }
                                microkernel(tier, kc, a_buf, b_buf, NR, &mut acc);
                            }
                            writeback(&acc, out, cols, i - i0, i2 - i0, jb - j0, jw);
                            jb += NR;
                        }
                        i = i2;
                    }
                    k0 = k1;
                }
            }
            // Transposed B (stored n x k): depth steps stride the
            // operand column-wise, so packing into KC x NR panels is
            // what makes the microkernel's loads contiguous at all.
            Layout::Transposed => {
                let mut k0 = 0;
                while k0 < k {
                    let k1 = (k0 + KC).min(k);
                    let kc = k1 - k0;
                    let panels = pack_b(b, b_layout, n, ldb, k0, k1, j0, j1, b_buf);
                    packed += panels as u64;
                    let tiles = (i1 - i0).div_ceil(MR) as u64;
                    reused += (panels as u64) * tiles.saturating_sub(1);
                    let mut i = i0;
                    while i < i1 {
                        let i2 = (i + MR).min(i1);
                        pack_a(a, a_layout, k, m, i, i2, k0, k1, a_buf);
                        for pj in 0..panels {
                            for row in acc.iter_mut() {
                                *row = [0.0; NR];
                            }
                            let panel = &b_buf[pj * kc * NR..(pj + 1) * kc * NR];
                            microkernel(tier, kc, a_buf, panel, NR, &mut acc);
                            let jb = j0 + pj * NR;
                            let jw = NR.min(j1 - jb);
                            writeback(&acc, out, cols, i - i0, i2 - i0, jb - j0, jw);
                        }
                        i = i2;
                    }
                    k0 = k1;
                }
            }
        }
    });
    (packed, reused)
}

/// Adds a block's accumulator into `c` (blocks are disjoint, so the
/// combine order cannot affect the result).
fn add_block(c: &mut [f32], n: usize, tb: Block, block: &[f32]) {
    let cols = tb.j1 - tb.j0;
    for (r, row) in block.chunks_exact(cols).enumerate() {
        let crow = &mut c[(tb.i0 + r) * n + tb.j0..(tb.i0 + r) * n + tb.j1];
        for (cv, v) in crow.iter_mut().zip(row) {
            *cv += v;
        }
    }
}

/// The packed path: `c += op(a) * op(b)` over the fixed block grid, with
/// the microkernel at `tier`. A transposed `b` stores its logical
/// columns `ldb >= k` floats apart (`ldb` is ignored for a row-major
/// `b`). See the module docs for the bit-exactness argument.
fn sgemm_packed(
    tier: SimdTier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    ldb: usize,
    c: &mut [f32],
) {
    // The SIMD microkernels read through raw pointers: these checks hold
    // their memory safety, so they stay on in release builds.
    assert!(
        tier_supported(tier),
        "{tier} microkernel on a CPU without it"
    );
    let b_len = match b_layout {
        Layout::Normal => k * n,
        Layout::Transposed if n > 0 => {
            assert!(ldb >= k, "transposed b row stride {ldb} below depth {k}");
            (n - 1) * ldb + k
        }
        Layout::Transposed => 0,
    };
    assert!(
        a.len() >= m * k && b.len() >= b_len && c.len() >= m * n,
        "sgemm operands too short for {m}x{k}x{n}"
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (mut packed, mut reused) = (0u64, 0u64);
    C_SCRATCH.with(|scratch| {
        let out = &mut *scratch.borrow_mut();
        for i0 in (0..m).step_by(RB) {
            for j0 in (0..n).step_by(NC) {
                let tb = Block {
                    i0,
                    i1: (i0 + RB).min(m),
                    j0,
                    j1: (j0 + NC).min(n),
                };
                out.clear();
                out.resize((tb.i1 - tb.i0) * (tb.j1 - tb.j0), 0.0);
                let (p, r) = packed_block(tier, tb, k, n, a, a_layout, m, b, b_layout, ldb, out);
                add_block(c, n, tb, out);
                packed += p;
                reused += r;
            }
        }
    });
    if yoso_trace::enabled() {
        yoso_trace::counter_add("matmul.b_panels_packed", packed);
        yoso_trace::counter_add("matmul.b_panel_reuses", reused);
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Computes `c += a * b` for row-major matrices:
/// `a` is `m x k`, `b` is `k x n`, `c` is `m x n`.
///
/// # Panics
///
/// Panics (in debug builds) if slice lengths do not match the given
/// dimensions.
pub fn sgemm_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    sgemm_packed(
        simd_tier(),
        m,
        k,
        n,
        a,
        Layout::Normal,
        b,
        Layout::Normal,
        n,
        c,
    );
}

/// The oracle kernel (`c += a * b`): a `KB`-blocked `ikj` loop with a
/// data-dependent zero skip, independent of the packed kernel's blocking
/// and microkernels. Tests and the `bench_kernels` GEMM gate compare the
/// packed kernel against it.
pub fn sgemm_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    // Block over k to keep the b panel in cache for consecutive rows of a.
    const KB: usize = 64;
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KB).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n..(i + 1) * n];
            for kk in k0..k1 {
                let aik = arow[kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (cv, bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += aik * bv;
                }
            }
        }
        k0 = k1;
    }
}

/// Computes `c = a * b` (overwriting `c`).
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for v in c.iter_mut() {
        *v = 0.0;
    }
    sgemm_acc(m, k, n, a, b, c);
}

/// Computes `c += a^T * b` where `a` is `k x m` (so `a^T` is `m x k`),
/// `b` is `k x n`, `c` is `m x n`.
pub fn sgemm_at_b_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    sgemm_packed(
        simd_tier(),
        m,
        k,
        n,
        a,
        Layout::Transposed,
        b,
        Layout::Normal,
        n,
        c,
    );
}

/// Computes `c += a * b^T` where `a` is `m x k`, `b` is `n x k`
/// (so `b^T` is `k x n`), `c` is `m x n`.
pub fn sgemm_a_bt_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(b.len(), n * k);
    sgemm_a_bt_acc_strided(m, k, n, a, b, k, c);
}

/// [`sgemm_a_bt_acc`] with the rows of `b` `ldb >= k` floats apart: row
/// `j` is `b[j * ldb..j * ldb + k]`. Packing copies values, so this
/// computes the bits a GEMM of those rows copied out would.
pub(crate) fn sgemm_a_bt_acc_strided(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    sgemm_packed(
        simd_tier(),
        m,
        k,
        n,
        a,
        Layout::Normal,
        b,
        Layout::Transposed,
        ldb,
        c,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect()
    }

    #[test]
    fn sgemm_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (17, 65, 9), (8, 128, 8)] {
            let a = seq(m * k);
            let b = seq(k * n);
            let mut c = vec![0.0; m * n];
            sgemm(m, k, n, &a, &b, &mut c);
            assert_eq!(c, naive(m, k, n, &a, &b), "({m},{k},{n})");
        }
    }

    #[test]
    fn sgemm_acc_accumulates() {
        let a = seq(6);
        let b = seq(6);
        let mut c = vec![1.0; 4];
        sgemm_acc(2, 3, 2, &a, &b, &mut c);
        let expected: Vec<f32> = naive(2, 3, 2, &a, &b).iter().map(|v| v + 1.0).collect();
        assert_eq!(c, expected);
    }

    #[test]
    fn at_b_matches_naive_transpose() {
        let (m, k, n) = (4, 6, 5);
        let a = seq(k * m); // k x m
        let b = seq(k * n);
        let mut at = vec![0.0; m * k];
        for kk in 0..k {
            for i in 0..m {
                at[i * k + kk] = a[kk * m + i];
            }
        }
        let mut c1 = vec![0.0; m * n];
        sgemm_at_b_acc(m, k, n, &a, &b, &mut c1);
        assert_eq!(c1, naive(m, k, n, &at, &b));
    }

    #[test]
    fn a_bt_matches_naive_transpose() {
        let (m, k, n) = (3, 5, 4);
        let a = seq(m * k);
        let b = seq(n * k); // n x k
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for kk in 0..k {
                bt[kk * n + j] = b[j * k + kk];
            }
        }
        let mut c1 = vec![0.0; m * n];
        sgemm_a_bt_acc(m, k, n, &a, &b, &mut c1);
        assert_eq!(c1, naive(m, k, n, &a, &bt));
    }

    /// The packed kernel agrees exactly with the reference kernel on
    /// integer-valued inputs (every partial sum is exactly representable,
    /// so any summation order yields identical bits), across shapes that
    /// exercise all the edge paths: tiny, non-multiples of `MR`/`NR`,
    /// multiple `KC`/`NC` blocks.
    #[test]
    fn packed_matches_reference_on_exact_inputs() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 5),
            (13, 200, 300),
            (2, 300, 2),
        ] {
            let a = seq(m * k);
            let b = seq(k * n);
            let mut c_ref = vec![0.25; m * n];
            sgemm_reference(m, k, n, &a, &b, &mut c_ref);
            let mut c_packed = vec![0.25; m * n];
            sgemm_acc(m, k, n, &a, &b, &mut c_packed);
            assert_eq!(c_packed, c_ref, "({m},{k},{n})");
        }
    }

    /// Small-integer matrices: every product and partial sum is exactly
    /// representable in f32, so FMA contraction and any summation
    /// grouping are exact, and two kernels can differ only by a bug.
    fn integer_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| rng.random_range(-8i32..=8) as f32)
            .collect()
    }

    fn random_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    /// `0.5 + op(a) * op(b)` at `tier` for the three operand layouts the
    /// entry points use: `a * b`, `a^T * b` and `a * b^T`. `a` and `b`
    /// hold `m * k` and `k * n` values, read in each layout's storage
    /// order.
    fn all_layouts(
        tier: SimdTier,
        (m, k, n): (usize, usize, usize),
        a: &[f32],
        b: &[f32],
    ) -> [Vec<f32>; 3] {
        let layouts = [
            (Layout::Normal, Layout::Normal),
            (Layout::Transposed, Layout::Normal),
            (Layout::Normal, Layout::Transposed),
        ];
        layouts.map(|(a_layout, b_layout)| {
            let mut c = vec![0.5f32; m * n];
            let ldb = match b_layout {
                Layout::Normal => n,
                Layout::Transposed => k,
            };
            sgemm_packed(tier, m, k, n, a, a_layout, b, b_layout, ldb, &mut c);
            c
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every SIMD tier this CPU supports computes the same bits as
        /// the scalar microkernel on exactly representable inputs, in
        /// all three layouts, across shapes straddling the MR=8 / NR=16 /
        /// KC=128 tile edges.
        #[test]
        fn simd_tiers_match_scalar_bitwise_on_integer_inputs(
            seed in 0u64..1000,
            m in 1usize..24,
            k in 1usize..150,
            n in 1usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = integer_vec(m * k, &mut rng);
            let b = integer_vec(k * n, &mut rng);
            let scalar = all_layouts(SimdTier::Scalar, (m, k, n), &a, &b);
            for tier in [SimdTier::Avx2Fma, SimdTier::Avx512] {
                if !tier_supported(tier) {
                    continue;
                }
                let simd = all_layouts(tier, (m, k, n), &a, &b);
                for (layout, (x, y)) in simd.iter().zip(&scalar).enumerate() {
                    let first = x.iter().zip(y).position(|(p, q)| p.to_bits() != q.to_bits());
                    prop_assert!(
                        first.is_none(),
                        "{} vs scalar, layout {}: first differing element {:?}", tier, layout, first
                    );
                }
            }
        }
    }

    /// A strided `a * b^T` reads only its rows' first `k` floats and
    /// equals the GEMM of those rows copied out, bit for bit.
    #[test]
    fn strided_a_bt_matches_copied_rows() {
        let mut rng = StdRng::seed_from_u64(8);
        for (m, k, n, ldb) in [(8, 144, 72, 864), (3, 9, 40, 18), (16, 130, 20, 131)] {
            let a = random_vec(m * k, &mut rng);
            let mut b = vec![f32::NAN; (n - 1) * ldb + k];
            let mut copied = Vec::with_capacity(n * k);
            for j in 0..n {
                let row = random_vec(k, &mut rng);
                b[j * ldb..j * ldb + k].copy_from_slice(&row);
                copied.extend(row);
            }
            let mut want = random_vec(m * n, &mut rng);
            let mut got = want.clone();
            sgemm_a_bt_acc(m, k, n, &a, &copied, &mut want);
            sgemm_a_bt_acc_strided(m, k, n, &a, &b, ldb, &mut got);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n}, ldb {ldb}");
        }
    }

    /// A short operand panics before any microkernel reads past it.
    #[test]
    #[should_panic(expected = "sgemm operands too short for 1x2x16")]
    fn short_operand_panics_instead_of_reading_past_it() {
        let mut c = [0.0f32; 16];
        let (a, b) = ([1.0f32; 2], [1.0f32; 16]);
        sgemm_packed(
            simd_tier(),
            1,
            2,
            16,
            &a,
            Layout::Normal,
            &b,
            Layout::Normal,
            16,
            &mut c,
        );
    }

    /// A GEMM's bits depend on its operands alone: not on the thread it
    /// runs on, nor on what earlier GEMMs left in that thread's scratch.
    /// Arbitrary floats, on a shape with several row and column blocks.
    #[test]
    fn results_do_not_depend_on_thread_or_scratch_history() {
        let dims = (RB + 6, KC + 12, NC + 44);
        let (m, k, n) = dims;
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let fresh = std::thread::scope(|s| {
            s.spawn(|| all_layouts(simd_tier(), dims, &a, &b))
                .join()
                .unwrap()
        });
        // Leave larger blocks in this thread's scratch first.
        let (big_a, big_b) = (
            random_vec(200 * 300, &mut rng),
            random_vec(300 * 600, &mut rng),
        );
        all_layouts(simd_tier(), (200, 300, 600), &big_a, &big_b);
        assert_eq!(all_layouts(simd_tier(), dims, &a, &b), fresh);
    }
}
