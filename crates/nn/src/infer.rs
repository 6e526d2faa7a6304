//! The inference forward walk every accuracy query runs, at either
//! [`ScoringPrecision`] (DESIGN.md §9, "Tape-free f32 scoring" and
//! "Int8 quantized scoring").
//!
//! Scoring a candidate needs logits, never gradients, so [`infer_network`]
//! walks a [`NetworkPlan`] without building a [`Graph`](yoso_tensor::Graph):
//!
//! * weights are read in place from the [`ParamStore`]; the tape clones
//!   every weight it touches;
//! * each f32 conv lowers runs of samples whose columns fit a 64 Ki-float
//!   block and multiplies each run in one GEMM ([`conv2d_forward_infer`]);
//!   the tape lowers sample by sample into a whole-batch column buffer
//!   per conv and holds it until its graph is dropped;
//! * every buffer (columns, activations, the int8 lowering's bytes and
//!   accumulators) comes from an arena that outlives the walk, so a
//!   steady-state walk allocates only its logits, a few per-channel
//!   vectors and, at int8, each conv's quantized weights.
//!
//! At f32 the walk mirrors [`forward_network`](crate::forward_network)
//! op for op, with the same kernels in the same order, so its logits are
//! bit-identical to the tape's. Three ops are easy to get subtly wrong
//! and are spelled out to match `Graph`: the separable ops' ReLU maps
//! only `v < 0.0` to `0.0` (so `-0.0` and NaN pass through, unlike the
//! `max(0, ·)` fused into the conv lowering), node sums are `a + b` in
//! that order, and global pooling sums a plane before scaling by
//! `1/(h·w)`.
//! `tests/infer_bit_identity.rs` pins the contract with `to_bits()`
//! over random genotypes, skeletons and batch sizes.
//!
//! At int8 only the dense convolutions change (stem, 1x1 preps, 3x3/5x5
//! cell convs, the separable blocks' pointwise convs). Each visit
//! quantizes the stored weight to per-row symmetric i8 and the
//! activations per tensor to u8 on the fly, lowers the whole batch into
//! one u8 column matrix (`n = batch·hout·wout` columns) and accumulates
//! one int8 GEMM exactly in i32 ([`gemm_q`]). Batch norm keeps the f32
//! semantics (batch statistics, biased variance, eps inside the square
//! root) but is fused with dequantization. Depthwise kernels, pooling,
//! adds, concatenation and the head stay f32, so the only divergence
//! from the f32 logits is conv quantization error plus sub-ulp
//! summation-order differences in the BN statistics.
//! `tests/int8_logit_digest.rs` pins the int8 logits bit for bit.

use crate::weights::{ConvBn, OpWeights, WeightProvider};
use std::sync::{Mutex, PoisonError};
use yoso_arch::{NetworkPlan, Op};
use yoso_tensor::conv::{
    avgpool_forward_scratch, conv2d_forward_infer, dwconv2d_forward_scratch,
    maxpool_forward_scratch, shape4,
};
use yoso_tensor::matmul::sgemm_a_bt_acc;
use yoso_tensor::quant::{gemm_q, im2col_u8_batch, quantize_activations_cm};
use yoso_tensor::{batch_norm_in_place, ConvGeom, ParamStore, QuantWeights, Scratch, Tensor};

/// Numeric precision of an inference walk's dense convolutions.
///
/// [`F32`](ScoringPrecision::F32) returns the training tape's logits bit
/// for bit. [`Int8`](ScoringPrecision::Int8) runs every dense conv as an
/// integer GEMM on quantized weights and activations, at the cost of
/// conv quantization error; the `quantized_scoring` integration test
/// pins the rank correlation between the two precisions' accuracies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScoringPrecision {
    /// Full-precision f32 forward (default).
    #[default]
    F32,
    /// Int8 conv path with per-channel weight quantization.
    Int8,
}

impl ScoringPrecision {
    /// Stable lowercase name used in trace events, wire frames and flags.
    pub fn name(&self) -> &'static str {
        match self {
            ScoringPrecision::F32 => "f32",
            ScoringPrecision::Int8 => "int8",
        }
    }

    /// Parses a [`ScoringPrecision::name`] back into a precision.
    pub fn from_name(s: &str) -> Option<ScoringPrecision> {
        match s {
            "f32" => Some(ScoringPrecision::F32),
            "int8" => Some(ScoringPrecision::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for ScoringPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Batch-norm epsilon, `Graph::new`'s default.
const BN_EPS: f32 = 1e-5;

/// Arenas of finished walks. A walk takes one (or starts an empty one)
/// and puts it back, so there are as many as walks ever ran at once.
/// They are shared rather than thread-local because `yoso_pool` spawns
/// fresh workers for every map: a thread-local arena would be freed after
/// each map, and the allocator would hand the same megabytes back as
/// freshly mapped pages that fault again on first touch.
static ARENAS: Mutex<Vec<Arena>> = Mutex::new(Vec::new());

/// A walk's reusable buffers. The int8 ones keep their capacity from
/// conv to conv, and each conv overwrites the prefix it uses.
#[derive(Default)]
struct Arena {
    /// f32 buffers: activations, conv outputs and f32 column matrices.
    scratch: Scratch,
    /// Int8 activations in the channel-major `[cin, n·h·w]` layout.
    qx: Vec<u8>,
    /// The batched u8 column matrix of a `k > 1` or strided int8 conv.
    qcol: Vec<u8>,
    /// The int8 GEMM's i32 accumulators.
    qacc: Vec<i32>,
}

/// Runs the plan forward on `input` at `precision` and returns the
/// logits `[n, classes]`. At [`ScoringPrecision::F32`] they are
/// bit-identical to [`forward_network`](crate::forward_network)'s.
///
/// # Panics
///
/// Panics if `input` does not match the plan's input shape, or the
/// provider returns mismatched weights.
pub fn infer_network<P: WeightProvider>(
    plan: &NetworkPlan,
    store: &ParamStore,
    provider: &P,
    input: &Tensor,
    precision: ScoringPrecision,
) -> Tensor {
    let sk = &plan.skeleton;
    assert_eq!(
        &input.shape()[1..],
        &[sk.input_channels, sk.input_hw, sk.input_hw],
        "input shape mismatch"
    );
    // Pop and push hold the lock for one `Vec` operation, which leaves
    // the list valid even if a holder panicked.
    let arenas = || ARENAS.lock().unwrap_or_else(PoisonError::into_inner);
    let arena = arenas().pop().unwrap_or_default();
    let mut walk = Walk {
        store,
        precision,
        arena,
    };
    let logits = walk.network(plan, provider, input);
    arenas().push(walk.arena);
    logits
}

/// One inference pass: the weights it reads, the precision of its convs
/// and the arena its buffers come from and go back to.
struct Walk<'a> {
    store: &'a ParamStore,
    precision: ScoringPrecision,
    arena: Arena,
}

impl Walk<'_> {
    fn network<P: WeightProvider>(
        &mut self,
        plan: &NetworkPlan,
        provider: &P,
        input: &Tensor,
    ) -> Tensor {
        // Stem: conv3x3 + BN (no leading ReLU on raw pixels).
        let mut s1 = self.conv_bn(input, provider.stem(), ConvGeom::same(3, 1), false);
        // `None` until the first cell is done: both inputs are the stem.
        let mut s0: Option<Tensor> = None;
        for cell in &plan.cells {
            let p0 = self.conv_bn(
                s0.as_ref().unwrap_or(&s1),
                provider.prep(cell.index, 0),
                ConvGeom::same(1, cell.prep0_stride()),
                true,
            );
            let p1 = self.conv_bn(
                &s1,
                provider.prep(cell.index, 1),
                ConvGeom::same(1, 1),
                true,
            );
            let mut states = vec![p0, p1];
            for (ni, gene) in cell.genotype.nodes.iter().enumerate() {
                let node_idx = ni + 2;
                let [mut a, b] = [(gene.in1, gene.op1), (gene.in2, gene.op2)].map(|(src, op)| {
                    let w = provider.op(cell.index, node_idx, src, op);
                    self.op(&states[src], op, w, cell.op_stride(src))
                });
                a.add_in_place(&b);
                self.recycle(b);
                states.push(a);
            }
            let outs: Vec<&Tensor> = cell
                .genotype
                .output_nodes()
                .into_iter()
                .map(|i| &states[i])
                .collect();
            let out = concat_channels(&outs, &mut self.arena.scratch);
            for state in states {
                self.recycle(state);
            }
            if let Some(done) = s0.replace(std::mem::replace(&mut s1, out)) {
                self.recycle(done);
            }
        }
        let pooled = global_avg_pool(&s1);
        self.recycle(s1);
        if let Some(s0) = s0 {
            self.recycle(s0);
        }
        let head = provider.head();
        linear(
            &pooled,
            self.store.value(head.w).data(),
            self.store.value(head.b).data(),
        )
    }

    /// Returns a finished tensor's buffer to the arena.
    fn recycle(&mut self, t: Tensor) {
        self.arena.scratch.give(t.into_vec());
    }

    /// `[ReLU →] conv → BN` at the walk's precision: at f32 as
    /// `Graph::fused_conv_bn` computes it, with the normalization done in
    /// the conv output's buffer; at int8 by
    /// [`conv_bn_int8`](Self::conv_bn_int8).
    fn conv_bn(&mut self, x: &Tensor, w: ConvBn, geom: ConvGeom, pre_relu: bool) -> Tensor {
        let store = self.store;
        let weight = store.value(w.w);
        let (gamma, beta) = (store.value(w.gamma).data(), store.value(w.beta).data());
        match self.precision {
            ScoringPrecision::F32 => {
                let mut y =
                    conv2d_forward_infer(x, weight, geom, pre_relu, &mut self.arena.scratch);
                let (n, c, h, wd) = shape4(&y);
                batch_norm_in_place(y.data_mut(), n, c, h, wd, BN_EPS, gamma, beta);
                y
            }
            ScoringPrecision::Int8 => self.conv_bn_int8(x, weight, geom, pre_relu, gamma, beta),
        }
    }

    /// Quantized `[ReLU →] conv → BN`, mirroring `Graph::fused_conv_bn`:
    /// the weight is quantized per output channel, the optional ReLU is
    /// fused into activation quantization (clamping at the zero point),
    /// the conv runs as one batched int8 GEMM, and BN uses batch
    /// statistics on the dequantized output.
    fn conv_bn_int8(
        &mut self,
        x: &Tensor,
        weight: &Tensor,
        g: ConvGeom,
        pre_relu: bool,
        gamma: &[f32],
        beta: &[f32],
    ) -> Tensor {
        let (cout, wcin, k, _) = shape4(weight);
        debug_assert_eq!(k, g.k);
        let qw = QuantWeights::quantize(weight.data(), cout, wcin * k * k);
        let (n, cin, h, w) = shape4(x);
        assert_eq!(cin, wcin, "qconv input channels");
        let (hout, wout) = (g.out_dim(h), g.out_dim(w));
        let hw_out = hout * wout;
        let cols_n = n * hw_out;
        let ckk = cin * g.k * g.k;
        let arena = &mut self.arena;

        let x_scale = quantize_activations_cm(x.data(), n, cin, h * w, pre_relu, &mut arena.qx);
        // The channel-major `[cin, n*hw]` activation matrix *is* the
        // column matrix of a 1x1 stride-1 conv; everything else lowers
        // into grow-only scratch (im2col and the GEMM overwrite every
        // element they use, so no clearing between layers).
        let one_by_one = g.k == 1 && g.stride == 1 && g.pad == 0;
        if !one_by_one {
            if arena.qcol.len() < ckk * cols_n {
                arena.qcol.resize(ckk * cols_n, 0);
            }
            im2col_u8_batch(&arena.qx, n, cin, h, w, g, hout, wout, &mut arena.qcol);
        }
        let bmat = if one_by_one {
            &arena.qx[..ckk * cols_n]
        } else {
            &arena.qcol[..ckk * cols_n]
        };
        if arena.qacc.len() < cout * cols_n {
            arena.qacc.resize(cout * cols_n, 0);
        }
        gemm_q(&qw, bmat, cols_n, &mut arena.qacc[..cout * cols_n]);

        // Fused dequantize + batch norm. Each GEMM row `r` holds *all*
        // `n*hw` values of output channel `r` — exactly BN's reduction
        // axis — so the batch statistics come straight off the i32
        // accumulators (i64/f64 sums, exact and cheaper than a second
        // f32 pass), and dequant + normalize collapse into one affine
        // `v*a + b` pass per row, which writes every output element.
        // Same biased-variance + eps-inside-sqrt semantics as
        // [`batch_norm_in_place`].
        let mut od = arena.scratch.take(n * cout * hw_out);
        let scales = qw.scales();
        let m = cols_n as f64;
        for r in 0..cout {
            let row = &arena.qacc[r * cols_n..(r + 1) * cols_n];
            let s = (scales[r] * x_scale) as f64;
            // Four partial accumulators per statistic: the f64 adds are
            // latency-bound on a single chain, and rows are tens of
            // thousands of elements. Integer partial sums are exact in
            // any grouping; the f64 sum-of-squares grouping only moves
            // sub-ulp rounding, which int8 scoring already allows.
            let mut sums = [0i64; 4];
            let mut sqs = [0f64; 4];
            let mut chunks = row.chunks_exact(4);
            for ch in &mut chunks {
                for (j, &v) in ch.iter().enumerate() {
                    sums[j] += v as i64;
                    let f = v as f64;
                    sqs[j] += f * f;
                }
            }
            let mut sum: i64 = sums.iter().sum();
            let mut sumsq: f64 = sqs.iter().sum();
            for &v in chunks.remainder() {
                sum += v as i64;
                let f = v as f64;
                sumsq += f * f;
            }
            let mean_q = sum as f64 / m;
            let var = s * s * (sumsq / m - mean_q * mean_q).max(0.0);
            let inv_std = 1.0 / (var + BN_EPS as f64).sqrt();
            let g = gamma[r] as f64;
            let a = (s * inv_std * g) as f32;
            let b = (beta[r] as f64 - s * mean_q * inv_std * g) as f32;
            for i in 0..n {
                let dst = &mut od[(i * cout + r) * hw_out..(i * cout + r + 1) * hw_out];
                for (o, v) in dst.iter_mut().zip(&row[i * hw_out..(i + 1) * hw_out]) {
                    *o = *v as f32 * a + b;
                }
            }
        }
        Tensor::from_vec(&[n, cout, hout, wout], od)
    }

    /// One candidate op on `x` with the given stride.
    fn op(&mut self, x: &Tensor, op: Op, weights: OpWeights, stride: usize) -> Tensor {
        match (op, weights) {
            (Op::Conv3 | Op::Conv5, OpWeights::Conv(cb)) => {
                self.conv_bn(x, cb, ConvGeom::same(op.kernel(), stride), true)
            }
            (Op::DwConv3 | Op::DwConv5, OpWeights::Sep(sc)) => {
                let r = self.relu(x);
                let dw = self.store.value(sc.dw);
                let geom = ConvGeom::same(op.kernel(), stride);
                let d = dwconv2d_forward_scratch(&r, dw, geom, &mut self.arena.scratch);
                self.recycle(r);
                let pw = ConvBn {
                    w: sc.pw,
                    gamma: sc.gamma,
                    beta: sc.beta,
                };
                let y = self.conv_bn(&d, pw, ConvGeom::new(1, 1, 0), false);
                self.recycle(d);
                y
            }
            (Op::MaxPool, OpWeights::Pool) => {
                maxpool_forward_scratch(x, ConvGeom::same(3, stride), &mut self.arena.scratch)
            }
            (Op::AvgPool, OpWeights::Pool) => {
                avgpool_forward_scratch(x, ConvGeom::same(3, stride), &mut self.arena.scratch)
            }
            (op, w) => panic!("op {op} paired with mismatched weights {w:?}"),
        }
    }

    /// `Graph::relu`: `v < 0.0` becomes `0.0`; `-0.0` and NaN pass
    /// through.
    fn relu(&mut self, x: &Tensor) -> Tensor {
        let mut out = self.arena.scratch.take(x.len());
        for (o, &v) in out.iter_mut().zip(x.data()) {
            *o = if v < 0.0 { 0.0 } else { v };
        }
        Tensor::from_vec(x.shape(), out)
    }
}

/// Concatenation along the channel dimension of NCHW tensors, into a
/// buffer drawn from `scratch`.
fn concat_channels(parts: &[&Tensor], scratch: &mut Scratch) -> Tensor {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let (n, _, h, w) = shape4(parts[0]);
    let mut c_total = 0;
    for p in parts {
        let (pn, pc, ph, pw) = shape4(p);
        assert_eq!((pn, ph, pw), (n, h, w), "concat mismatched dims");
        c_total += pc;
    }
    let mut data = scratch.take(n * c_total * h * w);
    let mut off = 0;
    for i in 0..n {
        for p in parts {
            let len = shape4(p).1 * h * w;
            data[off..off + len].copy_from_slice(&p.data()[i * len..(i + 1) * len]);
            off += len;
        }
    }
    Tensor::from_vec(&[n, c_total, h, w], data)
}

/// Global average pooling `[n,c,h,w] -> [n,c]`: each plane is summed,
/// then scaled by `1/(h·w)`.
fn global_avg_pool(x: &Tensor) -> Tensor {
    let (n, c, h, w) = shape4(x);
    let mut out = Tensor::zeros(&[n, c]);
    let inv = 1.0 / (h * w) as f32;
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            let s: f32 = x.data()[base..base + h * w].iter().sum();
            out.data_mut()[i * c + ch] = s * inv;
        }
    }
    out
}

/// Classifier head `x wᵀ + b` for `x [n, din]`, `w [classes, din]`,
/// `b [classes]`: the GEMM first, then the bias, as `Graph::linear`.
fn linear(x: &Tensor, w: &[f32], b: &[f32]) -> Tensor {
    let (n, din) = (x.shape()[0], x.shape()[1]);
    let classes = b.len();
    assert_eq!(w.len(), classes * din, "linear: weight/input mismatch");
    let mut out = Tensor::zeros(&[n, classes]);
    sgemm_a_bt_acc(n, din, classes, x.data(), w, out.data_mut());
    for row in 0..n {
        for (o, bv) in out.data_mut()[row * classes..(row + 1) * classes]
            .iter_mut()
            .zip(b)
        {
            *o += bv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward_network;
    use crate::network::CellNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoso_arch::{Genotype, NetworkSkeleton};
    use yoso_tensor::Graph;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn precision_names_round_trip() {
        for p in [ScoringPrecision::F32, ScoringPrecision::Int8] {
            assert_eq!(ScoringPrecision::from_name(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(ScoringPrecision::from_name("fp16"), None);
    }

    /// The int8 walk produces the right shapes and stays close to the
    /// f32 forward: with He-initialized weights the logit error from conv
    /// quantization alone is small relative to the logit spread.
    #[test]
    fn quantized_forward_tracks_f32_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        for trial in 0..5 {
            let geno = Genotype::random(&mut rng);
            let plan = NetworkSkeleton::tiny().compile(&geno);
            let net = CellNetwork::new(plan.clone(), trial);
            let input = Tensor::randn(&[4, 3, 8, 8], 1.0, &mut rng);

            let mut g = Graph::new();
            let logits_f32 =
                forward_network(&plan, &mut g, net.store(), net.provider(), input.clone());
            let f32_vals = g.value(logits_f32).data().to_vec();

            let logits_q = infer_network(
                &plan,
                net.store(),
                net.provider(),
                &input,
                ScoringPrecision::Int8,
            );
            assert_eq!(logits_q.shape(), &[4, 10]);
            assert!(logits_q.all_finite());

            let spread = f32_vals
                .iter()
                .fold(0.0f32, |m, v| m.max(v.abs()))
                .max(1e-6);
            let max_err = f32_vals
                .iter()
                .zip(logits_q.data())
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                max_err <= 0.35 * spread,
                "trial {trial}: quantized logits diverged: max_err {max_err}, spread {spread}"
            );
        }
    }

    /// Scoring is deterministic: two int8 walks give identical bits.
    #[test]
    fn quantized_forward_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let net = CellNetwork::new(plan.clone(), 1);
        let input = Tensor::randn(&[3, 3, 8, 8], 1.0, &mut rng);
        let walk = || {
            infer_network(
                &plan,
                net.store(),
                net.provider(),
                &input,
                ScoringPrecision::Int8,
            )
        };
        assert_eq!(walk().data(), walk().data());
    }

    /// Stale arena contents never reach the logits. f32 and int8 walks
    /// alternate on one arena that is salted before every walk with NaN
    /// buffers of assorted sizes and junk int8 bytes and accumulators;
    /// each walk returns the bits of its precision's first run on a fresh
    /// arena.
    #[test]
    fn walks_ignore_stale_arena_contents() {
        let mut rng = StdRng::seed_from_u64(11);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let net = CellNetwork::new(plan.clone(), 3);
        let input = Tensor::randn(&[5, 3, 8, 8], 1.0, &mut rng);
        let run = |precision, arena| {
            let mut walk = Walk {
                store: net.store(),
                precision,
                arena,
            };
            let logits = walk.network(&plan, net.provider(), &input);
            (bits(&logits), walk.arena)
        };
        let precisions = [ScoringPrecision::F32, ScoringPrecision::Int8];
        let first = precisions.map(|p| run(p, Arena::default()).0);
        let mut arena = Arena::default();
        for _ in 0..4 {
            for (p, want) in precisions.iter().zip(&first) {
                for len in [1, 100, 1280, 2560, 2561, 5120, 10240, 12800, 30000, 100_000] {
                    arena.scratch.give(vec![f32::NAN; len]);
                }
                let junk = arena.qcol.len().max(1 << 16);
                arena.qx.fill(0xa5);
                arena.qcol.fill(0xa5);
                arena.qcol.resize(junk, 0xa5);
                arena.qacc.fill(i32::MIN);
                arena.qacc.resize(junk, i32::MIN);
                let (got, back) = run(*p, arena);
                arena = back;
                assert_eq!(&got, want, "{p} walk read stale arena contents");
            }
        }
    }
}
