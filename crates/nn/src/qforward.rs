//! Tape-free int8 inference for candidate scoring (DESIGN.md §9).
//!
//! Validation scoring during the search never needs gradients, so this
//! module runs a [`NetworkPlan`] forward with every dense convolution
//! (stem, 1x1 preps, 3x3/5x5 cell convs, the separable blocks'
//! pointwise convs) computed in int8: weights are quantized **once per
//! candidate** ([`QuantizedNetwork::prepare`]) to per-channel symmetric
//! i8, activations per-tensor to u8 on the fly, and the products
//! accumulated exactly in i32 by [`yoso_tensor::quant::gemm_q`].
//!
//! Everything that is cheap or precision-critical stays in f32:
//! depthwise kernels, pooling, residual adds, concatenation, the global
//! average pool and the classifier head. Batch normalization keeps the
//! f32 graph's semantics (batch statistics, biased variance, eps inside
//! the square root) but is *fused* with dequantization: each int8 GEMM
//! row already holds every value of one output channel, so the batch
//! statistics are computed exactly on the i32 accumulators and the
//! dequant + normalize steps collapse into one affine pass. The only
//! divergence from the f32 forward is the conv quantization error plus
//! sub-ulp summation-order differences in the BN statistics.
//!
//! The per-sample f32 im2col of the graph path becomes one *batched*
//! u8 column matrix here (`n = batch * h_out * w_out` columns), so each
//! layer is a single int8 GEMM — wider GEMMs amortize the weight loads
//! and feed the AVX-VNNI kernel long contiguous rows.

use crate::infer::{concat_channels, global_avg_pool, linear, BN_EPS};
use crate::weights::{OpWeights, WeightProvider};
use yoso_arch::{NetworkPlan, Op};
use yoso_tensor::conv::{avgpool_forward, dwconv2d_forward, maxpool_forward, shape4};
use yoso_tensor::quant::{gemm_q, im2col_u8_batch, quantize_activations_cm};
use yoso_tensor::{ConvGeom, ParamStore, QuantWeights, Scratch, Tensor};

/// One conv + BN block with pre-quantized weights.
#[derive(Debug, Clone)]
struct QConvBn {
    /// `[cout, cin*k*k]` per-row symmetric int8 weights.
    w: QuantWeights,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    cin: usize,
    geom: ConvGeom,
}

impl QConvBn {
    fn prepare(store: &ParamStore, cb: crate::weights::ConvBn, geom: ConvGeom) -> Self {
        let w = store.value(cb.w);
        let (cout, cin, k, _) = shape4(w);
        debug_assert_eq!(k, geom.k);
        QConvBn {
            w: QuantWeights::quantize(w.data(), cout, cin * k * k),
            gamma: store.value(cb.gamma).data().to_vec(),
            beta: store.value(cb.beta).data().to_vec(),
            cin,
            geom,
        }
    }

    /// Quantized `[ReLU →] conv → BN`, mirroring `Graph::fused_conv_bn`:
    /// the optional ReLU is fused into activation quantization (clamping
    /// at the zero point), the conv runs as one batched int8 GEMM, and
    /// BN uses batch statistics on the dequantized output.
    fn forward(&self, x: &Tensor, pre_relu: bool, scratch: &mut QScratch) -> Tensor {
        let (n, cin, h, w) = shape4(x);
        assert_eq!(cin, self.cin, "qconv input channels");
        let g = self.geom;
        let (hout, wout) = (g.out_dim(h), g.out_dim(w));
        let hw_out = hout * wout;
        let cols_n = n * hw_out;
        let ckk = cin * g.k * g.k;
        let cout = self.w.rows();

        let x_scale = quantize_activations_cm(x.data(), n, cin, h * w, pre_relu, &mut scratch.qx);
        // The channel-major `[cin, n*hw]` activation matrix *is* the
        // column matrix of a 1x1 stride-1 conv; everything else lowers
        // into grow-only scratch (im2col and the GEMM overwrite every
        // element they use, so no clearing between layers).
        let one_by_one = g.k == 1 && g.stride == 1 && g.pad == 0;
        if !one_by_one {
            if scratch.col.len() < ckk * cols_n {
                scratch.col.resize(ckk * cols_n, 0);
            }
            im2col_u8_batch(&scratch.qx, n, cin, h, w, g, hout, wout, &mut scratch.col);
        }
        let bmat = if one_by_one {
            &scratch.qx[..ckk * cols_n]
        } else {
            &scratch.col[..ckk * cols_n]
        };
        if scratch.acc.len() < cout * cols_n {
            scratch.acc.resize(cout * cols_n, 0);
        }
        gemm_q(&self.w, bmat, cols_n, &mut scratch.acc[..cout * cols_n]);

        // Fused dequantize + batch norm. Each GEMM row `r` holds *all*
        // `n*hw` values of output channel `r` — exactly BN's reduction
        // axis — so the batch statistics come straight off the i32
        // accumulators (i64/f64 sums, exact and cheaper than a second
        // f32 pass), and dequant + normalize collapse into one affine
        // `v*a + b` pass per row. Same biased-variance + eps-inside-sqrt
        // semantics as [`batch_norm_forward`].
        let mut out = Tensor::zeros(&[n, cout, hout, wout]);
        {
            let od = out.data_mut();
            let scales = self.w.scales();
            let m = cols_n as f64;
            for r in 0..cout {
                let row = &scratch.acc[r * cols_n..(r + 1) * cols_n];
                let s = (scales[r] * x_scale) as f64;
                // Four partial accumulators per statistic: the f64 adds
                // are latency-bound on a single chain, and rows are tens
                // of thousands of elements. Integer partial sums are
                // exact in any grouping; the f64 sum-of-squares grouping
                // only moves sub-ulp rounding, which the module contract
                // already allows.
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
                let g = self.gamma[r] as f64;
                let a = (s * inv_std * g) as f32;
                let b = (self.beta[r] as f64 - s * mean_q * inv_std * g) as f32;
                for i in 0..n {
                    let dst = &mut od[(i * cout + r) * hw_out..(i * cout + r + 1) * hw_out];
                    for (o, v) in dst.iter_mut().zip(&row[i * hw_out..(i + 1) * hw_out]) {
                        *o = *v as f32 * a + b;
                    }
                }
            }
        }
        out
    }
}

/// One candidate op with weights resolved and convs pre-quantized.
#[derive(Debug, Clone)]
enum QOp {
    /// Dense conv: ReLU → int8 conv → BN.
    Conv(QConvBn),
    /// Separable: ReLU → f32 depthwise → int8 pointwise 1x1 → BN.
    Sep {
        dw: Tensor,
        geom: ConvGeom,
        pw: QConvBn,
    },
    /// 3x3 max pool.
    MaxPool(ConvGeom),
    /// 3x3 average pool.
    AvgPool(ConvGeom),
}

/// Per-cell prepared weights in forward-pass order.
#[derive(Debug, Clone)]
struct QCell {
    prep0: QConvBn,
    prep1: QConvBn,
    /// Two ops per internal node, in `(in1, op1), (in2, op2)` order.
    ops: Vec<QOp>,
}

/// Reused buffers for the quantized conv pipeline: activation bytes,
/// the batched u8 column matrix and the i32 GEMM accumulator.
#[derive(Debug, Default)]
struct QScratch {
    qx: Vec<u8>,
    col: Vec<u8>,
    acc: Vec<i32>,
}

thread_local! {
    /// Scoring runs one forward per validation batch, so per-call
    /// scratch would re-grow (and re-fault) ~1.5 MB of buffers every
    /// batch. Thread-local buffers are reused by every later forward on
    /// the same thread: across the whole search on the search thread,
    /// but only within one map on a pool worker, since `yoso_pool`
    /// spawns fresh scoped workers for each map.
    static QSCRATCH: std::cell::RefCell<QScratch> = std::cell::RefCell::new(QScratch::default());
}

/// A [`NetworkPlan`] with all dense-conv weights quantized up front,
/// ready for repeated int8 scoring passes over validation batches.
#[derive(Debug)]
pub struct QuantizedNetwork {
    plan: NetworkPlan,
    stem: QConvBn,
    cells: Vec<QCell>,
    /// `[classes, c_last]` f32 head weight.
    head_w: Vec<f32>,
    head_b: Vec<f32>,
}

impl QuantizedNetwork {
    /// Resolves every weight slot the plan needs from `provider` and
    /// quantizes the dense convolutions. This is the once-per-candidate
    /// cost; [`QuantizedNetwork::forward`] then reuses it per batch.
    ///
    /// # Panics
    ///
    /// Panics if the provider returns weights mismatching an op.
    pub fn prepare<P: WeightProvider>(
        plan: &NetworkPlan,
        store: &ParamStore,
        provider: &P,
    ) -> Self {
        let stem = QConvBn::prepare(store, provider.stem(), ConvGeom::same(3, 1));
        let mut cells = Vec::with_capacity(plan.cells.len());
        for cell in &plan.cells {
            let prep0 = QConvBn::prepare(
                store,
                provider.prep(cell.index, 0),
                ConvGeom::same(1, cell.prep0_stride()),
            );
            let prep1 = QConvBn::prepare(store, provider.prep(cell.index, 1), ConvGeom::same(1, 1));
            let mut ops = Vec::with_capacity(2 * cell.genotype.nodes.len());
            for (ni, gene) in cell.genotype.nodes.iter().enumerate() {
                let node_idx = ni + 2;
                for (src, op) in [(gene.in1, gene.op1), (gene.in2, gene.op2)] {
                    let stride = cell.op_stride(src);
                    let w = provider.op(cell.index, node_idx, src, op);
                    ops.push(match (op, w) {
                        (Op::Conv3 | Op::Conv5, OpWeights::Conv(cb)) => QOp::Conv(
                            QConvBn::prepare(store, cb, ConvGeom::same(op.kernel(), stride)),
                        ),
                        (Op::DwConv3 | Op::DwConv5, OpWeights::Sep(sc)) => QOp::Sep {
                            dw: store.value(sc.dw).clone(),
                            geom: ConvGeom::same(op.kernel(), stride),
                            pw: QConvBn::prepare(
                                store,
                                crate::weights::ConvBn {
                                    w: sc.pw,
                                    gamma: sc.gamma,
                                    beta: sc.beta,
                                },
                                ConvGeom::new(1, 1, 0),
                            ),
                        },
                        (Op::MaxPool, OpWeights::Pool) => QOp::MaxPool(ConvGeom::same(3, stride)),
                        (Op::AvgPool, OpWeights::Pool) => QOp::AvgPool(ConvGeom::same(3, stride)),
                        (op, w) => panic!("op {op} paired with mismatched weights {w:?}"),
                    });
                }
            }
            cells.push(QCell { prep0, prep1, ops });
        }
        let head = provider.head();
        QuantizedNetwork {
            plan: plan.clone(),
            stem,
            cells,
            head_w: store.value(head.w).data().to_vec(),
            head_b: store.value(head.b).data().to_vec(),
        }
    }

    /// Runs the int8 forward pass and returns logits `[n, classes]`.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the plan's input shape.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let sk = &self.plan.skeleton;
        assert_eq!(
            &input.shape()[1..],
            &[sk.input_channels, sk.input_hw, sk.input_hw],
            "input shape mismatch"
        );
        QSCRATCH.with(|s| self.forward_with(input, &mut s.borrow_mut()))
    }

    fn forward_with(&self, input: &Tensor, scratch: &mut QScratch) -> Tensor {
        let stem_out = self.stem.forward(input, false, scratch);
        let mut s0 = stem_out.clone();
        let mut s1 = stem_out;
        for (cell, qc) in self.plan.cells.iter().zip(&self.cells) {
            let p0 = qc.prep0.forward(&s0, true, scratch);
            let p1 = qc.prep1.forward(&s1, true, scratch);
            let mut states = vec![p0, p1];
            for (ni, gene) in cell.genotype.nodes.iter().enumerate() {
                let [mut a, b] = [(0, gene.in1), (1, gene.in2)]
                    .map(|(oi, src)| apply_qop(&qc.ops[2 * ni + oi], &states[src], scratch));
                a.add_in_place(&b);
                states.push(a);
            }
            let outs: Vec<&Tensor> = cell
                .genotype
                .output_nodes()
                .into_iter()
                .map(|i| &states[i])
                .collect();
            let out = concat_channels(&outs, &mut Scratch::new());
            s0 = s1;
            s1 = out;
        }
        linear(&global_avg_pool(&s1), &self.head_w, &self.head_b)
    }
}

fn apply_qop(qop: &QOp, x: &Tensor, scratch: &mut QScratch) -> Tensor {
    match qop {
        QOp::Conv(cb) => cb.forward(x, true, scratch),
        QOp::Sep { dw, geom, pw } => {
            let r = relu(x);
            let d = dwconv2d_forward(&r, dw, *geom);
            pw.forward(&d, false, scratch)
        }
        QOp::MaxPool(g) => maxpool_forward(x, *g).0,
        QOp::AvgPool(g) => avgpool_forward(x, *g),
    }
}

fn relu(x: &Tensor) -> Tensor {
    // Single-pass build (no clone-then-rewrite): these element ops run
    // per candidate on megabytes of activations.
    Tensor::from_vec(x.shape(), x.data().iter().map(|v| v.max(0.0)).collect())
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

    /// The int8 forward produces the right shapes and stays close to the
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

            let qnet = QuantizedNetwork::prepare(&plan, net.store(), net.provider());
            let logits_q = qnet.forward(&input);
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

    /// Scoring is deterministic: two passes give identical bits.
    #[test]
    fn quantized_forward_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let net = CellNetwork::new(plan.clone(), 1);
        let qnet = QuantizedNetwork::prepare(&plan, net.store(), net.provider());
        let input = Tensor::randn(&[3, 3, 8, 8], 1.0, &mut rng);
        let a = qnet.forward(&input);
        let b = qnet.forward(&input);
        assert_eq!(a.data(), b.data());
    }
}
