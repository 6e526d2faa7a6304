//! The inference forward walk every accuracy query runs (DESIGN.md §9,
//! "Tape-free f32 scoring").
//!
//! Scoring a candidate needs logits, never gradients, so [`infer_network`]
//! walks a [`NetworkPlan`] without building a [`Graph`](yoso_tensor::Graph):
//!
//! * weights are read in place from the [`ParamStore`]; the tape clones
//!   every weight it touches;
//! * each conv lowers runs of samples whose columns fit a 64 Ki-float
//!   block and multiplies each run in one GEMM ([`conv2d_forward_infer`]);
//!   the tape lowers sample by sample into a whole-batch column buffer
//!   per conv and holds it until its graph is dropped;
//! * every buffer (columns and activations) comes from an arena that
//!   outlives the walk, so a steady-state walk allocates only its logits
//!   and a few per-channel vectors.
//!
//! The walk mirrors [`forward_network`](crate::forward_network) op for
//! op, with the same kernels in the same order, so its logits are
//! bit-identical to the tape's. Three ops are easy to get subtly wrong
//! and are spelled out to match `Graph`: the separable ops' ReLU maps
//! only `v < 0.0` to `0.0` (so `-0.0` and NaN pass through, unlike the
//! `max(0, ·)` fused into the conv lowering), node sums are `a + b` in
//! that order, and global pooling sums a plane before scaling by
//! `1/(h·w)`.
//! `tests/infer_bit_identity.rs` pins the contract with `to_bits()`
//! over random genotypes, skeletons and batch sizes.

use crate::weights::{ConvBn, OpWeights, WeightProvider};
use std::sync::{Mutex, PoisonError};
use yoso_arch::{NetworkPlan, Op};
use yoso_tensor::conv::{
    avgpool_forward_scratch, conv2d_forward_infer, dwconv2d_forward_scratch,
    maxpool_forward_scratch, shape4,
};
use yoso_tensor::matmul::sgemm_a_bt_acc;
use yoso_tensor::{batch_norm_in_place, ConvGeom, ParamStore, Scratch, Tensor};

/// Batch-norm epsilon, `Graph::new`'s default.
const BN_EPS: f32 = 1e-5;

/// Arenas of finished walks. A walk takes one (or starts an empty one)
/// and puts it back, so there are as many as walks ever ran at once.
/// They are shared rather than thread-local because `yoso_pool` spawns
/// fresh workers for every map: a thread-local arena would be freed after
/// each map, and the allocator would hand the same megabytes back as
/// freshly mapped pages that fault again on first touch.
static ARENAS: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());

/// Runs the plan forward on `input` and returns the logits
/// `[n, classes]`, bit-identical to
/// [`forward_network`](crate::forward_network)'s.
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
    let scratch = arenas().pop().unwrap_or_default();
    let mut walk = Walk { store, scratch };
    let logits = walk.network(plan, provider, input);
    arenas().push(walk.scratch);
    logits
}

/// One inference pass: the weights it reads and the arena its buffers
/// come from and go back to.
struct Walk<'a> {
    store: &'a ParamStore,
    scratch: Scratch,
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
            let out = concat_channels(&outs, &mut self.scratch);
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
        self.scratch.give(t.into_vec());
    }

    /// `[ReLU →] conv → BN` as `Graph::fused_conv_bn` computes it, with
    /// the normalization done in the conv output's buffer.
    fn conv_bn(&mut self, x: &Tensor, w: ConvBn, geom: ConvGeom, pre_relu: bool) -> Tensor {
        let store = self.store;
        let weight = store.value(w.w);
        let (gamma, beta) = (store.value(w.gamma).data(), store.value(w.beta).data());
        let mut y = conv2d_forward_infer(x, weight, geom, pre_relu, &mut self.scratch);
        let (n, c, h, wd) = shape4(&y);
        batch_norm_in_place(y.data_mut(), n, c, h, wd, BN_EPS, gamma, beta);
        y
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
                let d = dwconv2d_forward_scratch(&r, dw, geom, &mut self.scratch);
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
                maxpool_forward_scratch(x, ConvGeom::same(3, stride), &mut self.scratch)
            }
            (Op::AvgPool, OpWeights::Pool) => {
                avgpool_forward_scratch(x, ConvGeom::same(3, stride), &mut self.scratch)
            }
            (op, w) => panic!("op {op} paired with mismatched weights {w:?}"),
        }
    }

    /// `Graph::relu`: `v < 0.0` becomes `0.0`; `-0.0` and NaN pass
    /// through.
    fn relu(&mut self, x: &Tensor) -> Tensor {
        let mut out = self.scratch.take(x.len());
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
    use crate::network::CellNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoso_arch::{Genotype, NetworkSkeleton};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Stale arena contents never reach the logits. Walks reuse one arena
    /// that is salted before every walk with NaN buffers of assorted
    /// sizes; each returns the bits of a first run on a fresh arena.
    #[test]
    fn walks_ignore_stale_arena_contents() {
        let mut rng = StdRng::seed_from_u64(11);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let net = CellNetwork::new(plan.clone(), 3);
        let input = Tensor::randn(&[5, 3, 8, 8], 1.0, &mut rng);
        let run = |scratch| {
            let mut walk = Walk {
                store: net.store(),
                scratch,
            };
            let logits = walk.network(&plan, net.provider(), &input);
            (bits(&logits), walk.scratch)
        };
        let first = run(Scratch::default()).0;
        let mut scratch = Scratch::default();
        for _ in 0..4 {
            for len in [1, 100, 1280, 2560, 2561, 5120, 10240, 12800, 30000, 100_000] {
                scratch.give(vec![f32::NAN; len]);
            }
            let (got, back) = run(scratch);
            scratch = back;
            assert_eq!(got, first, "walk read stale arena contents");
        }
    }
}
