//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is built per forward pass: every operation appends a node
//! holding its output value plus whatever cache its backward pass needs.
//! [`Graph::backward`] consumes the graph, walking the tape in reverse and
//! accumulating parameter gradients into a [`ParamStore`].

#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_memcpy)]

use crate::conv::{
    avgpool_backward, avgpool_forward, conv2d_backward_scratch, conv2d_forward_scratch,
    dwconv2d_backward, dwconv2d_forward, maxpool_backward, maxpool_forward, shape4, ConvGeom,
};
use crate::matmul::{sgemm_a_bt_acc, sgemm_acc, sgemm_at_b_acc};
use crate::param::{ParamId, ParamStore};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum OpRecord {
    Leaf,
    Param(ParamId),
    Add(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    MatMul(Var, Var),
    Linear {
        x: Var,
        w: Var,
        b: Var,
    },
    Conv2d {
        x: Var,
        w: Var,
        geom: ConvGeom,
        cols: Vec<f32>,
    },
    DwConv2d {
        x: Var,
        w: Var,
        geom: ConvGeom,
    },
    MaxPool {
        x: Var,
        geom: ConvGeom,
        arg: Vec<u32>,
    },
    AvgPool {
        x: Var,
        geom: ConvGeom,
    },
    GlobalAvgPool {
        x: Var,
    },
    BatchNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        mean: Vec<f32>,
        inv_std: Vec<f32>,
    },
    FusedConvBn {
        x: Var,
        w: Var,
        gamma: Var,
        beta: Var,
        geom: ConvGeom,
        cols: Vec<f32>,
        /// Pre-normalization conv output (the BN backward input).
        conv_out: Tensor,
        mean: Vec<f32>,
        inv_std: Vec<f32>,
        pre_relu: bool,
    },
    ConcatChan(Vec<Var>),
    SoftmaxCrossEntropy {
        logits: Var,
        labels: Vec<usize>,
        probs: Tensor,
    },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: OpRecord,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            value: Tensor::default(),
            grad: None,
            op: OpRecord::Leaf,
        }
    }
}

/// A single-use forward/backward tape.
///
/// # Examples
///
/// ```
/// use yoso_tensor::{Graph, ParamStore, Tensor};
/// let mut store = ParamStore::new();
/// let w = store.add(Tensor::ones(&[2, 1]));
/// let mut g = Graph::new();
/// let x = g.input(Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
/// let wv = g.param(&store, w);
/// let y = g.matmul(x, wv);
/// assert_eq!(g.value(y).data(), &[3.0, 7.0]);
/// ```
pub struct Graph {
    nodes: Vec<Node>,
    scratch: Scratch,
    /// Epsilon used by batch normalization.
    pub bn_eps: f32,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::with_scratch(Scratch::new())
    }

    /// Creates an empty graph that draws conv, depthwise and pooling
    /// workspaces from `scratch`.
    ///
    /// Thread the arena from step to step —
    /// `Graph::with_scratch(prev)` … [`Graph::backward_scratch`] — and
    /// column buffers and tap tables are built once, then recycled for
    /// the rest of training.
    pub fn with_scratch(scratch: Scratch) -> Self {
        Graph {
            nodes: Vec::new(),
            scratch,
            bn_eps: 1e-5,
        }
    }

    fn push(&mut self, value: Tensor, op: OpRecord) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Number of nodes currently on the tape.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Registers an input (constant) tensor.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, OpRecord::Leaf)
    }

    /// References a parameter from `store`; gradients flow back to it.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), OpRecord::Param(id))
    }

    /// The parameters on the tape, each once, in increasing id order:
    /// the only gradients [`Graph::backward`] can make non-zero.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids: Vec<ParamId> = self
            .nodes
            .iter()
            .filter_map(|node| match node.op {
                OpRecord::Param(id) => Some(id),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Elementwise sum; shapes must match.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.nodes[a.0].value.clone();
        out.add_in_place(&self.nodes[b.0].value);
        self.push(out, OpRecord::Add(a, b))
    }

    /// Multiplication by a constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let mut out = self.nodes[a.0].value.clone();
        out.scale_in_place(s);
        self.push(out, OpRecord::Scale(a, s))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut out = self.nodes[a.0].value.clone();
        for v in out.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        self.push(out, OpRecord::Relu(a))
    }

    /// Matrix product of 2-D tensors `a [m,k] * b [k,n]`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (sa, sb) = (self.nodes[a.0].value.shape(), self.nodes[b.0].value.shape());
        assert_eq!(sa.len(), 2);
        assert_eq!(sb.len(), 2);
        assert_eq!(sa[1], sb[0], "matmul {:?} x {:?}", sa, sb);
        let (m, k, n) = (sa[0], sa[1], sb[1]);
        let mut out = Tensor::zeros(&[m, n]);
        sgemm_acc(
            m,
            k,
            n,
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            out.data_mut(),
        );
        self.push(out, OpRecord::MatMul(a, b))
    }

    /// Fully connected layer `y = x w^T + b` with `x [n, din]`,
    /// `w [dout, din]`, `b [dout]`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let sx = self.nodes[x.0].value.shape().to_vec();
        let sw = self.nodes[w.0].value.shape().to_vec();
        assert_eq!(sx.len(), 2, "linear input must be 2-D");
        assert_eq!(sw.len(), 2, "linear weight must be 2-D");
        assert_eq!(sx[1], sw[1], "linear: x {:?} w {:?}", sx, sw);
        let (n, din, dout) = (sx[0], sx[1], sw[0]);
        assert_eq!(self.nodes[b.0].value.len(), dout);
        let mut out = Tensor::zeros(&[n, dout]);
        sgemm_a_bt_acc(
            n,
            din,
            dout,
            self.nodes[x.0].value.data(),
            self.nodes[w.0].value.data(),
            out.data_mut(),
        );
        let bias = self.nodes[b.0].value.data().to_vec();
        for row in 0..n {
            for (o, bv) in out.data_mut()[row * dout..(row + 1) * dout]
                .iter_mut()
                .zip(&bias)
            {
                *o += bv;
            }
        }
        self.push(out, OpRecord::Linear { x, w, b })
    }

    /// 2-D convolution (no bias); `x [n,cin,h,w]`, `w [cout,cin,k,k]`.
    pub fn conv2d(&mut self, x: Var, w: Var, geom: ConvGeom) -> Var {
        let (out, cols) = conv2d_forward_scratch(
            &self.nodes[x.0].value,
            &self.nodes[w.0].value,
            geom,
            false,
            &mut self.scratch,
        );
        self.push(out, OpRecord::Conv2d { x, w, geom, cols })
    }

    /// Fused `[ReLU →] conv2d → batch-norm` in a single tape node.
    ///
    /// Produces bit-identical values to the unfused
    /// `relu` + [`Graph::conv2d`] + [`Graph::batch_norm`] sequence (the
    /// same kernels and the same BN statistics loops run under the hood)
    /// while materializing neither the ReLU output nor a separate conv
    /// node: with `pre_relu = true` the ReLU is applied on the fly during
    /// im2col lowering, and the normalization statistics are computed
    /// directly on the conv output.
    pub fn fused_conv_bn(
        &mut self,
        x: Var,
        w: Var,
        gamma: Var,
        beta: Var,
        geom: ConvGeom,
        pre_relu: bool,
    ) -> Var {
        let (conv_out, cols) = conv2d_forward_scratch(
            &self.nodes[x.0].value,
            &self.nodes[w.0].value,
            geom,
            pre_relu,
            &mut self.scratch,
        );
        let (n, c, h, w4) = shape4(&conv_out);
        assert_eq!(self.nodes[gamma.0].value.len(), c);
        assert_eq!(self.nodes[beta.0].value.len(), c);
        let (out, mean, inv_std) = batch_norm_forward(
            conv_out.data(),
            n,
            c,
            h,
            w4,
            self.bn_eps,
            self.nodes[gamma.0].value.data(),
            self.nodes[beta.0].value.data(),
        );
        self.push(
            out,
            OpRecord::FusedConvBn {
                x,
                w,
                gamma,
                beta,
                geom,
                cols,
                conv_out,
                mean,
                inv_std,
                pre_relu,
            },
        )
    }

    /// Depthwise 2-D convolution; `x [n,c,h,w]`, `w [c,k,k]`.
    pub fn dwconv2d(&mut self, x: Var, w: Var, geom: ConvGeom) -> Var {
        let (x_val, w_val) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
        let out = dwconv2d_forward(x_val, w_val, geom, &mut self.scratch);
        self.push(out, OpRecord::DwConv2d { x, w, geom })
    }

    /// Max pooling.
    pub fn maxpool(&mut self, x: Var, geom: ConvGeom) -> Var {
        let (out, arg) = maxpool_forward(&self.nodes[x.0].value, geom, &mut self.scratch);
        self.push(out, OpRecord::MaxPool { x, geom, arg })
    }

    /// Average pooling (padding excluded from divisor).
    pub fn avgpool(&mut self, x: Var, geom: ConvGeom) -> Var {
        let out = avgpool_forward(&self.nodes[x.0].value, geom, &mut self.scratch);
        self.push(out, OpRecord::AvgPool { x, geom })
    }

    /// Global average pooling `[n,c,h,w] -> [n,c]`.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let (n, c, h, w) = shape4(&self.nodes[x.0].value);
        let mut out = Tensor::zeros(&[n, c]);
        let inv = 1.0 / (h * w) as f32;
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * h * w;
                let s: f32 = self.nodes[x.0].value.data()[base..base + h * w]
                    .iter()
                    .sum();
                out.data_mut()[i * c + ch] = s * inv;
            }
        }
        self.push(out, OpRecord::GlobalAvgPool { x })
    }

    /// Batch normalization over `(N, H, W)` per channel using *batch*
    /// statistics (the one-shot-NAS convention: batch stats are used at
    /// evaluation time as well). `gamma`/`beta` are `[c]` parameters.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn batch_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let (n, c, h, w) = shape4(&self.nodes[x.0].value);
        assert_eq!(self.nodes[gamma.0].value.len(), c);
        assert_eq!(self.nodes[beta.0].value.len(), c);
        let (out, mean, inv_std) = batch_norm_forward(
            self.nodes[x.0].value.data(),
            n,
            c,
            h,
            w,
            self.bn_eps,
            self.nodes[gamma.0].value.data(),
            self.nodes[beta.0].value.data(),
        );
        self.push(
            out,
            OpRecord::BatchNorm {
                x,
                gamma,
                beta,
                mean,
                inv_std,
            },
        )
    }

    /// Concatenation along the channel dimension of NCHW tensors.
    ///
    /// # Panics
    ///
    /// Panics if batch or spatial dims differ, or `parts` is empty.
    pub fn concat_channels(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let (n, _, h, w) = shape4(&self.nodes[parts[0].0].value);
        let mut c_total = 0;
        for p in parts {
            let (pn, pc, ph, pw) = shape4(&self.nodes[p.0].value);
            assert_eq!((pn, ph, pw), (n, h, w), "concat mismatched dims");
            c_total += pc;
        }
        let mut out = Tensor::zeros(&[n, c_total, h, w]);
        {
            let od = out.data_mut();
            for i in 0..n {
                let mut c_off = 0;
                for p in parts {
                    let (_, pc, _, _) = shape4(&self.nodes[p.0].value);
                    let src = &self.nodes[p.0].value.data()[i * pc * h * w..(i + 1) * pc * h * w];
                    let dst_base = (i * c_total + c_off) * h * w;
                    od[dst_base..dst_base + pc * h * w].copy_from_slice(src);
                    c_off += pc;
                }
            }
        }
        self.push(out, OpRecord::ConcatChan(parts.to_vec()))
    }

    /// Fused softmax + mean cross-entropy loss over a batch.
    /// `logits [n, k]`, `labels` of length `n`. Returns a scalar node.
    ///
    /// # Panics
    ///
    /// Panics if a label is out of range or lengths mismatch.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let s = self.nodes[logits.0].value.shape();
        assert_eq!(s.len(), 2);
        let (n, k) = (s[0], s[1]);
        assert_eq!(labels.len(), n, "labels/batch mismatch");
        let ld = self.nodes[logits.0].value.data();
        let mut probs = Tensor::zeros(&[n, k]);
        let mut loss = 0.0f32;
        for i in 0..n {
            assert!(labels[i] < k, "label {} out of range {}", labels[i], k);
            let row = &ld[i * k..(i + 1) * k];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            let prow = &mut probs.data_mut()[i * k..(i + 1) * k];
            for (p, v) in prow.iter_mut().zip(row) {
                *p = (v - mx).exp();
                denom += *p;
            }
            for p in prow.iter_mut() {
                *p /= denom;
            }
            loss -= prow[labels[i]].max(1e-12).ln();
        }
        loss /= n as f32;
        self.push(
            Tensor::from_vec(&[1], vec![loss]),
            OpRecord::SoftmaxCrossEntropy {
                logits,
                labels: labels.to_vec(),
                probs,
            },
        )
    }

    /// Runs reverse-mode differentiation from `loss`, consuming the graph
    /// and accumulating parameter gradients into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (single-element) node.
    pub fn backward(self, loss: Var, store: &mut ParamStore) {
        let _ = self.backward_scratch(loss, store);
    }

    /// Like [`Graph::backward`], but returns the workspace arena (with
    /// every conv buffer reclaimed from the tape) so the caller can feed
    /// it to the next step's [`Graph::with_scratch`]. While tracing is
    /// on, each call records one `tape.backward` span.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (single-element) node.
    pub fn backward_scratch(mut self, loss: Var, store: &mut ParamStore) -> Scratch {
        let _span = yoso_trace::span("tape.backward");
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward must start from a scalar"
        );
        let seed = Tensor::ones(self.nodes[loss.0].value.shape());
        self.nodes[loss.0].grad = Some(seed);
        for i in (0..self.nodes.len()).rev() {
            if self.nodes[i].grad.is_none() {
                continue;
            }
            let node = std::mem::take(&mut self.nodes[i]);
            let g = node.grad.expect("checked above");
            match node.op {
                OpRecord::Leaf => {}
                OpRecord::Param(id) => store.accumulate_grad(id, &g),
                OpRecord::Add(a, b) => {
                    self.accumulate(a, g.clone());
                    self.accumulate(b, g);
                }
                OpRecord::Scale(a, s) => {
                    let mut ga = g;
                    ga.scale_in_place(s);
                    self.accumulate(a, ga);
                }
                OpRecord::Relu(a) => {
                    let mut ga = g;
                    for (gv, ov) in ga.data_mut().iter_mut().zip(node.value.data()) {
                        if *ov <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                    self.accumulate(a, ga);
                }
                OpRecord::MatMul(a, b) => {
                    let (m, k) = {
                        let sa = self.nodes[a.0].value.shape();
                        (sa[0], sa[1])
                    };
                    let n = self.nodes[b.0].value.shape()[1];
                    let mut da = Tensor::zeros(&[m, k]);
                    // da = g * b^T ; b is [k, n]
                    sgemm_a_bt_acc(
                        m,
                        n,
                        k,
                        g.data(),
                        self.nodes[b.0].value.data(),
                        da.data_mut(),
                    );
                    let mut db = Tensor::zeros(&[k, n]);
                    // db = a^T * g ; a is [m, k]
                    sgemm_at_b_acc(
                        k,
                        m,
                        n,
                        self.nodes[a.0].value.data(),
                        g.data(),
                        db.data_mut(),
                    );
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                OpRecord::Linear { x, w, b } => {
                    let (n, dout) = {
                        let s = g.shape();
                        (s[0], s[1])
                    };
                    let din = self.nodes[x.0].value.shape()[1];
                    let mut dx = Tensor::zeros(&[n, din]);
                    // dx = g [n,dout] * w [dout,din]
                    sgemm_acc(
                        n,
                        dout,
                        din,
                        g.data(),
                        self.nodes[w.0].value.data(),
                        dx.data_mut(),
                    );
                    let mut dw = Tensor::zeros(&[dout, din]);
                    // dw = g^T [dout,n] * x [n,din]
                    sgemm_at_b_acc(
                        dout,
                        n,
                        din,
                        g.data(),
                        self.nodes[x.0].value.data(),
                        dw.data_mut(),
                    );
                    let mut db = Tensor::zeros(&[dout]);
                    for row in 0..n {
                        for (dv, gv) in db
                            .data_mut()
                            .iter_mut()
                            .zip(&g.data()[row * dout..(row + 1) * dout])
                        {
                            *dv += gv;
                        }
                    }
                    self.accumulate(x, dx);
                    self.accumulate(w, dw);
                    self.accumulate(b, db);
                }
                OpRecord::Conv2d { x, w, geom, cols } => {
                    let (dx, dw) = conv2d_backward_scratch(
                        &self.nodes[x.0].value,
                        &self.nodes[w.0].value,
                        geom,
                        &cols,
                        &g,
                        &mut self.scratch,
                    );
                    self.scratch.give(cols);
                    self.accumulate(x, dx);
                    self.accumulate(w, dw);
                }
                OpRecord::FusedConvBn {
                    x,
                    w,
                    gamma,
                    beta,
                    geom,
                    cols,
                    conv_out,
                    mean,
                    inv_std,
                    pre_relu,
                } => {
                    let (nn, c, hh, ww) = shape4(&conv_out);
                    let (dconv, dgamma, dbeta) = batch_norm_backward(
                        conv_out.data(),
                        g.data(),
                        self.nodes[gamma.0].value.data(),
                        &mean,
                        &inv_std,
                        nn,
                        c,
                        hh,
                        ww,
                    );
                    // The conv consumed relu(x) (or x); the backward only
                    // needs that input's *shape* plus the cached cols, so
                    // passing x directly is exact.
                    let (mut dx, dw) = conv2d_backward_scratch(
                        &self.nodes[x.0].value,
                        &self.nodes[w.0].value,
                        geom,
                        &cols,
                        &dconv,
                        &mut self.scratch,
                    );
                    self.scratch.give(cols);
                    if pre_relu {
                        // relu(x) <= 0 exactly where x <= 0, matching the
                        // unfused Relu node's mask.
                        for (gv, xv) in dx.data_mut().iter_mut().zip(self.nodes[x.0].value.data()) {
                            if *xv <= 0.0 {
                                *gv = 0.0;
                            }
                        }
                    }
                    self.accumulate(x, dx);
                    self.accumulate(w, dw);
                    self.accumulate(gamma, dgamma);
                    self.accumulate(beta, dbeta);
                }
                OpRecord::DwConv2d { x, w, geom } => {
                    let (x_val, w_val) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
                    let (dx, dw) = dwconv2d_backward(x_val, w_val, geom, &g, &mut self.scratch);
                    self.accumulate(x, dx);
                    self.accumulate(w, dw);
                }
                OpRecord::MaxPool { x, geom, arg } => {
                    let dx = maxpool_backward(self.nodes[x.0].value.shape(), geom, &arg, &g);
                    self.accumulate(x, dx);
                }
                OpRecord::AvgPool { x, geom } => {
                    let x_shape = self.nodes[x.0].value.shape();
                    let dx = avgpool_backward(x_shape, geom, &g, &mut self.scratch);
                    self.accumulate(x, dx);
                }
                OpRecord::GlobalAvgPool { x } => {
                    let (n, c, h, w) = shape4(&self.nodes[x.0].value);
                    let inv = 1.0 / (h * w) as f32;
                    let mut dx = Tensor::zeros(&[n, c, h, w]);
                    for i in 0..n {
                        for ch in 0..c {
                            let gv = g.data()[i * c + ch] * inv;
                            let base = (i * c + ch) * h * w;
                            for v in &mut dx.data_mut()[base..base + h * w] {
                                *v = gv;
                            }
                        }
                    }
                    self.accumulate(x, dx);
                }
                OpRecord::BatchNorm {
                    x,
                    gamma,
                    beta,
                    mean,
                    inv_std,
                } => {
                    let (n, c, h, w) = shape4(&self.nodes[x.0].value);
                    let (dx, dgamma, dbeta) = batch_norm_backward(
                        self.nodes[x.0].value.data(),
                        g.data(),
                        self.nodes[gamma.0].value.data(),
                        &mean,
                        &inv_std,
                        n,
                        c,
                        h,
                        w,
                    );
                    self.accumulate(x, dx);
                    self.accumulate(gamma, dgamma);
                    self.accumulate(beta, dbeta);
                }
                OpRecord::ConcatChan(parts) => {
                    let (n, c_total, h, w) = {
                        let s = g.shape();
                        (s[0], s[1], s[2], s[3])
                    };
                    let mut c_off = 0;
                    for p in parts {
                        let (_, pc, _, _) = shape4(&self.nodes[p.0].value);
                        let mut dp = Tensor::zeros(&[n, pc, h, w]);
                        for i in 0..n {
                            let src_base = (i * c_total + c_off) * h * w;
                            let dst_base = i * pc * h * w;
                            dp.data_mut()[dst_base..dst_base + pc * h * w]
                                .copy_from_slice(&g.data()[src_base..src_base + pc * h * w]);
                        }
                        self.accumulate(p, dp);
                        c_off += pc;
                    }
                }
                OpRecord::SoftmaxCrossEntropy {
                    logits,
                    labels,
                    probs,
                } => {
                    let (n, k) = (probs.shape()[0], probs.shape()[1]);
                    let scale = g.data()[0] / n as f32;
                    let mut dl = probs;
                    for i in 0..n {
                        dl.data_mut()[i * k + labels[i]] -= 1.0;
                    }
                    dl.scale_in_place(scale);
                    self.accumulate(logits, dl);
                }
            }
        }
        self.scratch
    }

    fn accumulate(&mut self, v: Var, g: Tensor) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_in_place(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

/// Batch-norm forward over NCHW data with batch statistics. Returns
/// `(normalized output, per-channel mean, per-channel 1/std)`.
///
/// Shared by [`Graph::batch_norm`] and [`Graph::fused_conv_bn`] so the
/// fused op is bit-identical to the unfused sequence.
#[allow(clippy::too_many_arguments)]
pub fn batch_norm_forward(
    xs: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    eps: f32,
    gamma: &[f32],
    beta: &[f32],
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (mean, inv_std) = batch_norm_stats(xs, n, c, h, w, eps);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    {
        let od = out.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * h * w;
                let (mu, is, ga, be) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
                for (o, v) in od[base..base + h * w]
                    .iter_mut()
                    .zip(&xs[base..base + h * w])
                {
                    *o = ga * (v - mu) * is + be;
                }
            }
        }
    }
    (out, mean, inv_std)
}

/// [`batch_norm_forward`] overwriting its input, for inference: the same
/// statistics and the same per-element arithmetic, so the same bits,
/// without allocating an output or keeping the statistics.
#[allow(clippy::too_many_arguments)]
pub fn batch_norm_in_place(
    xs: &mut [f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    eps: f32,
    gamma: &[f32],
    beta: &[f32],
) {
    let (mean, inv_std) = batch_norm_stats(xs, n, c, h, w, eps);
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            let (mu, is, ga, be) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
            for v in &mut xs[base..base + h * w] {
                *v = ga * (*v - mu) * is + be;
            }
        }
    }
}

/// Per-channel batch mean and `1/sqrt(biased variance + eps)` over NCHW
/// data.
fn batch_norm_stats(
    xs: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    eps: f32,
) -> (Vec<f32>, Vec<f32>) {
    let m = (n * h * w) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            for v in &xs[base..base + h * w] {
                mean[ch] += v;
            }
        }
    }
    for mv in &mut mean {
        *mv /= m;
    }
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            for v in &xs[base..base + h * w] {
                let d = v - mean[ch];
                var[ch] += d * d;
            }
        }
    }
    let inv_std = var.iter().map(|v| 1.0 / (v / m + eps).sqrt()).collect();
    (mean, inv_std)
}

/// Batch-norm backward over NCHW data. `xs` is the forward *input*;
/// returns `(dx, dgamma, dbeta)`. Shared by the `BatchNorm` and
/// `FusedConvBn` tape records.
#[allow(clippy::too_many_arguments)]
fn batch_norm_backward(
    xs: &[f32],
    gs: &[f32],
    gamma: &[f32],
    mean: &[f32],
    inv_std: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
) -> (Tensor, Tensor, Tensor) {
    let m = (n * h * w) as f32;
    let mut dgamma = Tensor::zeros(&[c]);
    let mut dbeta = Tensor::zeros(&[c]);
    let mut sum_dy = vec![0.0f32; c];
    let mut sum_dy_xhat = vec![0.0f32; c];
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            let (mu, is) = (mean[ch], inv_std[ch]);
            for j in 0..h * w {
                let xhat = (xs[base + j] - mu) * is;
                let dy = gs[base + j];
                sum_dy[ch] += dy;
                sum_dy_xhat[ch] += dy * xhat;
            }
        }
    }
    for ch in 0..c {
        dgamma.data_mut()[ch] = sum_dy_xhat[ch];
        dbeta.data_mut()[ch] = sum_dy[ch];
    }
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    {
        let dxd = dx.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * h * w;
                let (mu, is, ga) = (mean[ch], inv_std[ch], gamma[ch]);
                let coef = ga * is / m;
                for j in 0..h * w {
                    let xhat = (xs[base + j] - mu) * is;
                    dxd[base + j] = coef * (m * gs[base + j] - sum_dy[ch] - xhat * sum_dy_xhat[ch]);
                }
            }
        }
    }
    (dx, dgamma, dbeta)
}

/// Fraction of rows whose argmax matches the label.
///
/// # Panics
///
/// Panics if `logits` is not 2-D or lengths mismatch.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let s = logits.shape();
    assert_eq!(s.len(), 2);
    let (n, k) = (s[0], s[1]);
    assert_eq!(labels.len(), n);
    if n == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for i in 0..n {
        let row = &logits.data()[i * k..(i + 1) * k];
        let mut best = 0usize;
        for j in 1..k {
            if row[j] > row[best] {
                best = j;
            }
        }
        if best == labels[i] {
            correct += 1;
        }
    }
    correct as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_diff_param(
        build: &dyn Fn(&mut Graph, &ParamStore) -> Var,
        store: &mut ParamStore,
        id: ParamId,
        indices: &[usize],
    ) {
        // Analytic gradient.
        store.zero_grads();
        let mut g = Graph::new();
        let loss = build(&mut g, store);
        g.backward(loss, store);
        let analytic = store.grad(id).clone();
        // Numeric gradient.
        let eps = 1e-2f32;
        for &idx in indices {
            let orig = store.value(id).data()[idx];
            store.value_mut(id).data_mut()[idx] = orig + eps;
            let mut g1 = Graph::new();
            let l1 = build(&mut g1, store);
            let f1 = g1.value(l1).data()[0];
            store.value_mut(id).data_mut()[idx] = orig - eps;
            let mut g2 = Graph::new();
            let l2 = build(&mut g2, store);
            let f2 = g2.value(l2).data()[0];
            store.value_mut(id).data_mut()[idx] = orig;
            let num = (f1 - f2) / (2.0 * eps);
            let ana = analytic.data()[idx];
            assert!(
                (num - ana).abs() < 0.03 * (1.0 + num.abs().max(ana.abs())),
                "param grad[{idx}]: fd {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn add_scale_relu_backward() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let w = store.add(Tensor::randn(&[1, 8], 1.0, &mut rng));
        let build = |g: &mut Graph, s: &ParamStore| {
            let x = g.input(Tensor::from_vec(
                &[1, 8],
                vec![1.0, -2.0, 0.5, 3.0, -0.1, 0.0, 2.0, -4.0],
            ));
            let wv = g.param(s, w);
            let a = g.add(x, wv);
            let r = g.relu(a);
            let sum_w = g.input(Tensor::ones(&[8, 1]));
            let out = g.matmul(r, sum_w);
            g.scale(out, 0.5)
        };
        finite_diff_param(&build, &mut store, w, &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn linear_backward_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let w = store.add(Tensor::randn(&[3, 4], 0.7, &mut rng));
        let b = store.add(Tensor::randn(&[3], 0.3, &mut rng));
        let x_data = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let labels = vec![0usize, 2];
        let build = move |g: &mut Graph, s: &ParamStore| {
            let x = g.input(x_data.clone());
            let wv = g.param(s, w);
            let bv = g.param(s, b);
            let y = g.linear(x, wv, bv);
            g.softmax_cross_entropy(y, &labels)
        };
        finite_diff_param(&build, &mut store, w, &[0, 3, 7, 11]);
        finite_diff_param(&build, &mut store, b, &[0, 1, 2]);
    }

    #[test]
    fn batchnorm_backward_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let gamma = store.add(Tensor::ones(&[3]));
        let beta = store.add(Tensor::zeros(&[3]));
        let w = store.add(Tensor::randn(&[2, 3, 1, 1], 0.5, &mut rng));
        let x_data = Tensor::randn(&[4, 3, 4, 4], 1.5, &mut rng);
        let labels = vec![0usize, 1, 0, 1];
        let build = move |g: &mut Graph, s: &ParamStore| {
            let x = g.input(x_data.clone());
            let ga = g.param(s, gamma);
            let be = g.param(s, beta);
            let y = g.batch_norm(x, ga, be);
            let wv = g.param(s, w);
            let z = g.conv2d(y, wv, ConvGeom::new(1, 1, 0));
            let p = g.global_avg_pool(z);
            g.softmax_cross_entropy(p, &labels)
        };
        finite_diff_param(&build, &mut store, gamma, &[0, 1, 2]);
        finite_diff_param(&build, &mut store, beta, &[0, 1, 2]);
        finite_diff_param(&build, &mut store, w, &[0, 2, 5]);
    }

    #[test]
    fn conv_pool_concat_pipeline_backward() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let w1 = store.add(Tensor::randn(&[4, 3, 3, 3], 0.4, &mut rng));
        let wd = store.add(Tensor::randn(&[4, 3, 3], 0.4, &mut rng));
        let wl = store.add(Tensor::randn(&[2, 8], 0.4, &mut rng));
        let bl = store.add(Tensor::zeros(&[2]));
        let x_data = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let labels = vec![0usize, 1];
        let build = move |g: &mut Graph, s: &ParamStore| {
            let x = g.input(x_data.clone());
            let w1v = g.param(s, w1);
            let c = g.conv2d(x, w1v, ConvGeom::same(3, 2));
            let r = g.relu(c);
            let wdv = g.param(s, wd);
            let d = g.dwconv2d(r, wdv, ConvGeom::same(3, 1));
            let mp = g.maxpool(r, ConvGeom::same(3, 1));
            let ap = g.avgpool(d, ConvGeom::same(3, 1));
            let cat = g.concat_channels(&[mp, ap]);
            let p = g.global_avg_pool(cat);
            let wlv = g.param(s, wl);
            let blv = g.param(s, bl);
            let y = g.linear(p, wlv, blv);
            g.softmax_cross_entropy(y, &labels)
        };
        finite_diff_param(&build, &mut store, w1, &[0, 10, 50, 107]);
        finite_diff_param(&build, &mut store, wd, &[0, 17, 35]);
        finite_diff_param(&build, &mut store, wl, &[0, 7, 15]);
    }

    /// The fused ReLU→conv→BN node must be *bit-identical* to the unfused
    /// three-node sequence: same forward values, same parameter gradients.
    #[test]
    fn fused_conv_bn_matches_unfused_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let x_data = Tensor::randn(&[3, 2, 5, 5], 1.0, &mut rng);
        let w_data = Tensor::randn(&[4, 2, 3, 3], 0.5, &mut rng);
        let labels = vec![0usize, 1, 0];
        for pre_relu in [true, false] {
            let mut store_a = ParamStore::new();
            let wa = store_a.add(w_data.clone());
            let ga_a = store_a.add(Tensor::from_vec(&[4], vec![1.0, 0.7, 1.3, 0.9]));
            let be_a = store_a.add(Tensor::from_vec(&[4], vec![0.0, 0.2, -0.1, 0.05]));
            let mut store_b = store_a.clone();
            // Unfused.
            let mut g1 = Graph::new();
            let x1 = g1.input(x_data.clone());
            let pre = if pre_relu { g1.relu(x1) } else { x1 };
            let wv = g1.param(&store_a, wa);
            let c1 = g1.conv2d(pre, wv, ConvGeom::same(3, 2));
            let gav = g1.param(&store_a, ga_a);
            let bev = g1.param(&store_a, be_a);
            let y1 = g1.batch_norm(c1, gav, bev);
            let p1 = g1.global_avg_pool(y1);
            let l1 = g1.softmax_cross_entropy(p1, &labels);
            let y1_val = g1.value(y1).clone();
            store_a.zero_grads();
            g1.backward(l1, &mut store_a);
            // Fused.
            let mut g2 = Graph::new();
            let x2 = g2.input(x_data.clone());
            let wv2 = g2.param(&store_b, wa);
            let gav2 = g2.param(&store_b, ga_a);
            let bev2 = g2.param(&store_b, be_a);
            let y2 = g2.fused_conv_bn(x2, wv2, gav2, bev2, ConvGeom::same(3, 2), pre_relu);
            let p2 = g2.global_avg_pool(y2);
            let l2 = g2.softmax_cross_entropy(p2, &labels);
            let y2_val = g2.value(y2).clone();
            store_b.zero_grads();
            g2.backward(l2, &mut store_b);
            assert_eq!(
                y1_val.data(),
                y2_val.data(),
                "forward (pre_relu={pre_relu})"
            );
            for id in [wa, ga_a, be_a] {
                assert_eq!(
                    store_a.grad(id).data(),
                    store_b.grad(id).data(),
                    "grad (pre_relu={pre_relu})"
                );
            }
        }
    }

    /// Scratch threading: conv workspaces survive a forward/backward round
    /// trip and get recycled by the next step instead of reallocated.
    #[test]
    fn scratch_recycles_conv_buffers_across_steps() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let w = store.add(Tensor::randn(&[4, 3, 3, 3], 0.4, &mut rng));
        let x_data = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let labels = vec![0usize, 1];
        let mut scratch = crate::scratch::Scratch::new();
        let mut first_pooled = 0;
        for step in 0..3 {
            let mut g = Graph::with_scratch(std::mem::take(&mut scratch));
            let x = g.input(x_data.clone());
            let wv = g.param(&store, w);
            let c = g.conv2d(x, wv, ConvGeom::same(3, 1));
            let p = g.global_avg_pool(c);
            let loss = g.softmax_cross_entropy(p, &labels);
            store.zero_grads();
            scratch = g.backward_scratch(loss, &mut store);
            if step == 0 {
                first_pooled = scratch.pooled();
                assert!(first_pooled >= 2, "cols + dcol should be pooled");
            } else {
                // Steady state: same buffers cycle, the pool doesn't grow.
                assert_eq!(scratch.pooled(), first_pooled);
            }
        }
    }

    #[test]
    fn softmax_ce_known_value() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::from_vec(&[1, 2], vec![0.0, 0.0]));
        let loss = g.softmax_cross_entropy(logits, &[0]);
        let expected = (2.0f32).ln();
        assert!((g.value(loss).data()[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn accuracy_helper() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 5.0, 2.0, 9.0, 0.0, 1.0]);
        assert_eq!(accuracy(&logits, &[1, 0]), 1.0);
        assert_eq!(accuracy(&logits, &[0, 0]), 0.5);
    }

    /// End-to-end sanity: a tiny conv net learns a separable toy problem.
    #[test]
    fn tiny_network_learns() {
        use crate::optim::Sgd;
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let wc = store.add(Tensor::he_normal(&[4, 1, 3, 3], 9, &mut rng));
        let wl = store.add(Tensor::he_normal(&[2, 4], 4, &mut rng));
        let bl = store.add(Tensor::zeros(&[2]));
        // Class 0: bright left half; class 1: bright right half.
        let make_batch = |rng: &mut StdRng| {
            let n = 16;
            let mut xs = Tensor::zeros(&[n, 1, 6, 6]);
            let mut labels = Vec::with_capacity(n);
            for i in 0..n {
                let cls = i % 2;
                labels.push(cls);
                for y in 0..6 {
                    for x in 0..6 {
                        let lit = if cls == 0 { x < 3 } else { x >= 3 };
                        let base = i * 36 + y * 6 + x;
                        xs.data_mut()[base] = if lit { 1.0 } else { 0.0 }
                            + 0.1
                                * ({
                                    use rand::RngExt;
                                    rng.random::<f32>()
                                } - 0.5);
                    }
                }
            }
            (xs, labels)
        };
        let mut opt = Sgd::new(0.1, 0.9, 1e-4);
        let mut last_acc = 0.0;
        for _ in 0..60 {
            let (xs, labels) = make_batch(&mut rng);
            let mut g = Graph::new();
            let x = g.input(xs);
            let wcv = g.param(&store, wc);
            let c = g.conv2d(x, wcv, ConvGeom::same(3, 1));
            let r = g.relu(c);
            let p = g.global_avg_pool(r);
            let wlv = g.param(&store, wl);
            let blv = g.param(&store, bl);
            let y = g.linear(p, wlv, blv);
            let loss = g.softmax_cross_entropy(y, &labels);
            last_acc = accuracy(g.value(y), &labels);
            store.zero_grads();
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(last_acc > 0.9, "accuracy {last_acc}");
    }
}
