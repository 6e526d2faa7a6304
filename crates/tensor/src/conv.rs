//! Convolution and pooling kernels (NCHW layout).
//!
//! These are free functions on raw [`Tensor`]s; the autograd
//! [`Graph`](crate::graph::Graph) wraps them into differentiable nodes.

#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

use crate::matmul::{sgemm, sgemm_a_bt_acc, sgemm_at_b_acc};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Static geometry of a 2-D convolution / pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Square kernel size.
    pub k: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub pad: usize,
}

impl ConvGeom {
    /// Creates a geometry descriptor.
    pub fn new(k: usize, stride: usize, pad: usize) -> Self {
        ConvGeom { k, stride, pad }
    }

    /// Geometry preserving spatial size at stride 1 (`pad = k/2`).
    pub fn same(k: usize, stride: usize) -> Self {
        ConvGeom {
            k,
            stride,
            pad: k / 2,
        }
    }

    /// Output spatial extent for an input extent `h`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit (`h + 2*pad < k`).
    pub fn out_dim(&self, h: usize) -> usize {
        assert!(
            h + 2 * self.pad >= self.k,
            "window larger than padded input"
        );
        (h + 2 * self.pad - self.k) / self.stride + 1
    }
}

/// Lowers one sample `x[c, h, w]` into a column matrix `[c*k*k, hout*wout]`.
///
/// With `RELU = true`, applies `max(0, ·)` to each element while copying —
/// the fused forward path uses this to avoid materializing a separate
/// ReLU output tensor. The flag is a const generic so the branch
/// disappears from the generated inner loops.
///
/// `inline(always)`: training and inference both lower through
/// [`conv_sample`], and with two callers rustc would otherwise outline
/// this loop nest out of `conv2d_forward_scratch`.
#[inline(always)]
fn im2col<const RELU: bool>(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    g: ConvGeom,
    hout: usize,
    wout: usize,
    col: &mut [f32],
) {
    let k = g.k;
    debug_assert_eq!(col.len(), c * k * k * hout * wout);
    let hw_out = hout * wout;
    for ch in 0..c {
        let xc = &x[ch * h * w..(ch + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = ((ch * k + ky) * k + kx) * hw_out;
                for oy in 0..hout {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    let dst = &mut col[row + oy * wout..row + (oy + 1) * wout];
                    if iy < 0 || iy >= h as isize {
                        for v in dst.iter_mut() {
                            *v = 0.0;
                        }
                        continue;
                    }
                    let xrow = &xc[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, v) in dst.iter_mut().enumerate() {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        *v = if ix < 0 || ix >= w as isize {
                            0.0
                        } else if RELU {
                            xrow[ix as usize].max(0.0)
                        } else {
                            xrow[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Scatters a column-matrix gradient back to the input gradient (adjoint of
/// [`im2col`]): `dx[c, h, w] += col2im(dcol)`.
fn col2im_acc(
    dcol: &[f32],
    c: usize,
    h: usize,
    w: usize,
    g: ConvGeom,
    hout: usize,
    wout: usize,
    dx: &mut [f32],
) {
    let k = g.k;
    let hw_out = hout * wout;
    for ch in 0..c {
        let dxc = &mut dx[ch * h * w..(ch + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = ((ch * k + ky) * k + kx) * hw_out;
                for oy in 0..hout {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src = &dcol[row + oy * wout..row + (oy + 1) * wout];
                    let drow = &mut dxc[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, v) in src.iter().enumerate() {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if ix >= 0 && (ix as usize) < w {
                            drow[ix as usize] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution.
///
/// `x` is `[n, cin, h, w]`, `weight` is `[cout, cin, k, k]`; returns
/// `[n, cout, hout, wout]` along with the cached im2col buffers used by
/// the backward pass.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `geom`.
pub fn conv2d_forward(x: &Tensor, weight: &Tensor, geom: ConvGeom) -> (Tensor, Vec<f32>) {
    conv2d_forward_scratch(x, weight, geom, false, &mut Scratch::new())
}

/// Forward 2-D convolution with an explicit workspace arena and optional
/// fused input ReLU.
///
/// Like [`conv2d_forward`], but the im2col buffer is taken from `scratch`
/// (return it with [`Scratch::give`] after the backward pass to make the
/// next call allocation-free), and `relu_input = true` applies
/// `max(0, ·)` to the input while lowering, so `relu(x)` never needs to
/// be materialized.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `geom`.
pub fn conv2d_forward_scratch(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    relu_input: bool,
    scratch: &mut Scratch,
) -> (Tensor, Vec<f32>) {
    let d = ConvDims::of(x, weight, geom);
    let col_len = d.col_len();
    // im2col overwrites every element (padding is written as an explicit
    // zero), so the recycled buffer's contents don't matter.
    let mut cols = scratch.take(d.n * col_len);
    let mut out = Tensor::zeros(&[d.n, d.cout, d.hout, d.wout]);
    for i in 0..d.n {
        let col = &mut cols[i * col_len..(i + 1) * col_len];
        conv_sample(&d, x, weight, relu_input, i, col, out.data_mut());
    }
    (out, cols)
}

/// Inference-only forward 2-D convolution: bit-identical to
/// [`conv2d_forward_scratch`], but every sample is lowered into one
/// `cin·k·k·hout·wout` column buffer instead of a whole-batch one, no
/// columns are kept for a backward pass, and the output is drawn from
/// `scratch` too. The column buffer goes back to `scratch` on return.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `geom`.
pub fn conv2d_forward_infer(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    relu_input: bool,
    scratch: &mut Scratch,
) -> Tensor {
    let d = ConvDims::of(x, weight, geom);
    let mut col = scratch.take(d.col_len());
    // `sgemm` overwrites every output element, so the recycled buffer's
    // contents don't matter.
    let shape = [d.n, d.cout, d.hout, d.wout];
    let mut out = Tensor::from_vec(&shape, scratch.take(shape.iter().product()));
    for i in 0..d.n {
        conv_sample(&d, x, weight, relu_input, i, &mut col, out.data_mut());
    }
    scratch.give(col);
    out
}

/// Shape-checked dimensions of one conv forward.
struct ConvDims {
    n: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    hout: usize,
    wout: usize,
    geom: ConvGeom,
}

impl ConvDims {
    fn of(x: &Tensor, weight: &Tensor, geom: ConvGeom) -> Self {
        let (n, cin, h, w) = shape4(x);
        let ws = weight.shape();
        assert_eq!(ws.len(), 4, "conv weight must be 4-D");
        assert_eq!(
            ws[1], cin,
            "cin mismatch: weight {:?} input cin {}",
            ws, cin
        );
        assert_eq!(ws[2], geom.k);
        assert_eq!(ws[3], geom.k);
        ConvDims {
            n,
            cin,
            h,
            w,
            cout: ws[0],
            hout: geom.out_dim(h),
            wout: geom.out_dim(w),
            geom,
        }
    }

    /// Length of one sample's column matrix, `cin·k·k × hout·wout`.
    fn col_len(&self) -> usize {
        self.cin * self.geom.k * self.geom.k * self.hout * self.wout
    }
}

/// Lowers sample `i` of `x` into `col` and multiplies it by `weight` into
/// sample `i` of `out`: the per-sample step both conv forwards share.
#[inline(always)]
fn conv_sample(
    d: &ConvDims,
    x: &Tensor,
    weight: &Tensor,
    relu_input: bool,
    i: usize,
    col: &mut [f32],
    out: &mut [f32],
) {
    let (cin, h, w) = (d.cin, d.h, d.w);
    let hw_out = d.hout * d.wout;
    let xi = &x.data()[i * cin * h * w..(i + 1) * cin * h * w];
    if relu_input {
        im2col::<true>(xi, cin, h, w, d.geom, d.hout, d.wout, col);
    } else {
        im2col::<false>(xi, cin, h, w, d.geom, d.hout, d.wout, col);
    }
    sgemm(
        d.cout,
        cin * d.geom.k * d.geom.k,
        hw_out,
        weight.data(),
        col,
        &mut out[i * d.cout * hw_out..(i + 1) * d.cout * hw_out],
    );
}

/// Backward 2-D convolution. Returns `(dx, dweight)`.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    cols: &[f32],
    dout: &Tensor,
) -> (Tensor, Tensor) {
    conv2d_backward_scratch(x, weight, geom, cols, dout, &mut Scratch::new())
}

/// Backward 2-D convolution with an explicit workspace arena for the
/// per-sample `dcol` buffer. Returns `(dx, dweight)`.
pub fn conv2d_backward_scratch(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    cols: &[f32],
    dout: &Tensor,
    scratch: &mut Scratch,
) -> (Tensor, Tensor) {
    let (n, cin, h, w) = shape4(x);
    let cout = weight.shape()[0];
    let hout = geom.out_dim(h);
    let wout = geom.out_dim(w);
    let ckk = cin * geom.k * geom.k;
    let hw_out = hout * wout;
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(weight.shape());
    let mut dcol = scratch.take(ckk * hw_out);
    for i in 0..n {
        let col = &cols[i * ckk * hw_out..(i + 1) * ckk * hw_out];
        let doi = &dout.data()[i * cout * hw_out..(i + 1) * cout * hw_out];
        // dW += dout_i (cout x hw) * col_i^T (hw x ckk)
        sgemm_a_bt_acc(cout, hw_out, ckk, doi, col, dw.data_mut());
        // dcol = W^T (ckk x cout) * dout_i (cout x hw)
        for v in dcol.iter_mut() {
            *v = 0.0;
        }
        sgemm_at_b_acc(ckk, cout, hw_out, weight.data(), doi, &mut dcol);
        col2im_acc(
            &dcol,
            cin,
            h,
            w,
            geom,
            hout,
            wout,
            &mut dx.data_mut()[i * cin * h * w..(i + 1) * cin * h * w],
        );
    }
    scratch.give(dcol);
    (dx, dw)
}

/// Valid output range `[lo, hi)` for window tap `kk`: the outputs `o`
/// with `0 <= o*stride + kk - pad < limit_in`, clamped to `limit_out`.
/// Hoisting this per tap removes every bounds branch from the inner
/// loops of the windowed ops below.
#[inline]
fn tap_range(
    kk: usize,
    pad: usize,
    stride: usize,
    limit_in: usize,
    limit_out: usize,
) -> (usize, usize) {
    let lo = pad.saturating_sub(kk).div_ceil(stride).min(limit_out);
    let hi = (limit_in + pad)
        .saturating_sub(kk)
        .div_ceil(stride)
        .clamp(lo, limit_out);
    (lo, hi)
}

/// Shape `[n, c, hout, wout]` of a window op (depthwise conv, pooling)
/// over `x`.
fn window_out_shape(x: &Tensor, geom: ConvGeom) -> [usize; 4] {
    let (n, c, h, w) = shape4(x);
    [n, c, geom.out_dim(h), geom.out_dim(w)]
}

/// A zeroed tensor of `shape` drawn from `scratch`.
fn zeroed_from(scratch: &mut Scratch, shape: [usize; 4]) -> Tensor {
    Tensor::from_vec(&shape, scratch.take_zeroed(shape.iter().product()))
}

/// Forward depthwise convolution: `x` `[n, c, h, w]`, `weight` `[c, k, k]`.
pub fn dwconv2d_forward(x: &Tensor, weight: &Tensor, geom: ConvGeom) -> Tensor {
    dwconv2d_acc(x, weight, geom, Tensor::zeros(&window_out_shape(x, geom)))
}

/// [`dwconv2d_forward`] with its output drawn from `scratch`.
pub fn dwconv2d_forward_scratch(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    scratch: &mut Scratch,
) -> Tensor {
    let out = zeroed_from(scratch, window_out_shape(x, geom));
    dwconv2d_acc(x, weight, geom, out)
}

/// Accumulates the depthwise convolution of `x` into the zeroed `out`.
fn dwconv2d_acc(x: &Tensor, weight: &Tensor, geom: ConvGeom, mut out: Tensor) -> Tensor {
    let (n, c, h, w) = shape4(x);
    let ws = weight.shape();
    assert_eq!(ws, &[c, geom.k, geom.k], "dwconv weight shape");
    let (hout, wout) = (out.shape()[2], out.shape()[3]);
    let k = geom.k;
    let (s, pad) = (geom.stride, geom.pad);
    // Tap-outer accumulation: for each kernel tap, the valid output
    // rectangle is precomputed and the inner `ox` loop is a branch-free
    // (contiguous when stride 1) multiply-accumulate.
    for i in 0..n {
        for ch in 0..c {
            let xc = &x.data()[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            let wc = &weight.data()[ch * k * k..(ch + 1) * k * k];
            let oc =
                &mut out.data_mut()[(i * c + ch) * hout * wout..(i * c + ch + 1) * hout * wout];
            for ky in 0..k {
                let (oy_lo, oy_hi) = tap_range(ky, pad, s, h, hout);
                for kx in 0..k {
                    let (lo, hi) = tap_range(kx, pad, s, w, wout);
                    if hi == lo {
                        continue;
                    }
                    let wv = wc[ky * k + kx];
                    let x0 = lo * s + kx - pad;
                    for oy in oy_lo..oy_hi {
                        let iy = oy * s + ky - pad;
                        let xrow = &xc[iy * w..(iy + 1) * w];
                        let orow = &mut oc[oy * wout + lo..oy * wout + hi];
                        if s == 1 {
                            for (o, xv) in orow.iter_mut().zip(&xrow[x0..x0 + (hi - lo)]) {
                                *o += wv * *xv;
                            }
                        } else {
                            for (o, xv) in orow.iter_mut().zip(xrow[x0..].iter().step_by(s)) {
                                *o += wv * *xv;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Backward depthwise convolution. Returns `(dx, dweight)`.
pub fn dwconv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    dout: &Tensor,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = shape4(x);
    let k = geom.k;
    let hout = geom.out_dim(h);
    let wout = geom.out_dim(w);
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(weight.shape());
    for i in 0..n {
        for ch in 0..c {
            let xc = &x.data()[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            let wc = &weight.data()[ch * k * k..(ch + 1) * k * k];
            let doc = &dout.data()[(i * c + ch) * hout * wout..(i * c + ch + 1) * hout * wout];
            // Split borrows: accumulate into temporary per-channel buffers.
            let mut dxc = vec![0.0f32; h * w];
            let mut dwc = vec![0.0f32; k * k];
            for oy in 0..hout {
                for ox in 0..wout {
                    let g = doc[oy * wout + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..k {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xi = iy as usize * w + ix as usize;
                            dxc[xi] += g * wc[ky * k + kx];
                            dwc[ky * k + kx] += g * xc[xi];
                        }
                    }
                }
            }
            for (d, v) in dx.data_mut()[(i * c + ch) * h * w..(i * c + ch + 1) * h * w]
                .iter_mut()
                .zip(&dxc)
            {
                *d += v;
            }
            for (d, v) in dw.data_mut()[ch * k * k..(ch + 1) * k * k]
                .iter_mut()
                .zip(&dwc)
            {
                *d += v;
            }
        }
    }
    (dx, dw)
}

/// Forward max pooling; returns the output and the argmax index (into the
/// flattened per-sample input) for each output element, used by backward.
pub fn maxpool_forward(x: &Tensor, geom: ConvGeom) -> (Tensor, Vec<u32>) {
    let shape = window_out_shape(x, geom);
    let mut arg = vec![0u32; shape.iter().product()];
    let out = maxpool_into::<true>(x, geom, Tensor::zeros(&shape), &mut arg);
    (out, arg)
}

/// [`maxpool_forward`]'s output alone, drawn from `scratch`: inference
/// needs no argmax.
pub fn maxpool_forward_scratch(x: &Tensor, geom: ConvGeom, scratch: &mut Scratch) -> Tensor {
    let shape = window_out_shape(x, geom);
    let out = Tensor::from_vec(&shape, scratch.take(shape.iter().product()));
    maxpool_into::<false>(x, geom, out, &mut [])
}

/// Writes every window's maximum into `out` (whose contents are
/// overwritten) and, with `ARG`, its argmax into `arg`.
fn maxpool_into<const ARG: bool>(
    x: &Tensor,
    geom: ConvGeom,
    mut out: Tensor,
    arg: &mut [u32],
) -> Tensor {
    let (n, c, h, w) = shape4(x);
    let (hout, wout) = (out.shape()[2], out.shape()[3]);
    let (s, pad, k) = (geom.stride, geom.pad, geom.k);
    out.data_mut().fill(f32::NEG_INFINITY);
    // Tap-outer running max. Taps are visited in the same (ky, kx) order
    // as the per-window scan and only a *strictly* greater value replaces
    // the running best, so ties resolve to the first tap exactly as
    // before; the branch-free select compiles to cmov/blend.
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            let xc = &x.data()[base..base + h * w];
            let obase = (i * c + ch) * hout * wout;
            let oc = &mut out.data_mut()[obase..obase + hout * wout];
            let ac: &mut [u32] = if ARG {
                &mut arg[obase..obase + hout * wout]
            } else {
                &mut []
            };
            for ky in 0..k {
                let (oy_lo, oy_hi) = tap_range(ky, pad, s, h, hout);
                for kx in 0..k {
                    let (lo, hi) = tap_range(kx, pad, s, w, wout);
                    if hi == lo {
                        continue;
                    }
                    let x0 = lo * s + kx - pad;
                    for oy in oy_lo..oy_hi {
                        let iy = oy * s + ky - pad;
                        let xrow = &xc[iy * w..(iy + 1) * w];
                        let orow = &mut oc[oy * wout + lo..oy * wout + hi];
                        let mut ix = x0;
                        if ARG {
                            let arow = &mut ac[oy * wout + lo..oy * wout + hi];
                            for (o, a) in orow.iter_mut().zip(arow.iter_mut()) {
                                let v = xrow[ix];
                                let better = v > *o;
                                *a = if better { (iy * w + ix) as u32 } else { *a };
                                *o = if better { v } else { *o };
                                ix += s;
                            }
                        } else {
                            for o in orow.iter_mut() {
                                let v = xrow[ix];
                                *o = if v > *o { v } else { *o };
                                ix += s;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Backward max pooling.
pub fn maxpool_backward(x_shape: &[usize], geom: ConvGeom, arg: &[u32], dout: &Tensor) -> Tensor {
    let (n, c, h, w) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let hout = geom.out_dim(h);
    let wout = geom.out_dim(w);
    let mut dx = Tensor::zeros(x_shape);
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            let obase = (i * c + ch) * hout * wout;
            for o in 0..hout * wout {
                dx.data_mut()[base + arg[obase + o] as usize] += dout.data()[obase + o];
            }
        }
    }
    dx
}

/// Forward average pooling (padding excluded from the divisor, matching
/// `count_include_pad=False`).
pub fn avgpool_forward(x: &Tensor, geom: ConvGeom) -> Tensor {
    avgpool_acc(x, geom, Tensor::zeros(&window_out_shape(x, geom)))
}

/// [`avgpool_forward`] with its output drawn from `scratch`.
pub fn avgpool_forward_scratch(x: &Tensor, geom: ConvGeom, scratch: &mut Scratch) -> Tensor {
    let out = zeroed_from(scratch, window_out_shape(x, geom));
    avgpool_acc(x, geom, out)
}

/// Accumulates the window averages of `x` into the zeroed `out`.
fn avgpool_acc(x: &Tensor, geom: ConvGeom, mut out: Tensor) -> Tensor {
    let (n, c, h, w) = shape4(x);
    let (hout, wout) = (out.shape()[2], out.shape()[3]);
    let (s, pad, k) = (geom.stride, geom.pad, geom.k);
    // Per-position reciprocal valid-count table, shared by every (n, c)
    // plane: the count factorizes as (#valid ky) * (#valid kx).
    let mut cnt_y = vec![0u32; hout];
    let mut cnt_x = vec![0u32; wout];
    for kk in 0..k {
        let (lo, hi) = tap_range(kk, pad, s, h, hout);
        for cy in &mut cnt_y[lo..hi] {
            *cy += 1;
        }
        let (lo, hi) = tap_range(kk, pad, s, w, wout);
        for cx in &mut cnt_x[lo..hi] {
            *cx += 1;
        }
    }
    let mut inv_cnt = vec![0.0f32; hout * wout];
    for oy in 0..hout {
        for ox in 0..wout {
            inv_cnt[oy * wout + ox] = 1.0 / (cnt_y[oy] * cnt_x[ox]).max(1) as f32;
        }
    }
    // Tap-outer accumulate, then one scale pass by the count table.
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            let xc = &x.data()[base..base + h * w];
            let obase = (i * c + ch) * hout * wout;
            let oc = &mut out.data_mut()[obase..obase + hout * wout];
            for ky in 0..k {
                let (oy_lo, oy_hi) = tap_range(ky, pad, s, h, hout);
                for kx in 0..k {
                    let (lo, hi) = tap_range(kx, pad, s, w, wout);
                    if hi == lo {
                        continue;
                    }
                    let x0 = lo * s + kx - pad;
                    for oy in oy_lo..oy_hi {
                        let iy = oy * s + ky - pad;
                        let xrow = &xc[iy * w..(iy + 1) * w];
                        let orow = &mut oc[oy * wout + lo..oy * wout + hi];
                        if s == 1 {
                            for (o, xv) in orow.iter_mut().zip(&xrow[x0..x0 + (hi - lo)]) {
                                *o += *xv;
                            }
                        } else {
                            for (o, xv) in orow.iter_mut().zip(xrow[x0..].iter().step_by(s)) {
                                *o += *xv;
                            }
                        }
                    }
                }
            }
            for (o, iv) in oc.iter_mut().zip(&inv_cnt) {
                *o *= *iv;
            }
        }
    }
    out
}

/// Backward average pooling.
pub fn avgpool_backward(x_shape: &[usize], geom: ConvGeom, dout: &Tensor) -> Tensor {
    let (n, c, h, w) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let hout = geom.out_dim(h);
    let wout = geom.out_dim(w);
    let mut dx = Tensor::zeros(x_shape);
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            let obase = (i * c + ch) * hout * wout;
            for oy in 0..hout {
                for ox in 0..wout {
                    // Recompute the valid-count (cheap) to divide gradient.
                    let mut cnt = 0u32;
                    for ky in 0..geom.k {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..geom.k {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix >= 0 && (ix as usize) < w {
                                cnt += 1;
                            }
                        }
                    }
                    let g = dout.data()[obase + oy * wout + ox] / cnt.max(1) as f32;
                    for ky in 0..geom.k {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..geom.k {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix >= 0 && (ix as usize) < w {
                                dx.data_mut()[base + iy as usize * w + ix as usize] += g;
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Extracts `(n, c, h, w)` from a 4-D tensor.
///
/// # Panics
///
/// Panics if the tensor is not 4-D.
pub fn shape4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "expected NCHW tensor, got {:?}", s);
    (s[0], s[1], s[2], s[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Direct (non-im2col) convolution — the oracle the GEMM-lowered
    /// path is checked against.
    fn conv_naive(x: &Tensor, wt: &Tensor, g: ConvGeom) -> Tensor {
        let (n, cin, h, w) = shape4(x);
        let cout = wt.shape()[0];
        let k = g.k;
        let (hout, wout) = (g.out_dim(h), g.out_dim(w));
        let mut out = Tensor::zeros(&[n, cout, hout, wout]);
        for i in 0..n {
            for co in 0..cout {
                for oy in 0..hout {
                    for ox in 0..wout {
                        let mut s = 0.0f32;
                        for ci in 0..cin {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        s += x.data()
                                            [((i * cin + ci) * h + iy as usize) * w + ix as usize]
                                            * wt.data()[((co * cin + ci) * k + ky) * k + kx];
                                    }
                                }
                            }
                        }
                        out.data_mut()[((i * cout + co) * hout + oy) * wout + ox] = s;
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn conv_nonsquare_input_matches_naive() {
        let mut rng = StdRng::seed_from_u64(30);
        let x = Tensor::randn(&[2, 3, 5, 9], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.5, &mut rng);
        for stride in [1, 2] {
            let g = ConvGeom::same(3, stride);
            let (y, _) = conv2d_forward(&x, &w, g);
            assert_eq!(
                y.shape(),
                &[2, 4, 5usize.div_ceil(stride), 9usize.div_ceil(stride)]
            );
            assert_close(&y, &conv_naive(&x, &w, g), "nonsquare");
        }
    }

    #[test]
    fn conv_padded_stride_two_matches_naive() {
        let mut rng = StdRng::seed_from_u64(31);
        let x = Tensor::randn(&[1, 2, 7, 9], 1.0, &mut rng);
        for (k, pad) in [(3, 1), (3, 2), (5, 2)] {
            let w = Tensor::randn(&[3, 2, k, k], 0.5, &mut rng);
            let g = ConvGeom::new(k, 2, pad);
            let (y, _) = conv2d_forward(&x, &w, g);
            assert_close(&y, &conv_naive(&x, &w, g), "pad_stride2");
        }
    }

    #[test]
    fn conv_1x1_kernel_matches_naive() {
        let mut rng = StdRng::seed_from_u64(32);
        let x = Tensor::randn(&[2, 5, 4, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[7, 5, 1, 1], 0.5, &mut rng);
        for stride in [1, 2] {
            let g = ConvGeom::new(1, stride, 0);
            let (y, _) = conv2d_forward(&x, &w, g);
            assert_close(&y, &conv_naive(&x, &w, g), "1x1");
        }
    }

    #[test]
    fn im2col_1x1_stride1_is_identity() {
        let mut rng = StdRng::seed_from_u64(33);
        let x = Tensor::randn(&[1, 3, 4, 5], 1.0, &mut rng);
        let g = ConvGeom::new(1, 1, 0);
        let mut col = vec![0.0f32; x.len()];
        im2col::<false>(x.data(), 3, 4, 5, g, 4, 5, &mut col);
        assert_eq!(col, x.data());
        let mut back = vec![0.0f32; x.len()];
        col2im_acc(&col, 3, 4, 5, g, 4, 5, &mut back);
        assert_eq!(back, x.data());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// col2im is the adjoint of im2col: `<im2col(x), y> == <x, col2im(y)>`
        /// for every geometry — the round-trip identity the conv backward
        /// pass relies on.
        #[test]
        fn im2col_col2im_adjoint(
            seed in 0u64..1000,
            c in 1usize..4,
            h in 2usize..8,
            w in 2usize..8,
            k in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..3,
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeom::new(k, stride, pad);
            let (hout, wout) = (g.out_dim(h), g.out_dim(w));
            prop_assume!(hout > 0 && wout > 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Tensor::randn(&[1, c, h, w], 1.0, &mut rng);
            let y = Tensor::randn(&[1, c * k * k, hout, wout], 1.0, &mut rng);
            let mut col = vec![0.0f32; c * k * k * hout * wout];
            im2col::<false>(x.data(), c, h, w, g, hout, wout, &mut col);
            let mut back = vec![0.0f32; c * h * w];
            col2im_acc(y.data(), c, h, w, g, hout, wout, &mut back);
            let lhs: f64 = col.iter().zip(y.data()).map(|(a, b)| (a * b) as f64).sum();
            let rhs: f64 = x.data().iter().zip(&back).map(|(a, b)| (a * b) as f64).sum();
            prop_assert!(
                (lhs - rhs).abs() <= 1e-4 * (1.0 + lhs.abs()),
                "adjoint identity violated: {lhs} vs {rhs}"
            );
        }

        /// The GEMM-lowered forward matches direct convolution on random
        /// geometries (non-square, padded, strided, 1x1 kernels).
        #[test]
        fn conv_forward_matches_naive_property(
            seed in 0u64..1000,
            cin in 1usize..4,
            cout in 1usize..4,
            h in 3usize..8,
            w in 3usize..8,
            k in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
        ) {
            let g = ConvGeom::new(k, stride, pad);
            let (hout, wout) = (g.out_dim(h), g.out_dim(w));
            prop_assume!(hout > 0 && wout > 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Tensor::randn(&[2, cin, h, w], 1.0, &mut rng);
            let wt = Tensor::randn(&[cout, cin, k, k], 0.5, &mut rng);
            let (y, _) = conv2d_forward(&x, &wt, g);
            let expect = conv_naive(&x, &wt, g);
            for (i, (a, b)) in y.data().iter().zip(expect.data()).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                    "conv[{i}]: {a} vs {b}"
                );
            }
        }

        /// The scratch-backed kernels inference runs equal the allocating
        /// kernels training runs bit for bit, with buffers recycled from
        /// an arena of stale NaNs, so an element a kernel forgets to
        /// write shows up.
        #[test]
        fn scratch_kernels_match_allocating_kernels_bitwise(
            seed in 0u64..1000,
            n in 1usize..5,
            cin in 1usize..4,
            cout in 1usize..4,
            h in 3usize..8,
            w in 3usize..8,
            k in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            relu in any::<bool>(),
        ) {
            let g = ConvGeom::new(k, stride, pad);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Tensor::randn(&[n, cin, h, w], 1.0, &mut rng);
            let wt = Tensor::randn(&[cout, cin, k, k], 0.5, &mut rng);
            let dw = Tensor::randn(&[cin, k, k], 0.5, &mut rng);
            let mut scratch = Scratch::new();
            for _ in 0..8 {
                scratch.give(vec![f32::NAN; 4096]);
            }
            let bits = |t: &Tensor| (t.shape().to_vec(), t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            let (conv, _) = conv2d_forward_scratch(&x, &wt, g, relu, &mut Scratch::new());
            prop_assert_eq!(bits(&conv2d_forward_infer(&x, &wt, g, relu, &mut scratch)), bits(&conv));
            prop_assert_eq!(
                bits(&dwconv2d_forward_scratch(&x, &dw, g, &mut scratch)),
                bits(&dwconv2d_forward(&x, &dw, g))
            );
            prop_assert_eq!(
                bits(&maxpool_forward_scratch(&x, g, &mut scratch)),
                bits(&maxpool_forward(&x, g).0)
            );
            prop_assert_eq!(
                bits(&avgpool_forward_scratch(&x, g, &mut scratch)),
                bits(&avgpool_forward(&x, g))
            );
        }
    }

    #[test]
    fn geom_out_dims() {
        assert_eq!(ConvGeom::same(3, 1).out_dim(16), 16);
        assert_eq!(ConvGeom::same(3, 2).out_dim(16), 8);
        assert_eq!(ConvGeom::same(5, 1).out_dim(16), 16);
        assert_eq!(ConvGeom::new(2, 2, 0).out_dim(16), 8);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with identity weight reproduces the input.
        let x = Tensor::from_vec(&[1, 2, 2, 2], (0..8).map(|v| v as f32).collect());
        let mut w = Tensor::zeros(&[2, 2, 1, 1]);
        w.data_mut()[0] = 1.0; // out0 <- in0
        w.data_mut()[3] = 1.0; // out1 <- in1
        let (y, _) = conv2d_forward(&x, &w, ConvGeom::new(1, 1, 0));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_known_values() {
        // 3x3 all-ones kernel over a constant image = count of valid pixels.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let (y, _) = conv2d_forward(&x, &w, ConvGeom::same(3, 1));
        // Center sees 9 pixels; corners see 4; edges see 6.
        assert_eq!(y.data()[4], 9.0);
        assert_eq!(y.data()[0], 4.0);
        assert_eq!(y.data()[1], 6.0);
    }

    #[test]
    fn conv_stride_two_shape() {
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.1, &mut rng);
        let (y, _) = conv2d_forward(&x, &w, ConvGeom::same(3, 2));
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
    }

    #[test]
    fn dwconv_matches_grouped_conv_semantics() {
        // Depthwise with a kernel that is identity at center = input.
        let x = Tensor::from_vec(&[1, 2, 3, 3], (0..18).map(|v| v as f32).collect());
        let mut w = Tensor::zeros(&[2, 3, 3]);
        w.data_mut()[4] = 1.0;
        w.data_mut()[9 + 4] = 1.0;
        let y = dwconv2d_forward(&x, &w, ConvGeom::same(3, 1));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn maxpool_simple() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let (y, arg) = maxpool_forward(&x, ConvGeom::new(2, 2, 0));
        assert_eq!(y.data(), &[5.0]);
        assert_eq!(arg, vec![1]);
        let dx = maxpool_backward(
            &[1, 1, 2, 2],
            ConvGeom::new(2, 2, 0),
            &arg,
            &Tensor::ones(&[1, 1, 1, 1]),
        );
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_excludes_padding() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = avgpool_forward(&x, ConvGeom::same(3, 1));
        // All outputs must be exactly 1.0 because padding is excluded.
        for v in y.data() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn avgpool_backward_distributes() {
        let shape = [1, 1, 2, 2];
        let dout = Tensor::ones(&[1, 1, 1, 1]);
        let dx = avgpool_backward(&shape, ConvGeom::new(2, 2, 0), &dout);
        for v in dx.data() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    /// Finite-difference check of the full conv2d backward pass.
    #[test]
    fn conv_backward_finite_difference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.5, &mut rng);
        let g = ConvGeom::same(3, 2);
        let loss = |x: &Tensor, w: &Tensor| conv2d_forward(x, w, g).0.sum();
        let (y, cols) = conv2d_forward(&x, &w, g);
        let dout = Tensor::ones(y.shape());
        let (dx, dw) = conv2d_backward(&x, &w, g, &cols, &dout);
        let eps = 1e-2;
        for idx in [0usize, 7, 33, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 0.05 * (1.0 + num.abs()),
                "dx[{idx}]: fd {num} vs {}",
                dx.data()[idx]
            );
        }
        for idx in [0usize, 5, w.len() - 1] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - dw.data()[idx]).abs() < 0.05 * (1.0 + num.abs()),
                "dw[{idx}]: fd {num} vs {}",
                dw.data()[idx]
            );
        }
    }

    #[test]
    fn dwconv_backward_finite_difference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 3, 3], 0.5, &mut rng);
        let g = ConvGeom::same(3, 1);
        let y = dwconv2d_forward(&x, &w, g);
        let dout = Tensor::ones(y.shape());
        let (dx, dw) = dwconv2d_backward(&x, &w, g, &dout);
        let loss = |x: &Tensor, w: &Tensor| dwconv2d_forward(x, w, g).sum();
        let eps = 1e-2;
        for idx in [0usize, 9, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx.data()[idx]).abs() < 0.05 * (1.0 + num.abs()));
        }
        for idx in [0usize, 8, w.len() - 1] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw.data()[idx]).abs() < 0.05 * (1.0 + num.abs()));
        }
    }
}
