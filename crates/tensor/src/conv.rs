//! Convolution and pooling kernels (NCHW layout).
//!
//! These are free functions on raw [`Tensor`]s; the autograd
//! [`Graph`](crate::graph::Graph) wraps them into differentiable nodes.

#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

use crate::matmul::{sgemm, sgemm_a_bt_acc_strided, sgemm_at_b_acc};
use crate::scratch::Scratch;
use crate::tensor::Tensor;
use std::ops::Range;

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

/// Floats in one column block of the conv forwards: they lower as many
/// samples at once as fit their `cin·k·k × hout·wout` columns into this
/// budget (at least one), so the block stays in cache between the
/// lowering that writes it and the one GEMM that reads it. The tape's
/// backward walks the same runs.
const COL_BLOCK: usize = 64 * 1024;

/// Where each tap `(ky, kx)` of a conv or window geometry reads, over a
/// span of up to `planes` consecutive `h × w` input planes and their
/// `hout × wout` output planes. The window kernels span the `c` planes of
/// one sample, the conv lowering and its scatter one channel's planes
/// across a run of samples; either way a tap is one pass over every lane
/// of the span, however small its planes are.
///
/// Kernels take a table from their [`Scratch`] arena with
/// [`TapTable::take`] and give it back when done, so a steady-state walk
/// or training step builds none.
#[derive(Debug, Clone)]
pub(crate) struct TapTable {
    /// The geometry and input plane the table was built for.
    geom: ConvGeom,
    h: usize,
    w: usize,
    /// Taps, `k·k`, in `(ky, kx)` order.
    taps: usize,
    /// Lanes of one input plane, `h·w`.
    hw_in: usize,
    /// Lanes of one output plane, `hout·wout`.
    hw_out: usize,
    /// Output lanes the tables cover, `planes·hout·wout`.
    lanes: usize,
    /// `valid[t·lanes + o]`: tap `t` of lane `o` reads inside its plane.
    /// Every other lane of the tap lands in the padding.
    valid: Vec<bool>,
    reads: TapReads,
}

/// How a tap's lanes find their inputs in a span of input planes.
#[derive(Debug, Clone)]
enum TapReads {
    /// Stride 1 keeping the plane size: tap `t` is the span shifted by
    /// `shift[t]`, lane `o` reading input `o + shift[t]`.
    Shifted(Vec<isize>),
    /// Any other geometry: lane `o` of tap `t` reads input
    /// `index[t·lanes + o]` (`0` where invalid).
    Gathered(Vec<u32>),
}

impl TapTable {
    /// A table covering at least `planes` planes of `geom` over `h × w`
    /// input planes: the one `scratch` keeps for this geometry if it
    /// covers them, else a new one that also covers what the kept one
    /// did. A table built for more planes serves fewer, since its first
    /// `planes·hout·wout` lanes are the table of `planes` planes.
    fn take(scratch: &mut Scratch, planes: usize, h: usize, w: usize, geom: ConvGeom) -> Self {
        let hw_out = geom.out_dim(h) * geom.out_dim(w);
        let kept = scratch
            .tap_tables
            .iter()
            .position(|t| (t.geom, t.h, t.w) == (geom, h, w))
            .map(|i| scratch.tap_tables.swap_remove(i));
        match kept {
            Some(t) if t.lanes >= planes * hw_out => t,
            kept => {
                let planes = planes.max(kept.map_or(0, |t| t.lanes / hw_out));
                TapTable::new(planes, h, w, geom)
            }
        }
    }

    /// Returns the table to `scratch` for the next kernel of its geometry.
    fn give(self, scratch: &mut Scratch) {
        scratch.tap_tables.push(self);
    }

    fn new(planes: usize, h: usize, w: usize, geom: ConvGeom) -> Self {
        let (k, s, pad) = (geom.k, geom.stride, geom.pad);
        let (hout, wout) = (geom.out_dim(h), geom.out_dim(w));
        let (taps, hw_in, hw_out) = (k * k, h * w, hout * wout);
        let lanes = planes * hw_out;
        let shifted = s == 1 && hout == h && wout == w;
        let mut valid = vec![false; taps * lanes];
        let mut index = if shifted {
            Vec::new()
        } else {
            vec![0u32; taps * lanes]
        };
        let mut shifts = Vec::new();
        for t in 0..taps {
            let (ky, kx) = (t / k, t % k);
            let (ylo, yhi) = tap_range(ky, pad, s, h, hout);
            let (xlo, xhi) = tap_range(kx, pad, s, w, wout);
            for pl in 0..planes {
                for oy in ylo..yhi {
                    let iy = oy * s + ky - pad;
                    for ox in xlo..xhi {
                        let o = t * lanes + pl * hw_out + oy * wout + ox;
                        valid[o] = true;
                        if !shifted {
                            index[o] = (pl * hw_in + iy * w + ox * s + kx - pad) as u32;
                        }
                    }
                }
            }
            let offset = |kk: usize| kk as isize - pad as isize;
            shifts.push(offset(ky) * w as isize + offset(kx));
        }
        let reads = if shifted {
            TapReads::Shifted(shifts)
        } else {
            TapReads::Gathered(index)
        };
        TapTable {
            geom,
            h,
            w,
            taps,
            hw_in,
            hw_out,
            lanes,
            valid,
            reads,
        }
    }

    /// Length of the buffer [`for_each_tap`](Self::for_each_tap) gathers
    /// a tap's inputs into: none for a shifted table.
    fn gather_len(&self) -> usize {
        match self.reads {
            TapReads::Shifted(_) => 0,
            TapReads::Gathered(_) => self.lanes,
        }
    }

    /// Calls `update(t, lanes, inputs, valid)` for each tap `t`, in
    /// `(ky, kx)` order, over the first `planes` planes of the span `xs`:
    /// `inputs[i]` is what lane `lanes.start + i` reads and `valid[i]`
    /// whether that read is inside its plane. Lanes outside `lanes` are
    /// all invalid. A shifted tap passes a slice of `xs`, leaving out the
    /// lanes whose shifted read falls outside it; a gathered tap is first
    /// copied into `gathered`.
    #[inline(always)]
    fn for_each_tap(
        &self,
        xs: &[f32],
        planes: usize,
        gathered: &mut [f32],
        mut update: impl FnMut(usize, Range<usize>, &[f32], &[bool]),
    ) {
        let span = planes * self.hw_out;
        debug_assert!(span <= self.lanes && xs.len() == planes * self.hw_in);
        for t in 0..self.taps {
            let valid = &self.valid[t * self.lanes..t * self.lanes + span];
            // One call of `update` for both kinds of tap, so it is
            // compiled (and vectorized) once.
            let (lanes, src): (_, &[f32]) = match &self.reads {
                TapReads::Shifted(shifts) => {
                    let (lanes, start) = shifted_lanes(shifts[t], span);
                    let len = lanes.len();
                    (lanes, &xs[start..start + len])
                }
                TapReads::Gathered(index) => {
                    gather(xs, &index[t * self.lanes..t * self.lanes + span], gathered);
                    (0..span, &gathered[..span])
                }
            };
            update(t, lanes.clone(), src, &valid[lanes]);
        }
    }

    /// The adjoint of [`for_each_tap`](Self::for_each_tap): calls
    /// `update(t, lanes, reads, valid)` for each tap `t` of `taps`, in
    /// the order given, where `reads[i]` is the input that lane
    /// `lanes.start + i` reads, now mutable. A shifted tap passes a
    /// slice of `xs`; a gathered tap is copied into `gathered`, updated
    /// there, and its valid lanes written back. No two valid lanes of a
    /// tap read the same input, so each input takes one update per tap,
    /// in the order of `taps`.
    #[inline(always)]
    fn for_each_tap_mut(
        &self,
        xs: &mut [f32],
        planes: usize,
        gathered: &mut [f32],
        taps: impl Iterator<Item = usize>,
        mut update: impl FnMut(usize, Range<usize>, &mut [f32], &[bool]),
    ) {
        let span = planes * self.hw_out;
        debug_assert!(span <= self.lanes && xs.len() == planes * self.hw_in);
        for t in taps {
            let valid = &self.valid[t * self.lanes..t * self.lanes + span];
            let (lanes, dst, index): (_, &mut [f32], &[u32]) = match &self.reads {
                TapReads::Shifted(shifts) => {
                    let (lanes, start) = shifted_lanes(shifts[t], span);
                    let len = lanes.len();
                    (lanes, &mut xs[start..start + len], &[])
                }
                TapReads::Gathered(index) => {
                    let index = &index[t * self.lanes..t * self.lanes + span];
                    gather(xs, index, gathered);
                    (0..span, &mut gathered[..span], index)
                }
            };
            update(t, lanes.clone(), dst, &valid[lanes]);
            // A gathered tap's lanes go back to their inputs.
            scatter_valid(&gathered[..index.len()], index, valid, xs);
        }
    }

    /// The index within its input plane that tap `t` of output
    /// `(oy, ox)` reads, for a tap that reads inside the plane.
    fn plane_read(&self, t: usize, oy: usize, ox: usize) -> u32 {
        let (k, s, pad) = (self.geom.k, self.geom.stride, self.geom.pad);
        let (iy, ix) = (oy * s + t / k - pad, ox * s + t % k - pad);
        (iy * self.w + ix) as u32
    }
}

/// Copies `xs[index[i]]` into `gathered[i]` for every lane of `index`.
/// Kept out of line: inlined beside a kernel's update loop, it led the
/// compiler to emit that loop unvectorized.
#[inline(never)]
fn gather(xs: &[f32], index: &[u32], gathered: &mut [f32]) {
    for (g, &i) in gathered.iter_mut().zip(index) {
        *g = xs[i as usize];
    }
}

/// Writes `gathered[i]` back to `xs[index[i]]` for every valid lane
/// (the inverse of [`gather`] on those lanes). Out of line like
/// [`gather`].
#[inline(never)]
fn scatter_valid(gathered: &[f32], index: &[u32], valid: &[bool], xs: &mut [f32]) {
    for ((&g, &i), &m) in gathered.iter().zip(index).zip(valid) {
        let d = &mut xs[i as usize];
        *d = if m { g } else { *d };
    }
}

/// The lanes of a shifted tap over a span of `span` lanes whose read,
/// shifted by `shift`, stays inside the span, and where those reads
/// start.
fn shifted_lanes(shift: isize, span: usize) -> (Range<usize>, usize) {
    let lo = (-shift).clamp(0, span as isize) as usize;
    let hi = (span as isize - shift).clamp(lo as isize, span as isize) as usize;
    let start = if lo < hi {
        lo.wrapping_add_signed(shift)
    } else {
        0
    };
    (lo..hi, start)
}

/// Lowers a run of `g` samples into the column block
/// `col[c·k·k, g·hout·wout]`: row `(ch·k + ky)·k + kx`, column
/// `s·hout·wout + oy·wout + ox` holds input `(s, ch, oy·stride + ky − pad,
/// ox·stride + kx − pad)`, and `+0.0` where that lands in the padding.
/// `xt` holds the run channel-major, channel `ch` of every sample back to
/// back (for one sample that is the sample itself), and `table` spans at
/// least `g` planes, so each row is one masked pass of `table`'s tap over
/// channel `ch`: a shifted copy for a stride-1 conv that keeps the plane
/// size, a gather otherwise. Every element is written, so `col`'s prior
/// contents don't matter.
///
/// With `RELU = true`, applies `max(0, ·)` to each element while copying —
/// the fused forward path uses this to avoid materializing a separate
/// ReLU output tensor. The flag is a const generic so the branch
/// disappears from the generated inner loops.
fn lower_run<const RELU: bool>(
    xt: &[f32],
    g: usize,
    c: usize,
    table: &TapTable,
    gathered: &mut [f32],
    col: &mut [f32],
) {
    let (span_in, ncol) = (g * table.hw_in, g * table.hw_out);
    debug_assert_eq!(xt.len(), c * span_in);
    debug_assert_eq!(col.len(), c * table.taps * ncol);
    let row_block = table.taps * ncol;
    for ch in 0..c {
        let xs = &xt[ch * span_in..(ch + 1) * span_in];
        let rows = &mut col[ch * row_block..(ch + 1) * row_block];
        table.for_each_tap(xs, g, gathered, |t, lanes, xv, valid| {
            let row = &mut rows[t * ncol..(t + 1) * ncol];
            row[..lanes.start].fill(0.0);
            row[lanes.end..].fill(0.0);
            for ((d, &v), &m) in row[lanes].iter_mut().zip(xv).zip(valid) {
                *d = if !m {
                    0.0
                } else if RELU {
                    v.max(0.0)
                } else {
                    v
                };
            }
        });
    }
}

/// [`lower_run`] with the fused ReLU chosen at run time.
fn lower(
    xt: &[f32],
    g: usize,
    c: usize,
    table: &TapTable,
    relu_input: bool,
    gathered: &mut [f32],
    col: &mut [f32],
) {
    if relu_input {
        lower_run::<true>(xt, g, c, table, gathered, col);
    } else {
        lower_run::<false>(xt, g, c, table, gathered, col);
    }
}

/// Adds the column-block gradient `dcol[c·k·k, g·hout·wout]` of a run of
/// `g` samples into the run's channel-major input gradient `dxt` (the
/// adjoint of [`lower_run`]): each row is one masked pass of its tap over
/// its channel's planes, taps in `(ky, kx)` order, which is the order in
/// which a per-sample `col2im` added each input's terms.
fn scatter_run(
    dcol: &[f32],
    g: usize,
    c: usize,
    table: &TapTable,
    gathered: &mut [f32],
    dxt: &mut [f32],
) {
    let (span_in, ncol) = (g * table.hw_in, g * table.hw_out);
    debug_assert_eq!(dxt.len(), c * span_in);
    debug_assert_eq!(dcol.len(), c * table.taps * ncol);
    let row_block = table.taps * ncol;
    for ch in 0..c {
        let xs = &mut dxt[ch * span_in..(ch + 1) * span_in];
        let rows = &dcol[ch * row_block..(ch + 1) * row_block];
        table.for_each_tap_mut(xs, g, gathered, 0..table.taps, |t, lanes, dv, valid| {
            let row = &rows[t * ncol..(t + 1) * ncol];
            for ((d, &v), &m) in dv.iter_mut().zip(&row[lanes]).zip(valid) {
                *d = if m { *d + v } else { *d };
            }
        });
    }
}

/// Copies a run of `g` samples, each `c` planes of `hw` lanes, from
/// sample-major `src` to channel-major `dst`: plane `(s, ch)` moves to
/// `ch·g + s`.
fn to_channel_major(src: &[f32], g: usize, c: usize, hw: usize, dst: &mut [f32]) {
    for (s, sample) in src.chunks_exact(c * hw).enumerate() {
        for (ch, plane) in sample.chunks_exact(hw).enumerate() {
            dst[(ch * g + s) * hw..][..hw].copy_from_slice(plane);
        }
    }
}

/// The inverse of [`to_channel_major`].
fn from_channel_major(src: &[f32], g: usize, c: usize, hw: usize, dst: &mut [f32]) {
    for (s, sample) in dst.chunks_exact_mut(c * hw).enumerate() {
        for (ch, plane) in sample.chunks_exact_mut(hw).enumerate() {
            plane.copy_from_slice(&src[(ch * g + s) * hw..][..hw]);
        }
    }
}

/// Forward 2-D convolution.
///
/// `x` is `[n, cin, h, w]`, `weight` is `[cout, cin, k, k]`; returns
/// `[n, cout, hout, wout]` along with the column blocks the backward
/// pass reads.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `geom`.
pub fn conv2d_forward(x: &Tensor, weight: &Tensor, geom: ConvGeom) -> (Tensor, Vec<f32>) {
    conv2d_forward_scratch(x, weight, geom, false, &mut Scratch::new())
}

/// Forward 2-D convolution with an explicit workspace arena and optional
/// fused input ReLU, for the tape.
///
/// Like [`conv2d_forward`], but the column buffer is taken from `scratch`
/// (return it with [`Scratch::give`] after the backward pass to make the
/// next call allocation-free), and `relu_input = true` applies
/// `max(0, ·)` to the input while lowering, so `relu(x)` never needs to
/// be materialized. The batch runs as in [`conv2d_forward_infer`], and
/// the returned columns hold every run's column block, run after run,
/// for [`conv2d_backward_scratch`].
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
    // The lowering overwrites every element (padding is written as an
    // explicit zero), so the recycled buffer's contents don't matter.
    let mut cols = scratch.take(d.n * d.col_len());
    let mut out = Tensor::zeros(&d.out_shape());
    conv_runs(
        x, weight, &d, relu_input, true, &mut cols, &mut out, scratch,
    );
    (out, cols)
}

/// Inference-only forward 2-D convolution, bit-identical to
/// [`conv2d_forward_scratch`]: the batch is cut into runs of `g`
/// samples whose columns fit a 64 Ki-float block, each run is lowered
/// into one `cin·k·k × g·hout·wout` block and multiplied by `weight` in
/// one GEMM, and the GEMM's `cout × g·hout·wout` result is copied into
/// the NCHW output. No columns are kept for a backward pass: one column
/// block serves every run and goes back to `scratch` on return, and the
/// output is drawn from it too.
///
/// Widening the GEMM moves no bit: each output element is the same
/// multiply-add chain over its column whatever the column count (see
/// DESIGN.md §9, "Tape-free f32 scoring").
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
    let mut col = scratch.take(d.run() * d.col_len());
    // Every output element is copied from a GEMM result, so the recycled
    // buffer's contents don't matter.
    let shape = d.out_shape();
    let mut out = Tensor::from_vec(&shape, scratch.take(shape.iter().product()));
    conv_runs(
        x, weight, &d, relu_input, false, &mut col, &mut out, scratch,
    );
    scratch.give(col);
    out
}

/// The run loop of both conv forwards. Each run of `g` samples is copied
/// channel-major, lowered by [`lower_run`] into one column block,
/// multiplied by `weight` in one `sgemm` and its `[cout, g, hout·wout]`
/// product copied into the `[g, cout, hout·wout]` output. With `keep`,
/// `cols` holds the whole batch's columns and each run writes its own
/// block (`cin·k·k × g·hout·wout`, at sample `s0`'s offset); without it,
/// every run overwrites the one block `cols` holds.
fn conv_runs(
    x: &Tensor,
    weight: &Tensor,
    d: &ConvDims,
    relu_input: bool,
    keep: bool,
    cols: &mut [f32],
    out: &mut Tensor,
    scratch: &mut Scratch,
) {
    let (col_len, in_len, out_len) = (d.col_len(), d.in_len(), d.out_len());
    let (hw_in, hw_out, run) = (d.h * d.w, d.hout * d.wout, d.run());
    let table = d.tap_table(run, scratch);
    let mut xt = scratch.take(run * in_len);
    let mut gathered = scratch.take(table.gather_len());
    let mut prod = scratch.take(run * out_len);
    for s0 in (0..d.n).step_by(run) {
        let g = run.min(d.n - s0);
        let block = if keep { s0 * col_len } else { 0 };
        let (xt, col, prod) = (
            &mut xt[..g * in_len],
            &mut cols[block..block + g * col_len],
            &mut prod[..g * out_len],
        );
        to_channel_major(
            &x.data()[s0 * in_len..(s0 + g) * in_len],
            g,
            d.cin,
            hw_in,
            xt,
        );
        lower(xt, g, d.cin, &table, relu_input, &mut gathered, col);
        sgemm(d.cout, d.ckk(), g * hw_out, weight.data(), col, prod);
        let or = &mut out.data_mut()[s0 * out_len..(s0 + g) * out_len];
        from_channel_major(prod, g, d.cout, hw_out, or);
    }
    for buf in [xt, gathered, prod] {
        scratch.give(buf);
    }
    table.give(scratch);
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

    /// The tap table of a run of up to `planes` samples, from `scratch`.
    fn tap_table(&self, planes: usize, scratch: &mut Scratch) -> TapTable {
        TapTable::take(scratch, planes, self.h, self.w, self.geom)
    }

    /// Samples per run: as many as fit their columns into one
    /// [`COL_BLOCK`], at least one.
    fn run(&self) -> usize {
        (COL_BLOCK / self.col_len().max(1)).clamp(1, self.n.max(1))
    }

    /// The output shape, `[n, cout, hout, wout]`.
    fn out_shape(&self) -> [usize; 4] {
        [self.n, self.cout, self.hout, self.wout]
    }

    /// GEMM depth, `cin·k·k`.
    fn ckk(&self) -> usize {
        self.cin * self.geom.k * self.geom.k
    }

    /// Length of one sample's column matrix, `cin·k·k × hout·wout`.
    fn col_len(&self) -> usize {
        self.ckk() * self.hout * self.wout
    }

    /// Length of one input sample, `cin·h·w`.
    fn in_len(&self) -> usize {
        self.cin * self.h * self.w
    }

    /// Length of one output sample, `cout·hout·wout`.
    fn out_len(&self) -> usize {
        self.cout * self.hout * self.wout
    }
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

/// Backward 2-D convolution over the column blocks of
/// [`conv2d_forward_scratch`], with an explicit workspace arena. Returns
/// `(dx, dweight)`.
///
/// It walks the forward's runs. A run's `dcol` is one GEMM,
/// `Wᵀ · dout`, over the run's channel-major `dout`: its depth is still
/// `cout`, so each element is the chain a per-sample GEMM computed. The
/// run's input gradient is `scatter_run` of `dcol`, whose taps add
/// into each input in the per-sample `col2im`'s order. `dW` stays one
/// `sgemm_a_bt_acc` per sample, in sample order: its bits are a sum of
/// per-sample GEMMs, each over one sample's columns, read in place out of
/// the run's block, where they sit `g·hout·wout` floats apart.
pub fn conv2d_backward_scratch(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    cols: &[f32],
    dout: &Tensor,
    scratch: &mut Scratch,
) -> (Tensor, Tensor) {
    let d = ConvDims::of(x, weight, geom);
    let (col_len, in_len, out_len, ckk) = (d.col_len(), d.in_len(), d.out_len(), d.ckk());
    let (hw_in, hw_out, run) = (d.h * d.w, d.hout * d.wout, d.run());
    assert_eq!(cols.len(), d.n * col_len, "conv backward: column blocks");
    assert_eq!(dout.shape(), d.out_shape(), "conv backward: dout shape");
    let table = d.tap_table(run, scratch);
    let mut gathered = scratch.take(table.gather_len());
    let mut dout_t = scratch.take(run * out_len);
    let mut dcol = scratch.take(run * col_len);
    let mut dxt = scratch.take(run * in_len);
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(weight.shape());
    for s0 in (0..d.n).step_by(run) {
        let g = run.min(d.n - s0);
        let block = &cols[s0 * col_len..(s0 + g) * col_len];
        let dout_run = &dout.data()[s0 * out_len..(s0 + g) * out_len];
        // dW += dout_s (cout × hw) · col_sᵀ (hw × ckk), sample by sample.
        for (s, dout_s) in dout_run.chunks_exact(out_len).enumerate() {
            let col_s = &block[s * hw_out..];
            sgemm_a_bt_acc_strided(
                d.cout,
                hw_out,
                ckk,
                dout_s,
                col_s,
                g * hw_out,
                dw.data_mut(),
            );
        }
        let (dout_t, dcol, dxt) = (
            &mut dout_t[..g * out_len],
            &mut dcol[..g * col_len],
            &mut dxt[..g * in_len],
        );
        // dcol = Wᵀ (ckk × cout) · dout (cout × g·hw), from `+0.0`.
        to_channel_major(dout_run, g, d.cout, hw_out, dout_t);
        dcol.fill(0.0);
        sgemm_at_b_acc(ckk, d.cout, g * hw_out, weight.data(), dout_t, dcol);
        dxt.fill(0.0);
        scatter_run(dcol, g, d.cin, &table, &mut gathered, dxt);
        let dx_run = &mut dx.data_mut()[s0 * in_len..(s0 + g) * in_len];
        from_channel_major(dxt, g, d.cin, hw_in, dx_run);
    }
    for buf in [gathered, dout_t, dcol, dxt] {
        scratch.give(buf);
    }
    table.give(scratch);
    (dx, dw)
}

/// Valid output range `[lo, hi)` for window tap `kk`: the outputs `o`
/// with `0 <= o*stride + kk - pad < limit_in`, clamped to `limit_out`.
/// The tap tables' masks and the average pool's count table are built
/// from it, so no kernel loop tests bounds.
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
/// Its tap table and per-lane weights come from `scratch` and go back to
/// it; the output is allocated, since the tape keeps it.
pub fn dwconv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    scratch: &mut Scratch,
) -> Tensor {
    let out = Tensor::zeros(&window_out_shape(x, geom));
    dwconv2d_acc(x, weight, geom, out, scratch)
}

/// [`dwconv2d_forward`] with its output drawn from `scratch` too.
pub fn dwconv2d_forward_scratch(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    scratch: &mut Scratch,
) -> Tensor {
    let out = zeroed_from(scratch, window_out_shape(x, geom));
    dwconv2d_acc(x, weight, geom, out, scratch)
}

/// Accumulates the depthwise convolution of `x` into the zeroed `out`:
/// tap by tap, every valid lane of a sample adds `weight · input` (a
/// multiply, then an add) to its running sum.
fn dwconv2d_acc(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    mut out: Tensor,
    scratch: &mut Scratch,
) -> Tensor {
    let (n, c, h, w) = shape4(x);
    let ws = weight.shape();
    assert_eq!(ws, &[c, geom.k, geom.k], "dwconv weight shape");
    let (hout, wout) = (out.shape()[2], out.shape()[3]);
    let taps = TapTable::take(scratch, c, h, w, geom);
    let (span, in_len) = (c * hout * wout, c * h * w);
    let lane_w = lane_weights(weight, &taps, c, scratch);
    let mut gathered = scratch.take(taps.gather_len());
    for i in 0..n {
        let xs = &x.data()[i * in_len..(i + 1) * in_len];
        let os = &mut out.data_mut()[i * span..(i + 1) * span];
        taps.for_each_tap(xs, c, &mut gathered, |t, lanes, xv, valid| {
            let wt = &lane_w[t * span..(t + 1) * span][lanes.clone()];
            for (((o, &v), &m), &wv) in os[lanes].iter_mut().zip(xv).zip(valid).zip(wt) {
                *o = if m { *o + wv * v } else { *o };
            }
        });
    }
    scratch.give(lane_w);
    scratch.give(gathered);
    taps.give(scratch);
    out
}

/// Each lane's weight for each tap of a depthwise convolution, `taps`
/// rows of `c·hout·wout` lanes: channel `ch`'s tap weight across its
/// plane. Drawn from `scratch`; give it back when done.
fn lane_weights(weight: &Tensor, taps: &TapTable, c: usize, scratch: &mut Scratch) -> Vec<f32> {
    let (kk, hw_out) = (taps.taps, taps.hw_out);
    let span = c * hw_out;
    let mut lane_w = scratch.take(kk * span);
    for (t, row) in lane_w.chunks_exact_mut(span).enumerate() {
        for (ch, plane) in row.chunks_exact_mut(hw_out).enumerate() {
            plane.fill(weight.data()[ch * kk + t]);
        }
    }
    lane_w
}

/// Sums each `hw`-lane plane of `planes` into its entry of `sums`, lane
/// by lane from `+0.0`. Eight planes' sums advance side by side, so the
/// adds of one plane's chain overlap the others' instead of waiting on
/// each other.
fn plane_sums(planes: &[f32], hw: usize, sums: &mut [f32]) {
    const SIDE: usize = 8;
    let mut groups = planes.chunks_exact(SIDE * hw);
    let mut outs = sums.chunks_exact_mut(SIDE);
    for (group, out) in (&mut groups).zip(&mut outs) {
        let mut acc = [0.0f32; SIDE];
        let lanes: [&[f32]; SIDE] = std::array::from_fn(|p| &group[p * hw..(p + 1) * hw]);
        for o in 0..hw {
            for p in 0..SIDE {
                acc[p] += lanes[p][o];
            }
        }
        out.copy_from_slice(&acc);
    }
    let rest = groups.remainder().chunks_exact(hw);
    for (plane, s) in rest.zip(outs.into_remainder()) {
        *s = plane.iter().fold(0.0, |a, &v| a + v);
    }
}

/// Backward depthwise convolution, in masked tap passes over a
/// tap table from `scratch` that spans one sample's `c` planes.
/// Returns `(dx, dweight)`.
///
/// Each sum takes its terms in the order of the per-output loop this
/// replaced, which skipped every exact-zero output gradient:
///
/// * `dx` adds `g·w` into each input over its outputs in increasing
///   order, which is reverse `(ky, kx)` tap order (a later tap reaches
///   an input from an earlier output), so the taps run in reverse.
/// * `dw` keeps one running sum per (channel, tap) over the outputs in
///   order, from `+0.0`, adding `g·x` as a multiply then an add. Such a
///   sum is never `-0.0`, so a skipped term can add `+0.0` instead. A
///   sample's sums are added into `dw` in sample order.
pub fn dwconv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    dout: &Tensor,
    scratch: &mut Scratch,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = shape4(x);
    assert_eq!(weight.shape(), &[c, geom.k, geom.k], "dwconv weight shape");
    assert_eq!(dout.shape(), window_out_shape(x, geom), "dwconv dout shape");
    let taps = TapTable::take(scratch, c, h, w, geom);
    let (kk, hw_out) = (taps.taps, taps.hw_out);
    let (span, in_len) = (c * hw_out, c * h * w);
    let lane_w = lane_weights(weight, &taps, c, scratch);
    let mut gathered = scratch.take(taps.gather_len());
    let mut terms = scratch.take(span);
    let mut sums = scratch.take(c);
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(weight.shape());
    for i in 0..n {
        let gs = &dout.data()[i * span..(i + 1) * span];
        let dxs = &mut dx.data_mut()[i * in_len..(i + 1) * in_len];
        taps.for_each_tap_mut(
            dxs,
            c,
            &mut gathered,
            (0..kk).rev(),
            |t, lanes, dv, valid| {
                let wt = &lane_w[t * span..(t + 1) * span][lanes.clone()];
                for (((d, &g), &m), &wv) in dv.iter_mut().zip(&gs[lanes]).zip(valid).zip(wt) {
                    *d = if m & (g != 0.0) { *d + g * wv } else { *d };
                }
            },
        );
        let xs = &x.data()[i * in_len..(i + 1) * in_len];
        let dws = dw.data_mut();
        taps.for_each_tap(xs, c, &mut gathered, |t, lanes, xv, valid| {
            terms[..lanes.start].fill(0.0);
            terms[lanes.end..].fill(0.0);
            let lane_terms = terms[lanes.clone()].iter_mut().zip(&gs[lanes]);
            for (((p, &g), &v), &m) in lane_terms.zip(xv).zip(valid) {
                *p = if m & (g != 0.0) { g * v } else { 0.0 };
            }
            plane_sums(&terms, hw_out, &mut sums);
            for (ch, &s) in sums.iter().enumerate() {
                dws[ch * kk + t] += s;
            }
        });
    }
    for buf in [lane_w, gathered, terms, sums] {
        scratch.give(buf);
    }
    taps.give(scratch);
    (dx, dw)
}

/// Forward max pooling; returns the output and the argmax index (into the
/// flattened input plane) for each output element, used by backward. Its
/// tap table comes from `scratch` and goes back to it.
pub fn maxpool_forward(x: &Tensor, geom: ConvGeom, scratch: &mut Scratch) -> (Tensor, Vec<u32>) {
    let shape = window_out_shape(x, geom);
    let mut arg = vec![0u32; shape.iter().product()];
    let out = maxpool_into::<true>(x, geom, Tensor::zeros(&shape), &mut arg, scratch);
    (out, arg)
}

/// [`maxpool_forward`]'s output alone, drawn from `scratch`: inference
/// needs no argmax.
pub fn maxpool_forward_scratch(x: &Tensor, geom: ConvGeom, scratch: &mut Scratch) -> Tensor {
    let shape = window_out_shape(x, geom);
    let out = Tensor::from_vec(&shape, scratch.take(shape.iter().product()));
    maxpool_into::<false>(x, geom, out, &mut [], scratch)
}

/// Writes every window's maximum into `out` and, with `ARG`, its argmax
/// into `arg` (`0` where no tap is greater than `-inf`); the prior
/// contents of both are overwritten.
fn maxpool_into<const ARG: bool>(
    x: &Tensor,
    geom: ConvGeom,
    mut out: Tensor,
    arg: &mut [u32],
    scratch: &mut Scratch,
) -> Tensor {
    let (n, c, h, w) = shape4(x);
    let (hout, wout) = (out.shape()[2], out.shape()[3]);
    out.data_mut().fill(f32::NEG_INFINITY);
    let taps = TapTable::take(scratch, c, h, w, geom);
    let (hw_out, span, in_len) = (hout * wout, c * hout * wout, c * h * w);
    let mut gathered = scratch.take(taps.gather_len());
    // Running max, tap by tap in (ky, kx) order: only a *strictly*
    // greater value replaces the running best, so ties resolve to the
    // first tap, and the branch-free select compiles to blends. The
    // argmax is tracked as the winning tap and turned into an index
    // within the input plane once the taps are done.
    const NO_TAP: u32 = u32::MAX;
    for i in 0..n {
        let xs = &x.data()[i * in_len..(i + 1) * in_len];
        let os = &mut out.data_mut()[i * span..(i + 1) * span];
        let args: &mut [u32] = if ARG {
            &mut arg[i * span..(i + 1) * span]
        } else {
            &mut []
        };
        args.fill(NO_TAP);
        taps.for_each_tap(xs, c, &mut gathered, |t, lanes, xv, valid| {
            if ARG {
                let lanes = os[lanes.clone()].iter_mut().zip(&mut args[lanes]);
                for (((o, a), &v), &m) in lanes.zip(xv).zip(valid) {
                    let better = m && v > *o;
                    *a = if better { t as u32 } else { *a };
                    *o = if better { v } else { *o };
                }
            } else {
                for ((o, &v), &m) in os[lanes].iter_mut().zip(xv).zip(valid) {
                    *o = if m && v > *o { v } else { *o };
                }
            }
        });
        for plane in args.chunks_exact_mut(hw_out) {
            for (o, a) in plane.iter_mut().enumerate() {
                *a = match *a {
                    NO_TAP => 0,
                    t => taps.plane_read(t as usize, o / wout, o % wout),
                };
            }
        }
    }
    scratch.give(gathered);
    taps.give(scratch);
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
/// `count_include_pad=False`). Its tap table comes from `scratch` and goes
/// back to it; the output is allocated, since the tape keeps it.
pub fn avgpool_forward(x: &Tensor, geom: ConvGeom, scratch: &mut Scratch) -> Tensor {
    let out = Tensor::zeros(&window_out_shape(x, geom));
    avgpool_acc(x, geom, out, scratch)
}

/// [`avgpool_forward`] with its output drawn from `scratch` too.
pub fn avgpool_forward_scratch(x: &Tensor, geom: ConvGeom, scratch: &mut Scratch) -> Tensor {
    let out = zeroed_from(scratch, window_out_shape(x, geom));
    avgpool_acc(x, geom, out, scratch)
}

/// Accumulates the window averages of `x` into the zeroed `out`.
fn avgpool_acc(x: &Tensor, geom: ConvGeom, mut out: Tensor, scratch: &mut Scratch) -> Tensor {
    let (n, c, h, w) = shape4(x);
    let (hout, wout) = (out.shape()[2], out.shape()[3]);
    let inv_cnt: Vec<f32> = window_counts(geom, h, w).iter().map(|k| 1.0 / k).collect();
    let taps = TapTable::take(scratch, c, h, w, geom);
    let (span, in_len) = (c * hout * wout, c * h * w);
    let mut gathered = scratch.take(taps.gather_len());
    // Tap-by-tap sums over a sample's lanes, then one scale pass by the
    // count table.
    for i in 0..n {
        let xs = &x.data()[i * in_len..(i + 1) * in_len];
        let os = &mut out.data_mut()[i * span..(i + 1) * span];
        taps.for_each_tap(xs, c, &mut gathered, |_, lanes, xv, valid| {
            for ((o, &v), &m) in os[lanes].iter_mut().zip(xv).zip(valid) {
                *o = if m { *o + v } else { *o };
            }
        });
        for plane in os.chunks_exact_mut(hout * wout) {
            for (o, iv) in plane.iter_mut().zip(&inv_cnt) {
                *o *= *iv;
            }
        }
    }
    scratch.give(gathered);
    taps.give(scratch);
    out
}

/// Valid taps of each lane of a window op's `hout × wout` output plane
/// over `h × w` input planes (at least 1), the count the average pool
/// divides by: `(#valid ky)·(#valid kx)`.
fn window_counts(geom: ConvGeom, h: usize, w: usize) -> Vec<f32> {
    let (s, pad) = (geom.stride, geom.pad);
    let (hout, wout) = (geom.out_dim(h), geom.out_dim(w));
    let mut cnt_y = vec![0u32; hout];
    let mut cnt_x = vec![0u32; wout];
    for kk in 0..geom.k {
        let (lo, hi) = tap_range(kk, pad, s, h, hout);
        for cy in &mut cnt_y[lo..hi] {
            *cy += 1;
        }
        let (lo, hi) = tap_range(kk, pad, s, w, wout);
        for cx in &mut cnt_x[lo..hi] {
            *cx += 1;
        }
    }
    cnt_y
        .iter()
        .flat_map(|cy| cnt_x.iter().map(move |cx| (cy * cx).max(1) as f32))
        .collect()
}

/// Backward average pooling (padding excluded from the divisor), in
/// masked tap passes over a tap table from `scratch` that spans one
/// sample's `c` planes. Each output's gradient is divided by its count,
/// then added into the inputs its window read; an input takes those
/// terms in increasing output order, which is reverse `(ky, kx)` tap
/// order, so the taps run in reverse.
pub fn avgpool_backward(
    x_shape: &[usize],
    geom: ConvGeom,
    dout: &Tensor,
    scratch: &mut Scratch,
) -> Tensor {
    let (n, c, h, w) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let taps = TapTable::take(scratch, c, h, w, geom);
    let (kk, hw_out) = (taps.taps, taps.hw_out);
    let (span, in_len) = (c * hw_out, c * h * w);
    assert_eq!(dout.len(), n * span, "avgpool dout shape");
    let cnt = window_counts(geom, h, w);
    let mut gathered = scratch.take(taps.gather_len());
    let mut gd = scratch.take(span);
    let mut dx = Tensor::zeros(x_shape);
    for i in 0..n {
        let gs = &dout.data()[i * span..(i + 1) * span];
        for (gp, dp) in gd.chunks_exact_mut(hw_out).zip(gs.chunks_exact(hw_out)) {
            for ((g, &d), &k) in gp.iter_mut().zip(dp).zip(&cnt) {
                *g = d / k;
            }
        }
        let dxs = &mut dx.data_mut()[i * in_len..(i + 1) * in_len];
        taps.for_each_tap_mut(
            dxs,
            c,
            &mut gathered,
            (0..kk).rev(),
            |_, lanes, dv, valid| {
                for ((d, &g), &m) in dv.iter_mut().zip(&gd[lanes]).zip(valid) {
                    *d = if m { *d + g } else { *d };
                }
            },
        );
    }
    scratch.give(gathered);
    scratch.give(gd);
    taps.give(scratch);
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
    use rand::{RngExt, SeedableRng};

    /// Values that salt test inputs: signed zero, NaN, infinities and
    /// outliers.
    const INPUT_SPECIALS: [f32; 6] = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e6, -1e6];
    /// Values that salt test weights.
    const WEIGHT_SPECIALS: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    /// Values that salt test output gradients: mostly exact zeros, which
    /// the depthwise backward skips, and a few specials.
    const GRAD_SPECIALS: [f32; 8] = [0.0, -0.0, 0.0, -0.0, f32::NAN, f32::INFINITY, 1e6, -1e6];

    /// Standard-normal values with about one in `every` replaced by one
    /// of `specials`.
    fn salted(shape: &[usize], specials: &[f32], every: u32, rng: &mut StdRng) -> Tensor {
        let mut t = Tensor::randn(shape, 1.0, rng);
        for v in t.data_mut() {
            if rng.random_range(0..every) == 0 {
                *v = specials[rng.random_range(0..specials.len())];
            }
        }
        t
    }

    /// An arena of stale NaN buffers of assorted sizes.
    fn stale_scratch() -> Scratch {
        let mut scratch = Scratch::new();
        for len in [64, 4096, 4096, 20_000, 70_000, 300_000] {
            scratch.give(vec![f32::NAN; len]);
        }
        scratch
    }

    /// A tensor's shape and [`bit_patterns`].
    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (t.shape().to_vec(), bit_patterns(t.data()))
    }

    /// Bit patterns with every NaN read as the canonical one: Rust leaves
    /// the sign and payload of a NaN result unspecified (an `a + b` of two
    /// NaNs may return either), so only NaN-ness can be pinned.
    fn bit_patterns(v: &[f32]) -> Vec<u32> {
        let canonical = |v: &f32| if v.is_nan() { f32::NAN } else { *v }.to_bits();
        v.iter().map(canonical).collect()
    }

    /// Lowers `g` NCHW samples as the conv forwards do: copied
    /// channel-major, then [`lower`]ed through a table of `table_planes`
    /// planes into a column block prefilled with NaN.
    fn lower_samples(
        x: &[f32],
        g: usize,
        table_planes: usize,
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeom,
        relu: bool,
    ) -> Vec<f32> {
        let (hout, wout) = (geom.out_dim(h), geom.out_dim(w));
        let table = TapTable::new(table_planes, h, w, geom);
        let hw = h * w;
        let mut xt = vec![f32::NAN; x.len()];
        for s in 0..g {
            for ch in 0..c {
                xt[(ch * g + s) * hw..(ch * g + s + 1) * hw]
                    .copy_from_slice(&x[(s * c + ch) * hw..(s * c + ch + 1) * hw]);
            }
        }
        let mut col = vec![f32::NAN; c * geom.k * geom.k * g * hout * wout];
        let mut gathered = vec![f32::NAN; table.gather_len()];
        lower(&xt, g, c, &table, relu, &mut gathered, &mut col);
        col
    }

    /// Scatters the column block of a run of `g` samples as the conv
    /// backward does: through a table of `table_planes` planes into a
    /// zeroed channel-major gradient, returned sample-major.
    fn scatter_samples(
        dcol: &[f32],
        g: usize,
        table_planes: usize,
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeom,
    ) -> Vec<f32> {
        let table = TapTable::new(table_planes, h, w, geom);
        let mut dxt = vec![0.0f32; g * c * h * w];
        let mut gathered = vec![f32::NAN; table.gather_len()];
        scatter_run(dcol, g, c, &table, &mut gathered, &mut dxt);
        let mut dx = vec![f32::NAN; dxt.len()];
        from_channel_major(&dxt, g, c, h * w, &mut dx);
        dx
    }

    /// Kernel sizes 1, 3 and 5.
    fn odd_kernel() -> impl Strategy<Value = usize> {
        (0usize..3).prop_map(|i| 2 * i + 1)
    }

    /// The per-sample `im2col` and per-row window loops the kernels above
    /// replaced, kept as bitwise oracles: the run lowering, the batched
    /// conv and the whole-sample window kernels must reproduce them bit
    /// for bit.
    mod oracle {
        use super::super::{shape4, tap_range, ConvGeom};
        use crate::matmul::{sgemm, sgemm_a_bt_acc, sgemm_at_b_acc};
        use crate::tensor::Tensor;

        /// Lowers one sample `x[c, h, w]` into a column matrix `[c*k*k, hout*wout]`.
        ///
        /// With `RELU = true`, applies `max(0, ·)` to each element while copying —
        /// the fused forward path uses this to avoid materializing a separate
        /// ReLU output tensor. The flag is a const generic so the branch
        /// disappears from the generated inner loops.
        pub(super) fn im2col<const RELU: bool>(
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

        /// Accumulates the depthwise convolution of `x` into the zeroed `out`.
        pub(super) fn dwconv2d_acc(
            x: &Tensor,
            weight: &Tensor,
            geom: ConvGeom,
            mut out: Tensor,
        ) -> Tensor {
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
                    let oc = &mut out.data_mut()
                        [(i * c + ch) * hout * wout..(i * c + ch + 1) * hout * wout];
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
                                    for (o, xv) in orow.iter_mut().zip(xrow[x0..].iter().step_by(s))
                                    {
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

        /// Writes every window's maximum into `out` (whose contents are
        /// overwritten) and, with `ARG`, its argmax into `arg`.
        pub(super) fn maxpool_into<const ARG: bool>(
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

        /// Accumulates the window averages of `x` into the zeroed `out`.
        pub(super) fn avgpool_acc(x: &Tensor, geom: ConvGeom, mut out: Tensor) -> Tensor {
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
                                    for (o, xv) in orow.iter_mut().zip(xrow[x0..].iter().step_by(s))
                                    {
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

        /// The per-sample conv forward: each sample lowered by [`im2col`]
        /// and multiplied by `weight` in a GEMM of its own.
        pub(super) fn conv2d(x: &Tensor, weight: &Tensor, g: ConvGeom, relu: bool) -> Tensor {
            let (n, cin, h, w) = shape4(x);
            let cout = weight.shape()[0];
            let (hout, wout) = (g.out_dim(h), g.out_dim(w));
            let (ckk, hw) = (cin * g.k * g.k, hout * wout);
            let mut col = vec![0.0f32; ckk * hw];
            let mut out = Tensor::zeros(&[n, cout, hout, wout]);
            for i in 0..n {
                let xi = &x.data()[i * cin * h * w..(i + 1) * cin * h * w];
                if relu {
                    im2col::<true>(xi, cin, h, w, g, hout, wout, &mut col);
                } else {
                    im2col::<false>(xi, cin, h, w, g, hout, wout, &mut col);
                }
                let oi = &mut out.data_mut()[i * cout * hw..(i + 1) * cout * hw];
                sgemm(cout, ckk, hw, weight.data(), &col, oi);
            }
            out
        }

        /// Scatters a column-matrix gradient back to the input gradient
        /// (adjoint of [`im2col`]): `dx[c, h, w] += col2im(dcol)`.
        pub(super) fn col2im_acc(
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

        /// The per-sample conv backward: each sample's columns lowered by
        /// [`im2col`], `dW += dout_i · col_iᵀ`, then
        /// `dcol = Wᵀ · dout_i` scattered by [`col2im_acc`].
        pub(super) fn conv2d_backward(
            x: &Tensor,
            weight: &Tensor,
            g: ConvGeom,
            relu: bool,
            dout: &Tensor,
        ) -> (Tensor, Tensor) {
            let (n, cin, h, w) = shape4(x);
            let cout = weight.shape()[0];
            let (hout, wout) = (g.out_dim(h), g.out_dim(w));
            let (ckk, hw_out) = (cin * g.k * g.k, hout * wout);
            let mut dx = Tensor::zeros(x.shape());
            let mut dw = Tensor::zeros(weight.shape());
            let mut col = vec![0.0f32; ckk * hw_out];
            let mut dcol = vec![0.0f32; ckk * hw_out];
            for i in 0..n {
                let xi = &x.data()[i * cin * h * w..(i + 1) * cin * h * w];
                if relu {
                    im2col::<true>(xi, cin, h, w, g, hout, wout, &mut col);
                } else {
                    im2col::<false>(xi, cin, h, w, g, hout, wout, &mut col);
                }
                let doi = &dout.data()[i * cout * hw_out..(i + 1) * cout * hw_out];
                sgemm_a_bt_acc(cout, hw_out, ckk, doi, &col, dw.data_mut());
                dcol.fill(0.0);
                sgemm_at_b_acc(ckk, cout, hw_out, weight.data(), doi, &mut dcol);
                let dxi = &mut dx.data_mut()[i * cin * h * w..(i + 1) * cin * h * w];
                col2im_acc(&dcol, cin, h, w, g, hout, wout, dxi);
            }
            (dx, dw)
        }

        /// Backward depthwise convolution, one output at a time.
        pub(super) fn dwconv2d_backward(
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
                    let doc =
                        &dout.data()[(i * c + ch) * hout * wout..(i * c + ch + 1) * hout * wout];
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

        /// Backward average pooling, one output at a time.
        pub(super) fn avgpool_backward(x_shape: &[usize], geom: ConvGeom, dout: &Tensor) -> Tensor {
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
    }

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
        let col = lower_samples(x.data(), 1, 1, 3, 4, 5, g, false);
        assert_eq!(col, x.data());
        assert_eq!(scatter_samples(&col, 1, 1, 3, 4, 5, g), x.data());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The run scatter is the adjoint of the run lowering:
        /// `<lower(x), y> == <x, scatter(y)>` for every geometry and run
        /// length — the round-trip identity the conv backward pass
        /// relies on.
        #[test]
        fn lowering_and_scatter_are_adjoint(
            seed in 0u64..1000,
            n in 1usize..4,
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
            let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
            let y = Tensor::randn(&[c * k * k, n, hout, wout], 1.0, &mut rng);
            let col = lower_samples(x.data(), n, n, c, h, w, g, false);
            let back = scatter_samples(y.data(), n, n, c, h, w, g);
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
            n in 1usize..41,
            cin in 1usize..5,
            cout in 1usize..5,
            h in 1usize..13,
            w in 1usize..13,
            k in 1usize..6,
            stride in 1usize..3,
            pad in 0usize..3,
            relu in any::<bool>(),
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeom::new(k, stride, pad);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = salted(&[n, cin, h, w], &INPUT_SPECIALS, 8, &mut rng);
            let wt = salted(&[cout, cin, k, k], &WEIGHT_SPECIALS, 64, &mut rng);
            let dw = salted(&[cin, k, k], &WEIGHT_SPECIALS, 64, &mut rng);
            let mut scratch = stale_scratch();
            let (conv, _) = conv2d_forward_scratch(&x, &wt, g, relu, &mut Scratch::new());
            prop_assert_eq!(bits(&conv2d_forward_infer(&x, &wt, g, relu, &mut scratch)), bits(&conv));
            prop_assert_eq!(
                bits(&dwconv2d_forward_scratch(&x, &dw, g, &mut scratch)),
                bits(&dwconv2d_forward(&x, &dw, g, &mut Scratch::new()))
            );
            prop_assert_eq!(
                bits(&maxpool_forward_scratch(&x, g, &mut scratch)),
                bits(&maxpool_forward(&x, g, &mut Scratch::new()).0)
            );
            prop_assert_eq!(
                bits(&avgpool_forward_scratch(&x, g, &mut scratch)),
                bits(&avgpool_forward(&x, g, &mut Scratch::new()))
            );
        }

        /// The run lowering writes the oracle `im2col`'s columns bit for
        /// bit, one sample at a time (training's layout) and in runs of
        /// up to `run` samples (inference's, the last run shorter than its
        /// table), into blocks prefilled with NaN.
        #[test]
        fn lowering_matches_im2col_oracle_bitwise(
            seed in 0u64..1000,
            n in 1usize..41,
            c in 1usize..5,
            h in 1usize..13,
            w in 1usize..13,
            k in odd_kernel(),
            stride in 1usize..3,
            pad in 0usize..3,
            relu in any::<bool>(),
            run in 1usize..41,
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeom::new(k, stride, pad);
            let (hout, wout) = (g.out_dim(h), g.out_dim(w));
            let (ckk, hw, in_len) = (c * k * k, hout * wout, c * h * w);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = salted(&[n, c, h, w], &INPUT_SPECIALS, 8, &mut rng);
            let want: Vec<Vec<u32>> = (0..n)
                .map(|i| {
                    let mut col = vec![f32::NAN; ckk * hw];
                    let xi = &x.data()[i * in_len..(i + 1) * in_len];
                    if relu {
                        oracle::im2col::<true>(xi, c, h, w, g, hout, wout, &mut col);
                    } else {
                        oracle::im2col::<false>(xi, c, h, w, g, hout, wout, &mut col);
                    }
                    bit_patterns(&col)
                })
                .collect();
            for (i, want_i) in want.iter().enumerate() {
                let xi = &x.data()[i * in_len..(i + 1) * in_len];
                let col = lower_samples(xi, 1, 1, c, h, w, g, relu);
                prop_assert_eq!(&bit_patterns(&col), want_i);
            }
            for s0 in (0..n).step_by(run) {
                let g_run = run.min(n - s0);
                let xr = &x.data()[s0 * in_len..(s0 + g_run) * in_len];
                let col = lower_samples(xr, g_run, run, c, h, w, g, relu);
                for r in 0..ckk {
                    for s in 0..g_run {
                        let got = bit_patterns(&col[(r * g_run + s) * hw..(r * g_run + s + 1) * hw]);
                        prop_assert_eq!(&got[..], &want[s0 + s][r * hw..(r + 1) * hw]);
                    }
                }
            }
        }

        /// Both conv forwards equal the per-sample `im2col` + GEMM oracle
        /// bit for bit, on inputs salted with signed zeros, NaN, infinities
        /// and outliers and weights salted with NaN and infinities.
        #[test]
        fn conv_forwards_match_per_sample_oracle_bitwise(
            seed in 0u64..1000,
            n in 1usize..41,
            cin in 1usize..5,
            cout in 1usize..5,
            h in 1usize..13,
            w in 1usize..13,
            k in odd_kernel(),
            stride in 1usize..3,
            pad in 0usize..3,
            relu in any::<bool>(),
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeom::new(k, stride, pad);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = salted(&[n, cin, h, w], &INPUT_SPECIALS, 8, &mut rng);
            let wt = salted(&[cout, cin, k, k], &WEIGHT_SPECIALS, 64, &mut rng);
            let want = bits(&oracle::conv2d(&x, &wt, g, relu));
            let got = conv2d_forward_infer(&x, &wt, g, relu, &mut stale_scratch());
            prop_assert_eq!(bits(&got), want.clone());
            let (got, _) = conv2d_forward_scratch(&x, &wt, g, relu, &mut stale_scratch());
            prop_assert_eq!(bits(&got), want);
        }

        /// The whole-sample depthwise, max (with and without argmax) and
        /// average pooling kernels equal the per-row oracles bit for bit.
        #[test]
        fn window_kernels_match_row_oracles_bitwise(
            seed in 0u64..1000,
            n in 1usize..41,
            c in 1usize..5,
            h in 1usize..13,
            w in 1usize..13,
            k in odd_kernel(),
            stride in 1usize..3,
            pad in 0usize..3,
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeom::new(k, stride, pad);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = salted(&[n, c, h, w], &INPUT_SPECIALS, 8, &mut rng);
            let dw = salted(&[c, k, k], &WEIGHT_SPECIALS, 16, &mut rng);
            let shape = window_out_shape(&x, g);
            let zeros = || Tensor::zeros(&shape);
            let want = bits(&oracle::dwconv2d_acc(&x, &dw, g, zeros()));
            prop_assert_eq!(bits(&dwconv2d_forward(&x, &dw, g, &mut Scratch::new())), want.clone());
            prop_assert_eq!(bits(&dwconv2d_forward_scratch(&x, &dw, g, &mut stale_scratch())), want);
            let mut want_arg = vec![0u32; shape.iter().product()];
            let want = bits(&oracle::maxpool_into::<true>(&x, g, zeros(), &mut want_arg));
            let (got, arg) = maxpool_forward(&x, g, &mut Scratch::new());
            prop_assert_eq!(bits(&got), want.clone());
            prop_assert_eq!(arg, want_arg);
            prop_assert_eq!(bits(&maxpool_forward_scratch(&x, g, &mut stale_scratch())), want);
            let want = bits(&oracle::avgpool_acc(&x, g, zeros()));
            prop_assert_eq!(bits(&avgpool_forward(&x, g, &mut Scratch::new())), want.clone());
            prop_assert_eq!(bits(&avgpool_forward_scratch(&x, g, &mut stale_scratch())), want);
        }

        /// The run scatter adds the oracle `col2im`'s terms bit for bit,
        /// in runs of up to `run` samples (the last run shorter than its
        /// table), on gradients salted with signed zeros, NaN, infinities
        /// and outliers.
        #[test]
        fn scatter_matches_col2im_oracle_bitwise(
            seed in 0u64..1000,
            n in 1usize..41,
            c in 1usize..5,
            h in 1usize..13,
            w in 1usize..13,
            k in odd_kernel(),
            stride in 1usize..3,
            pad in 0usize..3,
            run in 1usize..41,
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeom::new(k, stride, pad);
            let (hout, wout) = (g.out_dim(h), g.out_dim(w));
            let (ckk, hw, in_len) = (c * k * k, hout * wout, c * h * w);
            let mut rng = StdRng::seed_from_u64(seed);
            let dcols = salted(&[n, ckk, hout, wout], &INPUT_SPECIALS, 8, &mut rng);
            let mut want = vec![0.0f32; n * in_len];
            for (dcol, dx) in dcols.data().chunks_exact(ckk * hw).zip(want.chunks_exact_mut(in_len)) {
                oracle::col2im_acc(dcol, c, h, w, g, hout, wout, dx);
            }
            for s0 in (0..n).step_by(run) {
                let g_run = run.min(n - s0);
                // The run's block: row `r` holds each sample's row `r`.
                let mut block = vec![f32::NAN; ckk * g_run * hw];
                for r in 0..ckk {
                    for s in 0..g_run {
                        block[(r * g_run + s) * hw..][..hw]
                            .copy_from_slice(&dcols.data()[((s0 + s) * ckk + r) * hw..][..hw]);
                    }
                }
                let got = scatter_samples(&block, g_run, run, c, h, w, g);
                let want = bit_patterns(&want[s0 * in_len..(s0 + g_run) * in_len]);
                prop_assert_eq!(bit_patterns(&got), want);
            }
        }

        /// The run-wide conv backward equals the per-sample oracle bit for
        /// bit, `dx` and `dW`, on the forward's salted inputs and weights
        /// and on output gradients salted with exact zeros and specials,
        /// with buffers recycled from an arena of stale NaNs.
        #[test]
        fn conv_backward_matches_per_sample_oracle_bitwise(
            seed in 0u64..1000,
            n in 1usize..41,
            cin in 1usize..5,
            cout in 1usize..5,
            h in 1usize..13,
            w in 1usize..13,
            k in odd_kernel(),
            stride in 1usize..3,
            pad in 0usize..3,
            relu in any::<bool>(),
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeom::new(k, stride, pad);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = salted(&[n, cin, h, w], &INPUT_SPECIALS, 8, &mut rng);
            let wt = salted(&[cout, cin, k, k], &WEIGHT_SPECIALS, 64, &mut rng);
            let dout = salted(&[n, cout, g.out_dim(h), g.out_dim(w)], &GRAD_SPECIALS, 4, &mut rng);
            let (want_dx, want_dw) = oracle::conv2d_backward(&x, &wt, g, relu, &dout);
            let mut scratch = stale_scratch();
            let (_, cols) = conv2d_forward_scratch(&x, &wt, g, relu, &mut scratch);
            let (dx, dw) = conv2d_backward_scratch(&x, &wt, g, &cols, &dout, &mut scratch);
            prop_assert_eq!(bits(&dx), bits(&want_dx));
            prop_assert_eq!(bits(&dw), bits(&want_dw));
        }

        /// The tap-pass depthwise and average-pool backwards equal the
        /// per-output oracles bit for bit, on salted inputs and weights
        /// and on output gradients salted with exact zeros and specials.
        #[test]
        fn window_backwards_match_per_output_oracles_bitwise(
            seed in 0u64..1000,
            n in 1usize..41,
            c in 1usize..5,
            h in 1usize..13,
            w in 1usize..13,
            k in odd_kernel(),
            stride in 1usize..3,
            pad in 0usize..3,
        ) {
            prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
            let g = ConvGeom::new(k, stride, pad);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = salted(&[n, c, h, w], &INPUT_SPECIALS, 8, &mut rng);
            let wk = salted(&[c, k, k], &WEIGHT_SPECIALS, 16, &mut rng);
            let dout = salted(&window_out_shape(&x, g), &GRAD_SPECIALS, 4, &mut rng);
            let (want_dx, want_dw) = oracle::dwconv2d_backward(&x, &wk, g, &dout);
            let (dx, dw) = dwconv2d_backward(&x, &wk, g, &dout, &mut stale_scratch());
            prop_assert_eq!(bits(&dx), bits(&want_dx));
            prop_assert_eq!(bits(&dw), bits(&want_dw));
            let want = bits(&oracle::avgpool_backward(x.shape(), g, &dout));
            prop_assert_eq!(bits(&avgpool_backward(x.shape(), g, &dout, &mut stale_scratch())), want);
        }
    }

    /// Kernels sharing one arena reuse its tap tables across calls, a
    /// table built for more planes serving fewer, and still equal the
    /// oracles bit for bit; the arena keeps one table per geometry.
    #[test]
    fn kernels_reuse_tap_tables_across_calls() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut scratch = stale_scratch();
        let geoms = [(3, 1, 1), (3, 2, 1), (5, 1, 2)];
        for (n, c) in [(3, 4), (1, 2), (5, 4), (2, 1), (40, 3), (7, 4), (1, 1)] {
            for (k, stride, pad) in geoms {
                let g = ConvGeom::new(k, stride, pad);
                let x = salted(&[n, c, 6, 6], &INPUT_SPECIALS, 8, &mut rng);
                let wt = Tensor::randn(&[3, c, k, k], 0.5, &mut rng);
                let dw = Tensor::randn(&[c, k, k], 0.5, &mut rng);
                let shape = window_out_shape(&x, g);
                let zeros = || Tensor::zeros(&shape);
                let dout = salted(&shape, &GRAD_SPECIALS, 4, &mut rng);
                let conv_dout = salted(&[n, 3, shape[2], shape[3]], &GRAD_SPECIALS, 4, &mut rng);
                for relu in [false, true] {
                    let want = bits(&oracle::conv2d(&x, &wt, g, relu));
                    let got = conv2d_forward_infer(&x, &wt, g, relu, &mut scratch);
                    assert_eq!(bits(&got), want);
                    let (got, cols) = conv2d_forward_scratch(&x, &wt, g, relu, &mut scratch);
                    assert_eq!(bits(&got), want);
                    let (dx, dwt) =
                        conv2d_backward_scratch(&x, &wt, g, &cols, &conv_dout, &mut scratch);
                    let (want_dx, want_dwt) = oracle::conv2d_backward(&x, &wt, g, relu, &conv_dout);
                    assert_eq!((bits(&dx), bits(&dwt)), (bits(&want_dx), bits(&want_dwt)));
                    scratch.give(cols);
                }
                let want = bits(&oracle::dwconv2d_acc(&x, &dw, g, zeros()));
                assert_eq!(bits(&dwconv2d_forward(&x, &dw, g, &mut scratch)), want);
                let got = dwconv2d_forward_scratch(&x, &dw, g, &mut scratch);
                assert_eq!(bits(&got), want);
                let (dx, ddw) = dwconv2d_backward(&x, &dw, g, &dout, &mut scratch);
                let (want_dx, want_ddw) = oracle::dwconv2d_backward(&x, &dw, g, &dout);
                assert_eq!((bits(&dx), bits(&ddw)), (bits(&want_dx), bits(&want_ddw)));
                let dx = avgpool_backward(x.shape(), g, &dout, &mut scratch);
                assert_eq!(
                    bits(&dx),
                    bits(&oracle::avgpool_backward(x.shape(), g, &dout))
                );
                let mut want_arg = vec![0u32; zeros().len()];
                let want = bits(&oracle::maxpool_into::<true>(&x, g, zeros(), &mut want_arg));
                let (got, got_arg) = maxpool_forward(&x, g, &mut scratch);
                assert_eq!((bits(&got), got_arg), (want.clone(), want_arg));
                assert_eq!(bits(&maxpool_forward_scratch(&x, g, &mut scratch)), want);
                let want = bits(&oracle::avgpool_acc(&x, g, zeros()));
                assert_eq!(bits(&avgpool_forward(&x, g, &mut scratch)), want);
                assert_eq!(bits(&avgpool_forward_scratch(&x, g, &mut scratch)), want);
            }
        }
        assert!(
            scratch.tap_tables.len() <= geoms.len(),
            "{} tables kept",
            scratch.tap_tables.len()
        );
    }

    /// Batches whose runs of samples do not divide them evenly (among
    /// them the 8-channel 3×3 conv at batch 32, runs of 6 ending in a
    /// run of 2): both conv forwards and the backward still equal the
    /// per-sample oracles bit for bit.
    #[test]
    fn conv_runs_cross_chunk_boundaries() {
        let mut rng = StdRng::seed_from_u64(34);
        let cases = [
            (38, 4, 12, 5, 1),
            (37, 4, 12, 3, 1),
            (39, 3, 12, 5, 2),
            (32, 8, 12, 3, 1),
        ];
        for (n, cin, hw, k, stride) in cases {
            let g = ConvGeom::same(k, stride);
            let (hout, wout) = (g.out_dim(hw), g.out_dim(hw));
            let run = COL_BLOCK / (cin * k * k * hout * wout);
            assert!(run > 1 && n > run && n % run != 0, "runs of {run} over {n}");
            let x = salted(&[n, cin, hw, hw], &INPUT_SPECIALS, 8, &mut rng);
            let wt = Tensor::randn(&[5, cin, k, k], 0.5, &mut rng);
            let dout = salted(&[n, 5, hout, wout], &GRAD_SPECIALS, 4, &mut rng);
            for relu in [false, true] {
                let want = bits(&oracle::conv2d(&x, &wt, g, relu));
                let got = conv2d_forward_infer(&x, &wt, g, relu, &mut stale_scratch());
                assert_eq!(bits(&got), want);
                let mut scratch = stale_scratch();
                let (got, cols) = conv2d_forward_scratch(&x, &wt, g, relu, &mut scratch);
                assert_eq!(bits(&got), want);
                let (dx, dw) = conv2d_backward_scratch(&x, &wt, g, &cols, &dout, &mut scratch);
                let (want_dx, want_dw) = oracle::conv2d_backward(&x, &wt, g, relu, &dout);
                assert_eq!((bits(&dx), bits(&dw)), (bits(&want_dx), bits(&want_dw)));
            }
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
        let y = dwconv2d_forward(&x, &w, ConvGeom::same(3, 1), &mut Scratch::new());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn maxpool_simple() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let (y, arg) = maxpool_forward(&x, ConvGeom::new(2, 2, 0), &mut Scratch::new());
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
        let y = avgpool_forward(&x, ConvGeom::same(3, 1), &mut Scratch::new());
        // All outputs must be exactly 1.0 because padding is excluded.
        for v in y.data() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn avgpool_backward_distributes() {
        let shape = [1, 1, 2, 2];
        let dout = Tensor::ones(&[1, 1, 1, 1]);
        let dx = avgpool_backward(&shape, ConvGeom::new(2, 2, 0), &dout, &mut Scratch::new());
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
        let y = dwconv2d_forward(&x, &w, g, &mut Scratch::new());
        let dout = Tensor::ones(y.shape());
        let (dx, dw) = dwconv2d_backward(&x, &w, g, &dout, &mut Scratch::new());
        let loss = |x: &Tensor, w: &Tensor| dwconv2d_forward(x, w, g, &mut Scratch::new()).sum();
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
