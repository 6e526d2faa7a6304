//! A single-layer LSTM cell run in lockstep over a batch of rows: each
//! step's gate product for every row is one matrix product, and so are
//! the backward pass's input and weight gradients.

#![allow(clippy::needless_range_loop)]

use crate::gemm::gemm_acc;
use yoso_tensor::{ParamId, ParamStore, Tensor};

/// Parameter ids of one LSTM cell inside a [`ParamStore`].
#[derive(Debug, Clone, Copy)]
pub struct LstmParams {
    /// Input-to-hidden weights `[4H, E]` (gate order: i, f, g, o).
    pub w_ih: ParamId,
    /// Hidden-to-hidden weights `[4H, H]`.
    pub w_hh: ParamId,
    /// Gate biases `[4H]` (forget-gate bias initialized to 1).
    pub b: ParamId,
}

/// Hidden/input sizes of the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LstmShape {
    /// Hidden units (paper: 120).
    pub hidden: usize,
    /// Input (embedding) size.
    pub input: usize,
}

impl LstmShape {
    /// Width of one step's input row `[x | h_prev]`.
    pub(crate) fn z_width(self) -> usize {
        self.input + self.hidden
    }
}

impl LstmParams {
    /// Allocates LSTM parameters in `store` with small random init and a
    /// forget-gate bias of 1.
    pub fn init<R: rand::Rng + ?Sized>(
        shape: LstmShape,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let (h, e) = (shape.hidden, shape.input);
        let w_ih = store.add(Tensor::randn(&[4 * h, e], 0.1, rng));
        let w_hh = store.add(Tensor::randn(&[4 * h, h], 0.1, rng));
        let mut bias = Tensor::zeros(&[4 * h]);
        for v in &mut bias.data_mut()[h..2 * h] {
            *v = 1.0; // forget-gate bias
        }
        let b = store.add(bias);
        LstmParams { w_ih, w_hh, b }
    }

    /// Fills `wt` with the column-major `[E+H, 4H]` copy of
    /// `[w_ih | w_hh]` that [`forward_step`](Self::forward_step) reads:
    /// row `k` holds input `k`'s weight in every gate row.
    pub(crate) fn gate_weights_t(&self, store: &ParamStore, shape: LstmShape, wt: &mut Vec<f32>) {
        let (h, e) = (shape.hidden, shape.input);
        let g4 = 4 * h;
        let w_ih = store.value(self.w_ih).data();
        let w_hh = store.value(self.w_hh).data();
        wt.clear();
        wt.resize(shape.z_width() * g4, 0.0);
        for r in 0..g4 {
            for (k, &w) in w_ih[r * e..(r + 1) * e].iter().enumerate() {
                wt[k * g4 + r] = w;
            }
            for (k, &w) in w_hh[r * h..(r + 1) * h].iter().enumerate() {
                wt[(e + k) * g4 + r] = w;
            }
        }
    }

    /// One step for `rows` rows. Row `i` of `z` is its input
    /// `[x | h_prev]` and row `i` of `c_prev` its cell state; the step
    /// writes the post-activation gates (i, f, g, o) to `gates`, the new
    /// cell state to `c`, and the new hidden state to the `h_prev` slot
    /// of `z_next`'s row `i`, the next step's input.
    ///
    /// Each gate row's pre-activation is its bias plus a dot product
    /// over `[x | h_prev]` summed in input order from `+0.0`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_step(
        &self,
        store: &ParamStore,
        shape: LstmShape,
        wt: &[f32],
        rows: usize,
        z: &[f32],
        c_prev: &[f32],
        gates: &mut [f32],
        c: &mut [f32],
        z_next: &mut [f32],
    ) {
        let (h, e, zd) = (shape.hidden, shape.input, shape.z_width());
        let g4 = 4 * h;
        let gates = &mut gates[..rows * g4];
        gates.fill(0.0);
        gemm_acc::<false>(
            rows,
            g4,
            zd,
            |i, p| z[i * zd + p],
            |p| &wt[p * g4..(p + 1) * g4],
            gates,
            g4,
        );
        let bias = store.value(self.b).data();
        for i in 0..rows {
            let g = &mut gates[i * g4..(i + 1) * g4];
            for (v, &b) in g.iter_mut().zip(bias) {
                *v += b;
            }
            for j in 0..h {
                g[j] = sigmoid(g[j]); // i
                g[h + j] = sigmoid(g[h + j]); // f
                g[2 * h + j] = g[2 * h + j].tanh(); // g
                g[3 * h + j] = sigmoid(g[3 * h + j]); // o
            }
            let cp = &c_prev[i * h..(i + 1) * h];
            let cn = &mut c[i * h..(i + 1) * h];
            let hn = &mut z_next[i * zd + e..(i + 1) * zd];
            for j in 0..h {
                cn[j] = g[h + j] * cp[j] + g[j] * g[2 * h + j];
                hn[j] = g[3 * h + j] * cn[j].tanh();
            }
        }
    }

    /// Input gradients of one step for `rows` rows: row `i` of `dz`
    /// becomes `[dx | dh_prev] = Σ_r dpre(i, r) · [w_ih | w_hh][r]`, in
    /// one pass over the weight rows, skipping rows whose `dpre` is zero.
    pub(crate) fn input_grads(
        &self,
        store: &ParamStore,
        shape: LstmShape,
        rows: usize,
        dpre: impl Fn(usize, usize) -> f32,
        dz: &mut [f32],
    ) {
        let (h, e, zd) = (shape.hidden, shape.input, shape.z_width());
        let g4 = 4 * h;
        let dz = &mut dz[..rows * zd];
        dz.fill(0.0);
        let w_ih = store.value(self.w_ih).data();
        let w_hh = store.value(self.w_hh).data();
        gemm_acc::<true>(rows, e, g4, &dpre, |r| &w_ih[r * e..(r + 1) * e], dz, zd);
        gemm_acc::<true>(
            rows,
            h,
            g4,
            &dpre,
            |r| &w_hh[r * h..(r + 1) * h],
            &mut dz[e..],
            zd,
        );
    }

    /// Adds each step's weight and bias gradients: for `p` ascending,
    /// `dpre[p] ⊗ z(p)` to `[w_ih | w_hh]` (skipping zero `dpre`
    /// entries) and `dpre[p]` to `b`, where `dpre` is `[k, 4H]` and `z(p)`
    /// the input row `[x | h_prev]` step `p` saw.
    pub(crate) fn accumulate_grads<'z>(
        &self,
        store: &mut ParamStore,
        shape: LstmShape,
        dpre: &[f32],
        z: impl Fn(usize) -> &'z [f32],
    ) {
        let (h, e) = (shape.hidden, shape.input);
        let g4 = 4 * h;
        let k = dpre.len() / g4;
        let d = |r: usize, p: usize| dpre[p * g4 + r];
        let g_ih = store.grad_mut(self.w_ih).data_mut();
        gemm_acc::<true>(g4, e, k, d, &z, g_ih, e);
        let g_hh = store.grad_mut(self.w_hh).data_mut();
        gemm_acc::<true>(g4, h, k, d, |p| &z(p)[e..], g_hh, h);
        let g_b = store.grad_mut(self.b).data_mut();
        for row in dpre.chunks_exact(g4) {
            for (g, &v) in g_b.iter_mut().zip(row) {
                *g += v;
            }
        }
    }
}

/// Backward through one row's cell step. `dh` is the gradient reaching
/// the step's hidden state and `dc` the one reaching its cell state,
/// which becomes the gradient for `c_prev`; `dpre` receives the gradient
/// of the gate pre-activations.
pub(crate) fn cell_backward(
    gates: &[f32],
    c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dpre: &mut [f32],
) {
    let h_n = c.len();
    for j in 0..h_n {
        let (i, f, g, o) = (
            gates[j],
            gates[h_n + j],
            gates[2 * h_n + j],
            gates[3 * h_n + j],
        );
        let tc = c[j].tanh();
        let dcj = dc[j] + dh[j] * o * (1.0 - tc * tc);
        let do_ = dh[j] * tc;
        let di = dcj * g;
        let df = dcj * c_prev[j];
        let dg = dcj * i;
        dc[j] = dcj * f;
        dpre[j] = di * i * (1.0 - i);
        dpre[h_n + j] = df * f * (1.0 - f);
        dpre[2 * h_n + j] = dg * (1.0 - g * g);
        dpre[3 * h_n + j] = do_ * o * (1.0 - o);
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ROWS: usize = 2;

    fn setup() -> (ParamStore, LstmParams, LstmShape) {
        let mut rng = StdRng::seed_from_u64(0);
        let shape = LstmShape {
            hidden: 6,
            input: 4,
        };
        let mut store = ParamStore::new();
        let p = LstmParams::init(shape, &mut store, &mut rng);
        (store, p, shape)
    }

    /// Per-step records of a lockstep run over `ROWS` rows.
    struct Run {
        z: Vec<f32>,
        gates: Vec<f32>,
        c: Vec<f32>,
    }

    /// Runs `xs.len()` steps; step `s` feeds `xs[s]` to every row, row
    /// `i` scaled by `i + 1`. Returns the records and the final `h`.
    fn run(
        store: &ParamStore,
        p: &LstmParams,
        shape: LstmShape,
        xs: &[Vec<f32>],
    ) -> (Run, Vec<f32>) {
        let (h, e, zd) = (shape.hidden, shape.input, shape.z_width());
        let t = xs.len();
        let mut r = Run {
            z: vec![0.0; (t + 1) * ROWS * zd],
            gates: vec![0.0; t * ROWS * 4 * h],
            c: vec![0.0; (t + 1) * ROWS * h],
        };
        let mut wt = Vec::new();
        p.gate_weights_t(store, shape, &mut wt);
        for (s, x) in xs.iter().enumerate() {
            for i in 0..ROWS {
                for (k, &v) in x.iter().enumerate() {
                    r.z[(s * ROWS + i) * zd + k] = v * (i + 1) as f32;
                }
            }
            let (z, z_next) = r.z[s * ROWS * zd..].split_at_mut(ROWS * zd);
            let (c_prev, c) = r.c[s * ROWS * h..].split_at_mut(ROWS * h);
            let gates = &mut r.gates[s * ROWS * 4 * h..];
            p.forward_step(store, shape, &wt, ROWS, z, c_prev, gates, c, z_next);
        }
        let h_last = (0..ROWS)
            .flat_map(|i| r.z[(t * ROWS + i) * zd + e..(t * ROWS + i + 1) * zd].to_vec())
            .collect();
        (r, h_last)
    }

    /// Scalar loss = sum of the final `h` over both rows after two
    /// steps, checked against finite differences on every parameter
    /// tensor.
    #[test]
    fn bptt_matches_finite_differences() {
        let (mut store, p, shape) = setup();
        let (h, zd) = (shape.hidden, shape.z_width());
        let xs = vec![vec![0.5, -0.3, 0.8, 0.1], vec![-0.2, 0.7, 0.0, -0.5]];
        let t = xs.len();
        let forward_loss =
            |store: &ParamStore| -> f32 { run(store, &p, shape, &xs).1.iter().sum() };
        // Analytic gradient: the lockstep recurrence, last step first,
        // then the weight gradients in row order, last step first.
        store.zero_grads();
        let (r, _) = run(&store, &p, shape, &xs);
        let mut dh = vec![1.0f32; ROWS * h];
        let mut dc = vec![0.0f32; ROWS * h];
        let mut dpre = vec![0.0f32; ROWS * t * 4 * h];
        let mut dz = vec![0.0f32; ROWS * zd];
        for s in (0..t).rev() {
            for i in 0..ROWS {
                let row = s * ROWS + i;
                cell_backward(
                    &r.gates[row * 4 * h..(row + 1) * 4 * h],
                    &r.c[(row + ROWS) * h..(row + ROWS + 1) * h],
                    &r.c[row * h..(row + 1) * h],
                    &dh[i * h..(i + 1) * h],
                    &mut dc[i * h..(i + 1) * h],
                    &mut dpre[(i * t + t - 1 - s) * 4 * h..(i * t + t - s) * 4 * h],
                );
            }
            let d = |i: usize, q: usize| dpre[(i * t + t - 1 - s) * 4 * h + q];
            p.input_grads(&store, shape, ROWS, d, &mut dz);
            for i in 0..ROWS {
                dh[i * h..(i + 1) * h].copy_from_slice(&dz[i * zd + shape.input..(i + 1) * zd]);
            }
        }
        let z_rows: Vec<&[f32]> = (0..ROWS)
            .flat_map(|i| (0..t).rev().map(move |s| (s * ROWS + i) * zd))
            .map(|o| &r.z[o..o + zd])
            .collect();
        p.accumulate_grads(&mut store, shape, &dpre, |q| z_rows[q]);

        let eps = 1e-3f32;
        for (pid, indices) in [
            (p.w_ih, vec![0usize, 17, 95]),
            (p.w_hh, vec![0usize, 50, 143]),
            (p.b, vec![0usize, 7, 23]),
        ] {
            for idx in indices {
                let orig = store.value(pid).data()[idx];
                store.value_mut(pid).data_mut()[idx] = orig + eps;
                let f1 = forward_loss(&store);
                store.value_mut(pid).data_mut()[idx] = orig - eps;
                let f2 = forward_loss(&store);
                store.value_mut(pid).data_mut()[idx] = orig;
                let num = (f1 - f2) / (2.0 * eps);
                let ana = store.grad(pid).data()[idx];
                assert!(
                    (num - ana).abs() < 0.02 * (1.0 + num.abs().max(ana.abs())),
                    "grad[{idx}]: fd {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn forward_is_deterministic_and_bounded() {
        let (store, p, shape) = setup();
        let xs = vec![vec![1.0, -1.0, 0.5, 2.0]];
        let (a, ha) = run(&store, &p, shape, &xs);
        let (b, hb) = run(&store, &p, shape, &xs);
        assert_eq!(ha, hb);
        assert_eq!(a.gates, b.gates);
        for v in &ha {
            assert!(v.abs() <= 1.0, "|h| must be < 1 (o * tanh(c))");
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let (store, p, shape) = setup();
        let b = store.value(p.b).data();
        for j in shape.hidden..2 * shape.hidden {
            assert_eq!(b[j], 1.0);
        }
        assert_eq!(b[0], 0.0);
    }

    #[test]
    fn state_propagates_between_steps() {
        let (store, p, shape) = setup();
        let x = vec![0.3; 4];
        let (_, h1) = run(&store, &p, shape, std::slice::from_ref(&x));
        let (_, h2) = run(&store, &p, shape, &[x.clone(), x]);
        assert_ne!(h1, h2, "same input, different state => different h");
    }
}
