//! The autoregressive RL controller (paper §III-C).
//!
//! An LSTM with 120 hidden units emits the 44-symbol action sequence via a
//! per-step softmax classifier; previously generated actions are fed back
//! as embeddings (zero vector at the initial step). Logits are shaped with
//! a temperature of 1.1 and a `2.5 * tanh` constant (following ENAS \[7\]),
//! a sample-entropy bonus is added to the reward, and the parameters are
//! updated with REINFORCE plus a moving-average baseline (Eq. 4).
//!
//! Rollouts run in lockstep: [`Controller::sample_batch`] advances a whole
//! batch one step at a time, so each step's gate product is one matrix
//! product over the batch. Every rollout keeps the pass's per-step
//! records, stamped with the weight version they were computed under, and
//! [`Controller::update`] backpropagates through them; it replays the
//! forward pass only when a record is stale.

#![allow(clippy::needless_range_loop)]

use crate::gemm::gemm_acc;
use crate::lstm::{cell_backward, LstmParams, LstmShape};
use rand::{Rng, RngExt};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};
use yoso_tensor::{Adam, ParamId, ParamStore, Tensor};

/// Controller hyper-parameters (defaults follow the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Per-step vocabulary sizes (44 steps for YOSO).
    pub vocab_sizes: Vec<usize>,
    /// LSTM hidden units (paper: 120).
    pub hidden: usize,
    /// Action-embedding size.
    pub embed: usize,
    /// Adam learning rate (paper: 0.0035).
    pub lr: f32,
    /// Softmax temperature (paper: 1.1).
    pub temperature: f32,
    /// Logit tanh constant (paper: 2.5).
    pub tanh_constant: f32,
    /// Entropy bonus weight (paper: 1e-4).
    pub entropy_weight: f32,
    /// Moving-average baseline decay.
    pub baseline_decay: f64,
    /// Gradient-norm clip.
    pub grad_clip: f32,
    /// Parameter-init seed.
    pub seed: u64,
}

impl ControllerConfig {
    /// Paper-default hyper-parameters for a given action space.
    pub fn paper_default(vocab_sizes: Vec<usize>) -> Self {
        ControllerConfig {
            vocab_sizes,
            hidden: 120,
            embed: 32,
            lr: 0.0035,
            temperature: 1.1,
            tanh_constant: 2.5,
            entropy_weight: 1e-4,
            baseline_decay: 0.95,
            grad_clip: 5.0,
            seed: 0,
        }
    }
}

/// One sampled action sequence with its policy statistics.
///
/// A rollout also holds the per-step records of the pass that sampled
/// it, which [`Controller::update`] reads instead of running the forward
/// pass again. Equality and `Debug` ignore them.
#[derive(Clone)]
pub struct Rollout {
    /// Sampled action per step.
    pub actions: Vec<usize>,
    /// Sum of log-probabilities of the sampled actions.
    pub log_prob: f64,
    /// Sum of per-step softmax entropies.
    pub entropy: f64,
    /// The pass that sampled this rollout, shared with the rest of its
    /// batch, and this rollout's row in it.
    pass: Arc<Pass>,
    row: usize,
}

impl PartialEq for Rollout {
    fn eq(&self, other: &Self) -> bool {
        self.actions == other.actions
            && self.log_prob == other.log_prob
            && self.entropy == other.entropy
    }
}

impl std::fmt::Debug for Rollout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rollout")
            .field("actions", &self.actions)
            .field("log_prob", &self.log_prob)
            .field("entropy", &self.entropy)
            .finish()
    }
}

/// Statistics returned by [`Controller::update`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStats {
    /// Mean reward of the batch.
    pub mean_reward: f64,
    /// Baseline value after the update.
    pub baseline: f64,
    /// Pre-clip gradient norm.
    pub grad_norm: f32,
    /// Mean policy entropy per step.
    pub mean_entropy: f64,
}

/// Source of weight versions: every controller state gets a number no
/// other state in the process has, so records match only the weights
/// that produced them.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    // Uniqueness needs only the atomicity of `fetch_add`; the counter
    // publishes no other data.
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// What one lockstep forward pass computed for each of its rows, step
/// by step: everything the backward pass reads.
#[derive(Default)]
struct Pass {
    /// Weight version the pass ran under (0: none).
    version: u64,
    rows: usize,
    steps: usize,
    hidden: usize,
    /// Width of an LSTM input row, `E + H`.
    zd: usize,
    /// Prefix sums of the vocabulary sizes, `T + 1` entries.
    voff: Vec<usize>,
    /// `[T + 1][rows][E + H]`: step `s`'s LSTM input `[x_s | h_{s-1}]`;
    /// slot `T` holds only the last hidden state.
    z: Vec<f32>,
    /// `[T][rows][4H]`: post-activation gates.
    gates: Vec<f32>,
    /// `[T + 1][rows][H]`: cell states; slot 0 is the zero initial state.
    c: Vec<f32>,
    /// Raw head logits: step `s`'s `[rows][v_s]` block at `rows · voff[s]`.
    logits: Vec<f32>,
    /// Softmax probabilities, laid out like `logits`.
    probs: Vec<f32>,
    /// `[rows][T]` actions.
    actions: Vec<usize>,
    /// Per-row sums of step log-probabilities.
    log_prob: Vec<f64>,
    /// Per-row sums of step entropies.
    entropy: Vec<f64>,
}

impl Pass {
    fn z_row(&self, s: usize, row: usize) -> &[f32] {
        let o = (s * self.rows + row) * self.zd;
        &self.z[o..o + self.zd]
    }

    /// Hidden state after step `s`.
    fn h_row(&self, s: usize, row: usize) -> &[f32] {
        &self.z_row(s + 1, row)[self.zd - self.hidden..]
    }

    fn gate_row(&self, s: usize, row: usize) -> &[f32] {
        let g4 = 4 * self.hidden;
        let o = (s * self.rows + row) * g4;
        &self.gates[o..o + g4]
    }

    /// Cell state before step `s` (after step `s - 1`).
    fn c_row(&self, s: usize, row: usize) -> &[f32] {
        let o = (s * self.rows + row) * self.hidden;
        &self.c[o..o + self.hidden]
    }

    /// Offset of `row`'s `v_s` head entries at step `s`.
    fn head(&self, s: usize, row: usize) -> usize {
        let v = self.voff[s + 1] - self.voff[s];
        self.rows * self.voff[s] + row * v
    }

    fn actions(&self, row: usize) -> &[usize] {
        &self.actions[row * self.steps..(row + 1) * self.steps]
    }
}

/// Where a forward pass gets each step's action from.
enum Source<'a> {
    /// Samples with these uniform draws, one per step, rollout-major.
    Draws(&'a [f32]),
    /// Replays these rollouts' actions.
    Replay(&'a [(Rollout, f64)]),
}

/// Buffers reused across passes and updates, so that neither allocates
/// (and faults in) fresh pages once warm.
#[derive(Default)]
struct Workspace {
    /// The latest pass, reused once no rollout holds it.
    pass: Option<Arc<Pass>>,
    /// Gate weights, column-major ([`LstmParams::gate_weights_t`]).
    wt: Vec<f32>,
    /// Head weights transposed: step `s`'s `[H, v_s]` at `H · voff[s]`.
    wht: Vec<f32>,
    /// Backward scratch: gate pre-activation gradients `[rows][T][4H]`
    /// (each rollout's steps last first), `[dx | dh_prev]` per row, the
    /// gradients reaching `h` and `c`, and the head-logit gradients.
    dpre: Vec<f32>,
    dz: Vec<f32>,
    dh: Vec<f32>,
    dc: Vec<f32>,
    dl: Vec<f32>,
}

/// A controller's [`Workspace`]: scratch memory, so a clone starts with
/// its own empty one, and snapshots leave it out.
#[derive(Default)]
struct Scratch(Mutex<Workspace>);

impl Scratch {
    /// A panic mid-pass poisons the lock but cannot leave the workspace
    /// inconsistent: every buffer is rewritten before it is read, and a
    /// pass returns to the workspace only once it is complete.
    fn lock(&self) -> MutexGuard<'_, Workspace> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Scratch")
    }
}

/// The LSTM policy with per-step embeddings and softmax heads.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControllerConfig,
    store: ParamStore,
    lstm: LstmParams,
    /// `emb[0]` is the learned start vector `[1, E]`; `emb[s]` (s ≥ 1)
    /// embeds step `s-1`'s action, `[vocab_{s-1}, E]`.
    emb: Vec<ParamId>,
    /// Per-step softmax heads: `(W [vocab_s, H], b [vocab_s])`.
    heads: Vec<(ParamId, ParamId)>,
    opt: Adam,
    baseline: Option<f64>,
    /// Version of the current weights (see [`fresh_version`]).
    version: u64,
    work: Scratch,
}

impl Controller {
    /// Builds a controller with randomly initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_sizes` is empty or contains a zero.
    pub fn new(cfg: ControllerConfig) -> Self {
        assert!(!cfg.vocab_sizes.is_empty(), "empty action space");
        assert!(cfg.vocab_sizes.iter().all(|&v| v > 0), "zero vocab");
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let shape = LstmShape {
            hidden: cfg.hidden,
            input: cfg.embed,
        };
        let lstm = LstmParams::init(shape, &mut store, &mut rng);
        let mut emb = Vec::with_capacity(cfg.vocab_sizes.len());
        emb.push(store.add(Tensor::randn(&[1, cfg.embed], 0.1, &mut rng)));
        for s in 1..cfg.vocab_sizes.len() {
            emb.push(store.add(Tensor::randn(
                &[cfg.vocab_sizes[s - 1], cfg.embed],
                0.1,
                &mut rng,
            )));
        }
        let heads = cfg
            .vocab_sizes
            .iter()
            .map(|&v| {
                (
                    store.add(Tensor::randn(&[v, cfg.hidden], 0.1, &mut rng)),
                    store.add(Tensor::zeros(&[v])),
                )
            })
            .collect();
        let opt = Adam::new(cfg.lr);
        Controller {
            cfg,
            store,
            lstm,
            emb,
            heads,
            opt,
            baseline: None,
            version: fresh_version(),
            work: Scratch::default(),
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Current moving-average baseline (`None` before the first update).
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.store.total_elems()
    }

    fn shape(&self) -> LstmShape {
        LstmShape {
            hidden: self.cfg.hidden,
            input: self.cfg.embed,
        }
    }

    /// Runs `rows` rollouts through the policy in lockstep and returns
    /// the pass, reusing the workspace's last pass when nothing else
    /// holds it.
    fn forward(&self, work: &mut Workspace, rows: usize, source: Source<'_>) -> Arc<Pass> {
        let mut shared = match work.pass.take() {
            Some(pass) if Arc::strong_count(&pass) == 1 => pass,
            _ => Arc::new(Pass::default()),
        };
        let pass = Arc::get_mut(&mut shared).expect("pass is unshared");
        let shape = self.shape();
        let vocab = &self.cfg.vocab_sizes;
        let (t_len, h, e, zd) = (vocab.len(), shape.hidden, shape.input, shape.z_width());
        let g4 = 4 * h;
        pass.version = self.version;
        pass.rows = rows;
        pass.steps = t_len;
        pass.hidden = h;
        pass.zd = zd;
        pass.voff.clear();
        pass.voff.push(0);
        for &v in vocab {
            pass.voff.push(pass.voff[pass.voff.len() - 1] + v);
        }
        let heads_len = rows * pass.voff[t_len];
        // Every entry is written below before it is read, except the
        // zero initial hidden and cell states and the running sums.
        pass.z.resize((t_len + 1) * rows * zd, 0.0);
        pass.z[..rows * zd].fill(0.0);
        pass.gates.resize(t_len * rows * g4, 0.0);
        pass.c.resize((t_len + 1) * rows * h, 0.0);
        pass.c[..rows * h].fill(0.0);
        pass.logits.resize(heads_len, 0.0);
        pass.probs.resize(heads_len, 0.0);
        pass.actions.resize(rows * t_len, 0);
        pass.log_prob.clear();
        pass.log_prob.resize(rows, 0.0);
        pass.entropy.clear();
        pass.entropy.resize(rows, 0.0);

        self.lstm.gate_weights_t(&self.store, shape, &mut work.wt);
        work.wht.clear();
        work.wht.resize(h * pass.voff[t_len], 0.0);
        for (s, &(w, _)) in self.heads.iter().enumerate() {
            let (wd, v) = (self.store.value(w).data(), vocab[s]);
            let wht = &mut work.wht[h * pass.voff[s]..h * pass.voff[s + 1]];
            for j in 0..v {
                for k in 0..h {
                    wht[k * v + j] = wd[j * h + k];
                }
            }
        }

        for s in 0..t_len {
            let emb = self.store.value(self.emb[s]).data();
            for row in 0..rows {
                let a = if s == 0 {
                    0
                } else {
                    pass.actions[row * t_len + s - 1]
                };
                let o = (s * rows + row) * zd;
                pass.z[o..o + e].copy_from_slice(&emb[a * e..(a + 1) * e]);
            }
            let (z, z_next) = pass.z[s * rows * zd..].split_at_mut(rows * zd);
            let (c_prev, c) = pass.c[s * rows * h..].split_at_mut(rows * h);
            let gates = &mut pass.gates[s * rows * g4..];
            self.lstm.forward_step(
                &self.store,
                shape,
                &work.wt,
                rows,
                z,
                c_prev,
                gates,
                c,
                z_next,
            );

            // Head logits: a dot product over h summed from -0.0, as
            // `Iterator::sum` does, plus the bias.
            let v = vocab[s];
            let lo = rows * pass.voff[s];
            let logits = &mut pass.logits[lo..lo + rows * v];
            logits.fill(-0.0);
            let wht = &work.wht[h * pass.voff[s]..h * pass.voff[s + 1]];
            let hs = &z_next[e..];
            gemm_acc::<false>(
                rows,
                v,
                h,
                |i, p| hs[i * zd + p],
                |p| &wht[p * v..(p + 1) * v],
                logits,
                v,
            );
            let bias = self.store.value(self.heads[s].1).data();
            for row_logits in logits.chunks_exact_mut(v) {
                for (x, &b) in row_logits.iter_mut().zip(bias) {
                    *x += b;
                }
            }

            for row in 0..rows {
                let o = pass.head(s, row);
                let raw = &pass.logits[o..o + v];
                let probs = &mut pass.probs[o..o + v];
                // ENAS-style logit shaping, then the softmax.
                for (p, &z) in probs.iter_mut().zip(raw) {
                    *p = self.cfg.tanh_constant * (z / self.cfg.temperature).tanh();
                }
                let mx = probs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                for p in probs.iter_mut() {
                    *p = (*p - mx).exp();
                }
                let denom: f32 = probs.iter().sum();
                for p in probs.iter_mut() {
                    *p /= denom;
                }
                let action = match source {
                    Source::Draws(draws) => {
                        let u = draws[row * t_len + s];
                        let mut acc = 0.0;
                        let mut a = v - 1;
                        for (j, &p) in probs.iter().enumerate() {
                            acc += p;
                            if u < acc {
                                a = j;
                                break;
                            }
                        }
                        a
                    }
                    Source::Replay(batch) => batch[row].0.actions[s],
                };
                pass.log_prob[row] += (probs[action].max(1e-12) as f64).ln();
                pass.entropy[row] += -probs
                    .iter()
                    .map(|&p| {
                        if p > 0.0 {
                            (p as f64) * (p as f64).ln()
                        } else {
                            0.0
                        }
                    })
                    .sum::<f64>();
                pass.actions[row * t_len + s] = action;
            }
        }
        work.pass = Some(Arc::clone(&shared));
        shared
    }

    /// Samples one action sequence from the current policy; the same as
    /// `sample_batch(rng, 1)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Rollout {
        self.sample_batch(rng, 1).pop().expect("one rollout")
    }

    /// Samples `n` action sequences in one lockstep pass. The rollouts
    /// and the RNG's final position are exactly those of `n` calls of
    /// [`sample`](Self::sample): every step draws one value whatever its
    /// probabilities, so the pass draws all `n · T` up front, rollout by
    /// rollout.
    pub fn sample_batch<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Rollout> {
        let _span = yoso_trace::span("controller.sample");
        yoso_trace::counter_add("controller.rollouts", n as u64);
        let draws: Vec<f32> = (0..n * self.cfg.vocab_sizes.len())
            .map(|_| rng.random())
            .collect();
        let mut work = self.work.lock();
        let pass = self.forward(&mut work, n, Source::Draws(&draws));
        (0..n)
            .map(|row| Rollout {
                actions: pass.actions(row).to_vec(),
                log_prob: pass.log_prob[row],
                entropy: pass.entropy[row],
                pass: Arc::clone(&pass),
                row,
            })
            .collect()
    }

    /// REINFORCE update on a batch of `(rollout, reward)` pairs (Eq. 4:
    /// moving-average baseline, entropy bonus).
    ///
    /// Backpropagates through the rollouts' own records when every one
    /// was sampled under the current weights (and its actions are
    /// unchanged); otherwise it first replays the batch's actions through
    /// the same lockstep forward pass. Either way the result is the same
    /// to the bit.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or an action sequence has the wrong
    /// length.
    pub fn update(&mut self, batch: &[(Rollout, f64)]) -> UpdateStats {
        assert!(!batch.is_empty(), "empty update batch");
        let _span = yoso_trace::span("controller.update");
        let t_len = self.cfg.vocab_sizes.len();
        let mean_reward = batch.iter().map(|(_, r)| r).sum::<f64>() / batch.len() as f64;
        let baseline = match self.baseline {
            None => mean_reward,
            Some(b) => self.cfg.baseline_decay * b + (1.0 - self.cfg.baseline_decay) * mean_reward,
        };
        self.baseline = Some(baseline);
        self.store.zero_grads();
        for (rollout, _) in batch {
            assert_eq!(rollout.actions.len(), t_len, "wrong action length");
        }
        let mut work = std::mem::take(&mut *self.work.lock());
        let current = batch.iter().all(|(r, _)| {
            r.pass.version == self.version && r.pass.actions(r.row) == r.actions.as_slice()
        });
        let replay;
        let rows: Vec<(&Pass, usize)> = if current {
            batch.iter().map(|(r, _)| (&*r.pass, r.row)).collect()
        } else {
            replay = self.forward(&mut work, batch.len(), Source::Replay(batch));
            (0..batch.len()).map(|row| (&*replay, row)).collect()
        };
        let entropy_sum = self.backward(&mut work, &rows, batch, baseline);
        *self.work.lock() = work;
        let grad_norm = self.store.clip_grad_norm(self.cfg.grad_clip);
        self.opt.step(&mut self.store);
        self.version = fresh_version();
        UpdateStats {
            mean_reward,
            baseline,
            grad_norm,
            mean_entropy: entropy_sum / batch.len() as f64,
        }
    }

    /// Backpropagates the REINFORCE loss of `batch` through its records
    /// (`rows[i]` holds rollout `i`'s pass and row) into the gradient
    /// buffers, and returns the sum of the rollouts' mean step entropies.
    ///
    /// The recurrence runs all rollouts in lockstep, last step first.
    /// Each parameter still receives its terms in the order of a
    /// rollout-at-a-time backward pass, rollout by rollout and last step
    /// first: a head or embedding table is touched by one step only, so
    /// the lockstep order is already that one, and the LSTM weights,
    /// which every step touches, are accumulated after the recurrence.
    fn backward(
        &mut self,
        work: &mut Workspace,
        rows: &[(&Pass, usize)],
        batch: &[(Rollout, f64)],
        baseline: f64,
    ) -> f64 {
        let shape = self.shape();
        let (t_len, h, e, zd) = (
            self.cfg.vocab_sizes.len(),
            shape.hidden,
            shape.input,
            shape.z_width(),
        );
        let g4 = 4 * h;
        let n = rows.len();
        // Advantage: loss = -(R - b) log p - w_e H.
        let adv: Vec<f32> = batch
            .iter()
            .map(|(_, reward)| (*reward - baseline) as f32 / n as f32)
            .collect();
        let w_e = self.cfg.entropy_weight / n as f32;
        let v_max = self.cfg.vocab_sizes.iter().copied().max().unwrap_or(0);
        let Workspace {
            dpre,
            dz,
            dh,
            dc,
            dl,
            ..
        } = work;
        // `dpre` and `dz` are written before they are read; the
        // gradients reaching the last step's h and c start at zero.
        dpre.resize(n * t_len * g4, 0.0);
        dz.resize(n * zd, 0.0);
        dh.clear();
        dh.resize(n * h, 0.0);
        dc.clear();
        dc.resize(n * h, 0.0);
        dl.resize(n * v_max, 0.0);
        let dpre_at = |i: usize, s: usize| (i * t_len + t_len - 1 - s) * g4;
        for s in (0..t_len).rev() {
            let v = self.cfg.vocab_sizes[s];
            let dl = &mut dl[..n * v];
            for (i, &(pass, row)) in rows.iter().enumerate() {
                let o = pass.head(s, row);
                let probs = &pass.probs[o..o + v];
                let raw = &pass.logits[o..o + v];
                let action = pass.actions(row)[s];
                let step_entropy: f32 = -probs
                    .iter()
                    .map(|&p| if p > 0.0 { p * p.ln() } else { 0.0 })
                    .sum::<f32>();
                for (j, d) in dl[i * v..(i + 1) * v].iter_mut().enumerate() {
                    // d(loss)/d(logits), then back through the
                    // tanh/temperature shaping.
                    let p = probs[j];
                    let onehot = if j == action { 1.0 } else { 0.0 };
                    let d_logp = -adv[i] * (onehot - p); // -(R-b) dlogp
                    let d_ent = w_e * p * (p.max(1e-12).ln() + step_entropy); // -w_e dH
                    let dlogit = d_logp + d_ent;
                    let t = (raw[j] / self.cfg.temperature).tanh();
                    *d = dlogit * self.cfg.tanh_constant * (1.0 - t * t) / self.cfg.temperature;
                }
            }
            // Head gradients, rollout by rollout.
            let (w, b) = self.heads[s];
            gemm_acc::<true>(
                v,
                h,
                n,
                |j, i| dl[i * v + j],
                |i| rows[i].0.h_row(s, rows[i].1),
                self.store.grad_mut(w).data_mut(),
                h,
            );
            let gb = self.store.grad_mut(b).data_mut();
            for d in dl.chunks_exact(v) {
                for (g, &x) in gb.iter_mut().zip(d) {
                    *g += x;
                }
            }
            // dh: the gradient from step s+1 plus the head's.
            let wd = self.store.value(w).data();
            gemm_acc::<true>(
                n,
                h,
                v,
                |i, j| dl[i * v + j],
                |j| &wd[j * h..(j + 1) * h],
                dh,
                h,
            );
            for (i, &(pass, row)) in rows.iter().enumerate() {
                let o = dpre_at(i, s);
                cell_backward(
                    pass.gate_row(s, row),
                    pass.c_row(s + 1, row),
                    pass.c_row(s, row),
                    &dh[i * h..(i + 1) * h],
                    &mut dc[i * h..(i + 1) * h],
                    &mut dpre[o..o + g4],
                );
            }
            let dp = &*dpre;
            self.lstm
                .input_grads(&self.store, shape, n, |i, r| dp[dpre_at(i, s) + r], dz);
            // Embedding gradient for the action fed into this step; dh
            // moves on to step s-1.
            let ge = self.store.grad_mut(self.emb[s]).data_mut();
            for (i, &(pass, row)) in rows.iter().enumerate() {
                let a = if s == 0 { 0 } else { pass.actions(row)[s - 1] };
                for (g, &d) in ge[a * e..(a + 1) * e]
                    .iter_mut()
                    .zip(&dz[i * zd..i * zd + e])
                {
                    *g += d;
                }
                dh[i * h..(i + 1) * h].copy_from_slice(&dz[i * zd + e..(i + 1) * zd]);
            }
        }
        // LSTM weight gradients: rollout by rollout, last step first,
        // the order `dpre` is laid out in.
        let z_rows: Vec<&[f32]> = rows
            .iter()
            .flat_map(|&(pass, row)| (0..t_len).rev().map(move |s| pass.z_row(s, row)))
            .collect();
        self.lstm
            .accumulate_grads(&mut self.store, shape, &dpre[..n * t_len * g4], |p| {
                z_rows[p]
            });
        let mut entropy_sum = 0.0;
        for &(pass, row) in rows {
            entropy_sum += pass.entropy[row] / t_len as f64;
        }
        entropy_sum
    }
}

impl Snapshot for ControllerConfig {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usizes(&self.vocab_sizes);
        w.put_usize(self.hidden);
        w.put_usize(self.embed);
        w.put_f32(self.lr);
        w.put_f32(self.temperature);
        w.put_f32(self.tanh_constant);
        w.put_f32(self.entropy_weight);
        w.put_f64(self.baseline_decay);
        w.put_f32(self.grad_clip);
        w.put_u64(self.seed);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let cfg = ControllerConfig {
            vocab_sizes: r.take_usizes()?,
            hidden: r.take_usize()?,
            embed: r.take_usize()?,
            lr: r.take_f32()?,
            temperature: r.take_f32()?,
            tanh_constant: r.take_f32()?,
            entropy_weight: r.take_f32()?,
            baseline_decay: r.take_f64()?,
            grad_clip: r.take_f32()?,
            seed: r.take_u64()?,
        };
        if cfg.vocab_sizes.is_empty() || cfg.vocab_sizes.contains(&0) {
            return Err(PersistError::Malformed("controller vocab sizes".into()));
        }
        Ok(cfg)
    }
}

// Restore-by-reconstruct: `Controller::new` builds the same ParamId
// layout for a given config (the construction loops are deterministic;
// the RNG only affects initial values), so restore rebuilds the
// skeleton from the stored config and overwrites the trained weights,
// Adam state and baseline. Shape disagreement between the snapshot and
// the reconstructed layout is a `Malformed` error, not a panic.
impl Snapshot for Controller {
    fn snapshot(&self, w: &mut ByteWriter) {
        self.cfg.snapshot(w);
        match self.baseline {
            Some(b) => {
                w.put_bool(true);
                w.put_f64(b);
            }
            None => w.put_bool(false),
        }
        self.store.snapshot(w);
        self.opt.snapshot(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let cfg = ControllerConfig::restore(r)?;
        let baseline = if r.take_bool()? {
            Some(r.take_f64()?)
        } else {
            None
        };
        let store = ParamStore::restore(r)?;
        let opt = Adam::restore(r)?;
        let mut ctrl = Controller::new(cfg);
        if store.param_count() != ctrl.store.param_count() {
            return Err(PersistError::Malformed(format!(
                "controller: snapshot has {} params, config implies {}",
                store.param_count(),
                ctrl.store.param_count()
            )));
        }
        for (id, value) in store.iter() {
            if value.shape() != ctrl.store.value(id).shape() {
                return Err(PersistError::Malformed(format!(
                    "controller param {}: snapshot shape {:?} vs layout {:?}",
                    id.index(),
                    value.shape(),
                    ctrl.store.value(id).shape()
                )));
            }
        }
        ctrl.store = store;
        ctrl.opt = opt;
        ctrl.baseline = baseline;
        ctrl.version = fresh_version();
        Ok(ctrl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> ControllerConfig {
        let mut cfg = ControllerConfig::paper_default(vec![3, 4, 2, 5]);
        cfg.hidden = 16;
        cfg.embed = 8;
        cfg.lr = 0.02;
        cfg
    }

    #[test]
    fn sample_respects_vocab() {
        let ctrl = Controller::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let r = ctrl.sample(&mut rng);
            assert_eq!(r.actions.len(), 4);
            for (a, &v) in r.actions.iter().zip(&ctrl.cfg.vocab_sizes) {
                assert!(*a < v);
            }
            assert!(r.log_prob <= 0.0);
            assert!(r.entropy > 0.0);
        }
    }

    /// Small configurations whose sizes hit every kernel tile width.
    fn odd_cfg() -> ControllerConfig {
        let mut cfg = ControllerConfig::paper_default(vec![3, 9, 2, 17, 5]);
        cfg.hidden = 13;
        cfg.embed = 5;
        cfg.lr = 0.02;
        cfg
    }

    fn rewarded(rollouts: Vec<Rollout>) -> Vec<(Rollout, f64)> {
        rollouts
            .into_iter()
            .map(|r| {
                let reward = r.actions.iter().sum::<usize>() as f64 / 7.0;
                (r, reward)
            })
            .collect()
    }

    /// A copy of `r` whose records are never current, so `update`
    /// replays its actions.
    fn without_records(r: &Rollout) -> Rollout {
        Rollout {
            pass: Arc::new(Pass::default()),
            row: 0,
            ..r.clone()
        }
    }

    fn snapshot_bytes(ctrl: &Controller) -> Vec<u8> {
        let mut w = ByteWriter::new();
        ctrl.snapshot(&mut w);
        w.into_bytes()
    }

    fn stats_bits(s: UpdateStats) -> [u64; 4] {
        [
            s.mean_reward.to_bits(),
            s.baseline.to_bits(),
            s.grad_norm.to_bits() as u64,
            s.mean_entropy.to_bits(),
        ]
    }

    /// Updates one clone of `ctrl` on `batch` and another on its
    /// replayed copy: statistics and weights must agree to the bit. The
    /// first clone must have read the records, not run a forward pass,
    /// exactly when `from_records`.
    fn assert_update_matches_replay(
        ctrl: &Controller,
        batch: &[(Rollout, f64)],
        from_records: bool,
    ) {
        let replayed: Vec<(Rollout, f64)> = batch
            .iter()
            .map(|(r, reward)| (without_records(r), *reward))
            .collect();
        let (mut a, mut b) = (ctrl.clone(), ctrl.clone());
        assert_eq!(stats_bits(a.update(batch)), stats_bits(b.update(&replayed)));
        assert_eq!(snapshot_bytes(&a), snapshot_bytes(&b));
        // A clone starts with an empty workspace; only a forward pass
        // leaves one there.
        assert_eq!(a.work.lock().pass.is_none(), from_records);
    }

    #[test]
    fn sample_batch_equals_sequential_samples() {
        for cfg in [small_cfg(), odd_cfg()] {
            let ctrl = Controller::new(cfg);
            for n in [1, 3, 6] {
                let mut batch_rng = StdRng::seed_from_u64(40 + n as u64);
                let mut seq_rng = batch_rng.clone();
                let batch = ctrl.sample_batch(&mut batch_rng, n);
                let seq: Vec<Rollout> = (0..n).map(|_| ctrl.sample(&mut seq_rng)).collect();
                assert_eq!(batch, seq);
                for (b, s) in batch.iter().zip(&seq) {
                    assert_eq!(b.log_prob.to_bits(), s.log_prob.to_bits());
                    assert_eq!(b.entropy.to_bits(), s.entropy.to_bits());
                }
                assert_eq!(
                    batch_rng.random::<u64>(),
                    seq_rng.random::<u64>(),
                    "the batch left the RNG elsewhere"
                );
            }
        }
    }

    #[test]
    fn stale_batch_updates_like_a_replay() {
        for cfg in [small_cfg(), odd_cfg()] {
            let mut ctrl = Controller::new(cfg);
            let mut rng = StdRng::seed_from_u64(5);
            let stale = rewarded(ctrl.sample_batch(&mut rng, 5));
            // The weights move on after `stale` was sampled.
            let fresh = rewarded(ctrl.sample_batch(&mut rng, 4));
            ctrl.update(&fresh);
            assert_update_matches_replay(&ctrl, &stale, false);
        }
    }

    #[test]
    fn subset_of_a_batch_updates_like_a_replay() {
        for cfg in [small_cfg(), odd_cfg()] {
            let mut ctrl = Controller::new(cfg);
            let mut rng = StdRng::seed_from_u64(6);
            for _ in 0..3 {
                let batch = rewarded(ctrl.sample_batch(&mut rng, 4));
                ctrl.update(&batch);
            }
            let batch = rewarded(ctrl.sample_batch(&mut rng, 6));
            let other = rewarded(ctrl.sample_batch(&mut rng, 3));
            let pick = |ids: &[(usize, bool)]| -> Vec<(Rollout, f64)> {
                ids.iter()
                    .map(|&(i, first)| {
                        if first {
                            batch[i].clone()
                        } else {
                            other[i].clone()
                        }
                    })
                    .collect()
            };
            assert_update_matches_replay(&ctrl, &batch, true);
            // A quarantine-style subset, a reordered one, and rows of
            // two passes sampled under the same weights.
            assert_update_matches_replay(&ctrl, &pick(&[(0, true), (2, true), (5, true)]), true);
            assert_update_matches_replay(&ctrl, &pick(&[(4, true), (1, true)]), true);
            assert_update_matches_replay(
                &ctrl,
                &pick(&[(1, true), (0, false), (3, true), (2, false)]),
                true,
            );
            // Edited actions no longer match the records: replayed too.
            let mut edited = batch[0].clone();
            edited.0.actions[1] = (edited.0.actions[1] + 1) % ctrl.cfg.vocab_sizes[1];
            assert_update_matches_replay(&ctrl, &[edited], false);
        }
    }

    #[test]
    fn restored_controller_samples_and_updates_bit_identically() {
        // Train a few steps so the Adam moments, step counter and
        // baseline are all non-trivial, then snapshot.
        let mut ctrl = Controller::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let batch: Vec<(Rollout, f64)> = (0..4)
                .map(|_| {
                    let r = ctrl.sample(&mut rng);
                    let reward = r.actions[0] as f64 / 3.0;
                    (r, reward)
                })
                .collect();
            ctrl.update(&batch);
        }
        let mut w = ByteWriter::new();
        ctrl.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = Controller::restore(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.baseline(), ctrl.baseline());
        // Identical RNG streams must produce identical rollouts, and one
        // more update must leave both controllers in identical states.
        let mut ra = StdRng::seed_from_u64(99);
        let mut rb = ra.clone();
        let batch_a: Vec<(Rollout, f64)> =
            (0..4).map(|i| (ctrl.sample(&mut ra), i as f64)).collect();
        let batch_b: Vec<(Rollout, f64)> =
            (0..4).map(|i| (back.sample(&mut rb), i as f64)).collect();
        assert_eq!(batch_a, batch_b);
        let sa = ctrl.update(&batch_a);
        let sb = back.update(&batch_b);
        assert_eq!(sa, sb);
        assert_eq!(ctrl.sample(&mut ra), back.sample(&mut rb));
    }

    #[test]
    fn corrupted_controller_snapshot_is_rejected() {
        let ctrl = Controller::new(small_cfg());
        let mut w = ByteWriter::new();
        ctrl.snapshot(&mut w);
        let bytes = w.into_bytes();
        // Truncation is a typed error, not a panic.
        assert!(matches!(
            Controller::restore(&mut ByteReader::new(&bytes[..bytes.len() / 3])),
            Err(PersistError::Truncated { .. })
        ));
        // A config whose layout disagrees with the stored params is
        // Malformed: shrink the first vocab entry in place.
        let mut tampered = bytes.clone();
        // vocab_sizes length prefix (8B) then first entry as u64.
        tampered[8..16].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(
            Controller::restore(&mut ByteReader::new(&tampered)),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn learns_to_prefer_rewarded_action() {
        // Reward = 1 when action[0] == 2, else 0. After training the
        // controller should sample action 2 at step 0 most of the time.
        let mut ctrl = Controller::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..300 {
            let batch: Vec<(Rollout, f64)> = (0..8)
                .map(|_| {
                    let r = ctrl.sample(&mut rng);
                    let reward = if r.actions[0] == 2 { 1.0 } else { 0.0 };
                    (r, reward)
                })
                .collect();
            ctrl.update(&batch);
        }
        let hits = (0..100)
            .filter(|_| ctrl.sample(&mut rng).actions[0] == 2)
            .count();
        assert!(hits > 80, "only {hits}/100 after training");
    }

    #[test]
    fn learns_joint_action_pattern() {
        // Reward depends on two coordinated actions, exercising the
        // autoregressive conditioning: a[1] must equal a[0] + 1.
        let mut cfg = small_cfg();
        cfg.vocab_sizes = vec![3, 4];
        let mut ctrl = Controller::new(cfg);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..400 {
            let batch: Vec<(Rollout, f64)> = (0..8)
                .map(|_| {
                    let r = ctrl.sample(&mut rng);
                    let reward = if r.actions[1] == r.actions[0] + 1 {
                        1.0
                    } else {
                        0.0
                    };
                    (r, reward)
                })
                .collect();
            ctrl.update(&batch);
        }
        let hits = (0..100)
            .filter(|_| {
                let r = ctrl.sample(&mut rng);
                r.actions[1] == r.actions[0] + 1
            })
            .count();
        assert!(hits > 60, "only {hits}/100 after training");
    }

    #[test]
    fn baseline_tracks_reward() {
        let mut ctrl = Controller::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(3);
        assert!(ctrl.baseline().is_none());
        let r = ctrl.sample(&mut rng);
        let stats = ctrl.update(&[(r, 5.0)]);
        assert_eq!(stats.baseline, 5.0);
        let r2 = ctrl.sample(&mut rng);
        let stats2 = ctrl.update(&[(r2, 1.0)]);
        assert!(stats2.baseline < 5.0 && stats2.baseline > 1.0);
    }

    #[test]
    #[should_panic(expected = "empty update batch")]
    fn empty_batch_panics() {
        let mut ctrl = Controller::new(small_cfg());
        ctrl.update(&[]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Controller::new(small_cfg());
        let b = Controller::new(small_cfg());
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(a.sample(&mut r1), b.sample(&mut r2));
    }

    #[test]
    fn param_count_nontrivial() {
        let ctrl = Controller::new(small_cfg());
        assert!(ctrl.param_count() > 1000);
    }
}
