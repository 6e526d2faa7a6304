//! Parameter storage shared between forward graphs and optimizers.

use crate::tensor::Tensor;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of the parameter in its store.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct ParamEntry {
    value: Tensor,
    grad: Tensor,
}

/// Owns trainable parameters and their gradient accumulators.
///
/// A [`Graph`](crate::graph::Graph) references parameters by [`ParamId`];
/// calling [`Graph::backward`](crate::graph::Graph::backward) accumulates
/// gradients here, and an optimizer ([`Sgd`](crate::optim::Sgd) /
/// [`Adam`](crate::optim::Adam)) consumes them.
///
/// # Examples
///
/// ```
/// use yoso_tensor::{ParamStore, Tensor};
/// let mut store = ParamStore::new();
/// let id = store.add(Tensor::zeros(&[4, 4]));
/// assert_eq!(store.value(id).len(), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter tensor, returning its id. The gradient is
    /// initialized to zeros of the same shape.
    pub fn add(&mut self, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.shape());
        self.entries.push(ParamEntry { value, grad });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn param_count(&self) -> usize {
        self.entries.len()
    }

    /// Total number of scalar weights across all parameters.
    pub fn total_elems(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Immutable access to a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable access to a parameter value.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// Immutable access to a parameter gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Mutable access to a parameter gradient, for callers that
    /// accumulate into it in place.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].grad
    }

    /// Accumulates `g` into the gradient of `id`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        self.entries[id.0].grad.add_in_place(g);
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.fill_zero();
        }
    }

    /// Zeroes the gradient accumulators of `ids` alone.
    pub fn zero_grads_of(&mut self, ids: &[ParamId]) {
        for id in ids {
            self.entries[id.0].grad.fill_zero();
        }
    }

    /// Sum of squared parameter values (for L2 diagnostics).
    pub fn l2_sq(&self) -> f32 {
        self.entries.iter().map(|e| e.value.sq_norm()).sum()
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .map(|e| e.grad.sq_norm())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm does not exceed `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        self.clip_entries(0..self.entries.len(), max_norm)
    }

    /// [`clip_grad_norm`](Self::clip_grad_norm) over the gradients of
    /// `ids` (sorted, each once) alone. When every other gradient is
    /// zero it returns the same norm and leaves the same bits: the norm
    /// sums the same non-zero squares in the same index order, and the
    /// gradients it leaves out would scale to zero.
    pub fn clip_grad_norm_of(&mut self, ids: &[ParamId], max_norm: f32) -> f32 {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not sorted");
        self.clip_entries(ids.iter().map(|id| id.0), max_norm)
    }

    /// Clips the gradients of the entries `idx` by their global norm.
    fn clip_entries(&mut self, idx: impl Iterator<Item = usize> + Clone, max_norm: f32) -> f32 {
        let norm = idx
            .clone()
            .map(|i| self.entries[i].grad.sq_norm())
            .sum::<f32>()
            .sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for i in idx {
                self.entries[i].grad.scale_in_place(s);
            }
        }
        norm
    }

    /// Iterates over `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (ParamId(i), &e.value))
    }

    /// Applies `f(value, grad)` to every parameter; used by optimizers.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut Tensor, &Tensor)) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            f(i, &mut e.value, &e.grad);
        }
    }

    /// Applies `f(index, value, grad)` to the parameters `ids` alone, in
    /// the order given.
    pub fn for_each_of_mut(
        &mut self,
        ids: &[ParamId],
        mut f: impl FnMut(usize, &mut Tensor, &Tensor),
    ) {
        for id in ids {
            let e = &mut self.entries[id.0];
            f(id.0, &mut e.value, &e.grad);
        }
    }

    /// Returns true if all parameter values are finite.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|e| e.value.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut s = ParamStore::new();
        let a = s.add(Tensor::ones(&[2, 2]));
        let b = s.add(Tensor::zeros(&[3]));
        assert_eq!(s.param_count(), 2);
        assert_eq!(s.total_elems(), 7);
        assert_eq!(s.value(a).sum(), 4.0);
        assert_eq!(s.value(b).len(), 3);
        assert_eq!(s.l2_sq(), 4.0);
    }

    #[test]
    fn grad_accumulation_and_zero() {
        let mut s = ParamStore::new();
        let id = s.add(Tensor::zeros(&[2]));
        s.accumulate_grad(id, &Tensor::from_vec(&[2], vec![1.0, 2.0]));
        s.accumulate_grad(id, &Tensor::from_vec(&[2], vec![1.0, 2.0]));
        assert_eq!(s.grad(id).data(), &[2.0, 4.0]);
        s.grad_mut(id).data_mut()[1] += 0.5;
        assert_eq!(s.grad(id).data(), &[2.0, 4.5]);
        s.zero_grads();
        assert_eq!(s.grad(id).sum(), 0.0);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut s = ParamStore::new();
        let id = s.add(Tensor::zeros(&[2]));
        s.accumulate_grad(id, &Tensor::from_vec(&[2], vec![3.0, 4.0]));
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
    }

    /// Over the ids that hold every non-zero gradient, the id-restricted
    /// zero and clip leave the bits the whole-store ones do.
    #[test]
    fn id_restricted_clip_matches_whole_store_clip() {
        let mut s = ParamStore::new();
        let ids: Vec<ParamId> = (0..5).map(|i| s.add(Tensor::zeros(&[i + 1]))).collect();
        for (step, max_norm) in [(0.0f32, 0.5f32), (1.0, 100.0), (2.0, 1e-3)] {
            let mut full = s.clone();
            let touched = [ids[1], ids[3], ids[4]];
            for (k, &id) in touched.iter().enumerate() {
                let g: Vec<f32> = (0..id.0 + 1).map(|j| step - (k + j) as f32 * 0.7).collect();
                s.accumulate_grad(id, &Tensor::from_vec(&[id.0 + 1], g.clone()));
                full.accumulate_grad(id, &Tensor::from_vec(&[id.0 + 1], g));
            }
            let norm = s.clip_grad_norm_of(&touched, max_norm);
            assert_eq!(norm.to_bits(), full.clip_grad_norm(max_norm).to_bits());
            for &id in &ids {
                assert_eq!(s.grad(id).data(), full.grad(id).data());
            }
            s.zero_grads_of(&touched);
            assert_eq!(s.grad_norm(), 0.0);
        }
    }

    #[test]
    fn clip_grad_norm_no_op_below_threshold() {
        let mut s = ParamStore::new();
        let id = s.add(Tensor::zeros(&[2]));
        s.accumulate_grad(id, &Tensor::from_vec(&[2], vec![0.3, 0.4]));
        s.clip_grad_norm(10.0);
        assert_eq!(s.grad(id).data(), &[0.3, 0.4]);
    }
}
