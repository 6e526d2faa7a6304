//! A reusable buffer arena for convolution workspaces.
//!
//! `conv2d` lowers each sample to a column matrix whose size depends on
//! the layer, so a HyperNet training step used to allocate (and free) one
//! large buffer per conv layer per step. A [`Scratch`] arena keeps those
//! buffers alive across steps: the tape takes buffers during the forward
//! pass, returns them as the backward pass consumes each conv record, and
//! the training loop threads the arena from one step's
//! [`Graph::backward_scratch`](crate::Graph::backward_scratch) into the
//! next step's [`Graph::with_scratch`](crate::Graph::with_scratch).
//! Steady-state steps allocate nothing.

use crate::conv::TapTable;

/// A pool of reusable `Vec<f32>` workspaces, and of the conv and window
/// kernels' tap tables.
///
/// Buffers handed out by [`Scratch::take`] have **unspecified contents**
/// beyond their length; callers that need zeroed memory must use
/// [`Scratch::take_zeroed`] or overwrite every element (the conv
/// lowering does the latter, writing explicit zeros for padding).
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    free: Vec<Vec<f32>>,
    /// The conv and window kernels' tap tables, one per geometry seen,
    /// taken and given back like the buffers.
    pub(crate) tap_tables: Vec<TapTable>,
}

impl Scratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Takes a buffer of length `len` with unspecified contents,
    /// preferring the pooled buffer whose capacity fits most tightly. An
    /// empty buffer leaves the pool alone.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len {
                match best {
                    Some(b) if self.free[b].capacity() <= buf.capacity() => {}
                    _ => best = Some(i),
                }
            }
        }
        if yoso_trace::enabled() {
            yoso_trace::counter_add(
                if best.is_some() {
                    "scratch.hits"
                } else {
                    "scratch.misses"
                },
                1,
            );
        }
        let mut buf = match best {
            Some(i) => self.free.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        buf.resize(len, 0.0);
        buf
    }

    /// Takes a buffer of length `len` with every element set to `0.0`.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer to the arena for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Total capacity (in elements) currently pooled.
    pub fn pooled_elems(&self) -> usize {
        self.free.iter().map(|b| b.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_capacity() {
        let mut s = Scratch::new();
        let b = s.take(100);
        assert_eq!(b.len(), 100);
        let ptr = b.as_ptr();
        s.give(b);
        assert_eq!(s.pooled(), 1);
        // A smaller request reuses the same allocation.
        let b2 = s.take(50);
        assert_eq!(b2.len(), 50);
        assert_eq!(b2.as_ptr(), ptr);
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn best_fit_prefers_tightest_buffer() {
        let mut s = Scratch::new();
        s.give(Vec::with_capacity(1000));
        s.give(Vec::with_capacity(64));
        let b = s.take(60);
        assert!(b.capacity() < 1000, "took the oversized buffer");
        assert_eq!(s.pooled(), 1);
    }

    #[test]
    fn empty_take_leaves_pool_alone() {
        let mut s = Scratch::new();
        s.give(Vec::with_capacity(64));
        assert_eq!(s.take(0).capacity(), 0);
        assert_eq!(s.pooled(), 1);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut s = Scratch::new();
        s.give(vec![7.0; 32]);
        let b = s.take_zeroed(32);
        assert!(b.iter().all(|&v| v == 0.0));
    }
}
