//! `Graph::backward_scratch` times each backward pass into a
//! `tape.backward` span while tracing is on and records nothing while it
//! is off. (Alone in its test binary: the trace registry is
//! process-global, so a concurrent traced pass would add to the counts.)

use yoso_tensor::{ConvGeom, Graph, ParamStore, Tensor};

/// Runs `passes` forward and backward passes of a one-conv network.
fn backward_passes(passes: usize) {
    let mut store = ParamStore::new();
    let w = store.add(Tensor::full(&[2, 1, 3, 3], 0.1));
    for _ in 0..passes {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[2, 1, 4, 4]));
        let wv = g.param(&store, w);
        let y = g.conv2d(x, wv, ConvGeom::same(3, 1));
        let pooled = g.global_avg_pool(y);
        let loss = g.softmax_cross_entropy(pooled, &[0, 1]);
        g.backward(loss, &mut store);
    }
}

/// `tape.backward` spans recorded by `run` after a registry reset.
fn recorded(run: impl FnOnce()) -> u64 {
    yoso_trace::reset();
    run();
    let snap = yoso_trace::snapshot();
    snap.histogram("tape.backward").map_or(0, |h| h.count())
}

#[test]
fn traced_backward_passes_record_one_span_each() {
    yoso_trace::set_enabled(false);
    assert_eq!(
        recorded(|| backward_passes(3)),
        0,
        "untraced passes recorded spans"
    );
    yoso_trace::set_enabled(true);
    assert_eq!(recorded(|| backward_passes(3)), 3);
    yoso_trace::set_enabled(false);
}
