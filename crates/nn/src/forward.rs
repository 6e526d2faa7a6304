//! Graph construction: turns a [`NetworkPlan`] plus a [`WeightProvider`]
//! into a differentiable forward pass. Training is its only user;
//! inference runs the tape-free [`infer_network`](crate::infer_network),
//! which mirrors this walk op for op and returns the same logits bit for
//! bit.

use crate::weights::{ConvBn, OpWeights, WeightProvider};
use yoso_arch::{NetworkPlan, Op};
use yoso_tensor::{ConvGeom, Graph, ParamStore, Tensor, Var};

/// Applies ReLU → conv (stride `stride`) → BN as one fused tape node
/// (bit-identical to the unfused sequence; see `Graph::fused_conv_bn`).
fn conv_bn_relu(
    g: &mut Graph,
    store: &ParamStore,
    x: Var,
    w: ConvBn,
    k: usize,
    stride: usize,
) -> Var {
    let wv = g.param(store, w.w);
    let ga = g.param(store, w.gamma);
    let be = g.param(store, w.beta);
    g.fused_conv_bn(x, wv, ga, be, ConvGeom::same(k, stride), true)
}

/// Applies one candidate op on `x` with the given stride.
fn apply_op(
    g: &mut Graph,
    store: &ParamStore,
    x: Var,
    op: Op,
    weights: &OpWeights,
    stride: usize,
) -> Var {
    match (op, weights) {
        (Op::Conv3 | Op::Conv5, OpWeights::Conv(cb)) => {
            conv_bn_relu(g, store, x, *cb, op.kernel(), stride)
        }
        (Op::DwConv3 | Op::DwConv5, OpWeights::Sep(sc)) => {
            let r = g.relu(x);
            let dwv = g.param(store, sc.dw);
            let d = g.dwconv2d(r, dwv, ConvGeom::same(op.kernel(), stride));
            let pwv = g.param(store, sc.pw);
            let ga = g.param(store, sc.gamma);
            let be = g.param(store, sc.beta);
            g.fused_conv_bn(d, pwv, ga, be, ConvGeom::new(1, 1, 0), false)
        }
        (Op::MaxPool, OpWeights::Pool) => g.maxpool(x, ConvGeom::same(3, stride)),
        (Op::AvgPool, OpWeights::Pool) => g.avgpool(x, ConvGeom::same(3, stride)),
        (op, w) => panic!("op {op} paired with mismatched weights {w:?}"),
    }
}

/// Builds the full forward pass and returns the logits node `[n, classes]`.
///
/// # Panics
///
/// Panics if `input` does not match the plan's input shape, or the
/// provider returns mismatched weights.
pub fn forward_network<P: WeightProvider>(
    plan: &NetworkPlan,
    graph: &mut Graph,
    store: &ParamStore,
    provider: &P,
    input: Tensor,
) -> Var {
    let sk = &plan.skeleton;
    assert_eq!(
        &input.shape()[1..],
        &[sk.input_channels, sk.input_hw, sk.input_hw],
        "input shape mismatch"
    );
    let x = graph.input(input);
    // Stem: conv3x3 + BN (no leading ReLU on raw pixels).
    let stem = provider.stem();
    let wv = graph.param(store, stem.w);
    let ga = graph.param(store, stem.gamma);
    let be = graph.param(store, stem.beta);
    let stem_out = graph.fused_conv_bn(x, wv, ga, be, ConvGeom::same(3, 1), false);

    let mut s0 = stem_out;
    let mut s1 = stem_out;
    for cell in &plan.cells {
        let p0 = conv_bn_relu(
            graph,
            store,
            s0,
            provider.prep(cell.index, 0),
            1,
            cell.prep0_stride(),
        );
        let p1 = conv_bn_relu(graph, store, s1, provider.prep(cell.index, 1), 1, 1);
        let mut states = vec![p0, p1];
        for (ni, gene) in cell.genotype.nodes.iter().enumerate() {
            let node_idx = ni + 2;
            let mut halves = Vec::with_capacity(2);
            for (src, op) in [(gene.in1, gene.op1), (gene.in2, gene.op2)] {
                let stride = cell.op_stride(src);
                let w = provider.op(cell.index, node_idx, src, op);
                halves.push(apply_op(graph, store, states[src], op, &w, stride));
            }
            states.push(graph.add(halves[0], halves[1]));
        }
        let outs: Vec<Var> = cell
            .genotype
            .output_nodes()
            .into_iter()
            .map(|i| states[i])
            .collect();
        let out = graph.concat_channels(&outs);
        s0 = s1;
        s1 = out;
    }
    let pooled = graph.global_avg_pool(s1);
    let head = provider.head();
    let wv = graph.param(store, head.w);
    let bv = graph.param(store, head.b);
    graph.linear(pooled, wv, bv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CellNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoso_arch::{Genotype, NetworkSkeleton};

    #[test]
    fn forward_shapes_match_plan() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..5 {
            let geno = Genotype::random(&mut rng);
            let plan = NetworkSkeleton::tiny().compile(&geno);
            let net = CellNetwork::new(plan.clone(), 1);
            let mut g = Graph::new();
            let input = Tensor::randn(&[4, 3, 8, 8], 1.0, &mut rng);
            let logits = forward_network(&plan, &mut g, net.store(), net.provider(), input);
            assert_eq!(g.value(logits).shape(), &[4, 10]);
            assert!(g.value(logits).all_finite());
        }
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn wrong_input_shape_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let plan = NetworkSkeleton::tiny().compile(&Genotype::random(&mut rng));
        let net = CellNetwork::new(plan.clone(), 1);
        let mut g = Graph::new();
        let input = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let _ = forward_network(&plan, &mut g, net.store(), net.provider(), input);
    }
}
