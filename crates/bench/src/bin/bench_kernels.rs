//! Measures the compute-kernel speedups this repo claims and writes the
//! `BENCH_kernels.json` snapshot checked in at the workspace root:
//!
//! * packed register-tiled SGEMM vs `sgemm_reference` on the im2col
//!   panel shapes a HyperNet training step actually produces (both on
//!   one core);
//! * end-to-end HyperNet candidate scoring on the tape-free walk and on
//!   the training tape, each with its minor page faults per candidate
//!   (recorded, not asserted).
//!
//! Target: >= 2x geometric mean on the GEMM shapes. The snapshot is
//! written only after the target holds, so a failing run leaves the
//! checked-in file alone.
//!
//! Usage: `cargo run --release -p yoso-bench --bin bench_kernels --
//! [flags]`, with the flags of [`yoso_bench::usage::BENCH_KERNELS`].

use std::time::Instant;
use yoso_bench::{bench_meta_json, run_main, usage, Args};
use yoso_core::error::Error;
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::HyperNet;
use yoso_nn::{evaluate_with, forward_network};
use yoso_tensor::matmul::{sgemm, sgemm_reference};
use yoso_tensor::{simd_tier, Graph};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Minor page faults of this process so far (`minflt`, field 10 of
/// `/proc/self/stat`); 0 where procfs is unavailable.
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesized command name start at field 3.
            let rest = &stat[stat.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Best-of-three timing of `iters` repetitions of `f` — the minimum is
/// the least noise-contaminated estimate on a shared machine.
fn bench_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    (0..3)
        .map(|_| time_ms(|| (0..iters).for_each(|_| f())))
        .fold(f64::INFINITY, f64::min)
}

/// im2col panel shapes from one HyperNet training step on the paper
/// skeleton (16x16 input, 16 init channels): per-sample GEMMs are
/// `cout x (cin*k*k) x (hout*wout)`.
const GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("stem_3x3", 16, 27, 256),
    ("cell_conv3x3", 16, 144, 256),
    ("prep_1x1_concat", 16, 64, 256),
    ("reduction_conv3x3", 32, 288, 64),
    ("wide_conv3x3", 64, 576, 64),
];

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let args = Args::parse(usage::BENCH_KERNELS);
    let iters = args.usize("--iters", 40);
    let seed = args.u64("--seed", 0);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_kernels.json".into());
    let mut rng = StdRng::seed_from_u64(seed);

    println!(
        "gemm: packed ({} tier) vs reference, {iters} iters/shape",
        simd_tier()
    );
    let mut shape_rows = Vec::new();
    let mut log_sum = 0.0;
    for &(name, m, k, n) in GEMM_SHAPES {
        let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut c = vec![0.0f32; m * n];
        let ref_ms = bench_ms(iters, || {
            c.fill(0.0);
            sgemm_reference(m, k, n, &a, &b, &mut c);
            std::hint::black_box(&c);
        });
        let packed_ms = bench_ms(iters, || {
            sgemm(m, k, n, &a, &b, &mut c);
            std::hint::black_box(&c);
        });
        let speedup = ref_ms / packed_ms;
        log_sum += speedup.ln();
        println!("  {name:>18} {m:>3}x{k:>3}x{n:>3}: reference {ref_ms:.2} ms, packed {packed_ms:.2} ms ({speedup:.2}x)");
        shape_rows.push(format!(
            "      {{ \"name\": \"{name}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"reference_ms\": {ref_ms:.3}, \"packed_ms\": {packed_ms:.3}, \"speedup\": {speedup:.2} }}"
        ));
    }
    let gemm_geomean = (log_sum / GEMM_SHAPES.len() as f64).exp();
    println!("  geometric-mean speedup: {gemm_geomean:.2}x (target: >= 2x)");

    // End-to-end candidate scoring: the HyperNet validation pass on the
    // tape-free walk (`evaluate_genotype`, what the search runs) and on
    // the training tape (a `Graph` + `forward_network` per batch, the
    // path scoring took before the walk). This is the quantity the
    // search loop actually pays per candidate; minor page faults per
    // candidate show the allocation churn of each side.
    let sk = yoso_arch::NetworkSkeleton::tiny();
    let data = SynthCifar::generate(&SynthCifarConfig::tiny());
    let hyper = HyperNet::new(sk, seed);
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0x9e37);
    let genos: Vec<yoso_arch::Genotype> = (0..4)
        .map(|_| yoso_arch::Genotype::random(&mut rng2))
        .collect();
    let score_iters = 3;
    let score_rounds = 7;
    // Batch 128 — what `FastEvaluator` actually scores with.
    let score_batch = 128;
    let tape_score = |g: &yoso_arch::Genotype| {
        let plan = hyper.skeleton().compile(g);
        let provider = hyper.provider(&plan);
        evaluate_with(&data.val, score_batch, |images| {
            let mut graph = Graph::new();
            let logits = forward_network(&plan, &mut graph, hyper.store(), &provider, images);
            graph.value(logits).clone()
        })
    };
    let sides: [&dyn Fn(&yoso_arch::Genotype) -> f64; 2] = [
        &|g| hyper.evaluate_genotype(g, &data.val, score_batch),
        &tape_score,
    ];
    // The sides are timed in *alternating* rounds rather than
    // back-to-back `bench_ms` windows: on a shared machine a load spike
    // landing in one window would skew the comparison either way,
    // while interleaving gives every side the same shot at a quiet
    // slot. Each side records its *minimum*, which converges to that
    // side's quiet-slot floor, so additive noise is stripped from both.
    for score in sides {
        for g in &genos {
            std::hint::black_box(score(g));
        }
    }
    let mut best = [f64::INFINITY; 2];
    let mut faults = [0u64; 2];
    for _ in 0..score_rounds {
        for (side, score) in sides.iter().enumerate() {
            let before = minor_faults();
            best[side] = best[side].min(time_ms(|| {
                for _ in 0..score_iters {
                    for g in &genos {
                        std::hint::black_box(score(g));
                    }
                }
            }));
            faults[side] += minor_faults() - before;
        }
    }
    let per = (score_iters * genos.len()) as f64;
    let [walk_score_ms, tape_score_ms] = best.map(|ms| ms / per);
    let [walk_faults, tape_faults] = faults.map(|f| f as f64 / (per * score_rounds as f64));
    println!(
        "candidate scoring: walk {walk_score_ms:.1} ms ({walk_faults:.0} faults), tape {tape_score_ms:.1} ms ({tape_faults:.0} faults) per candidate"
    );

    let meta = bench_meta_json(2);
    let json = format!(
        "{{\n  \"bench\": \"compute kernels\",\n  {meta},\n  \"gemm\": {{\n    \"iters\": {iters},\n    \"shapes\": [\n{}\n    ],\n    \"geomean_speedup\": {gemm_geomean:.2}\n  }},\n  \"scoring\": {{\n    \"candidates\": {},\n    \"walk_ms_per_candidate\": {walk_score_ms:.2},\n    \"tape_ms_per_candidate\": {tape_score_ms:.2},\n    \"walk_minor_faults_per_candidate\": {walk_faults:.0},\n    \"tape_minor_faults_per_candidate\": {tape_faults:.0}\n  }}\n}}\n",
        shape_rows.join(",\n"),
        genos.len(),
    );

    assert!(
        gemm_geomean >= 2.0,
        "gemm geomean speedup {gemm_geomean:.2}x below the 2x target"
    );
    std::fs::write(&out, json)?;
    println!("written {out}");
    Ok(())
}
