//! Measures the compute-kernel speedups this repo claims and writes the
//! `BENCH_kernels.json` snapshot checked in under `results/`:
//!
//! * packed register-tiled SGEMM vs `sgemm_reference` on the im2col
//!   panel shapes a HyperNet training step actually produces (both on
//!   one core);
//! * HyperNet candidate scoring on the tape-free walk and on the
//!   training tape, each with its minor page faults per candidate
//!   (recorded, not asserted);
//! * the walk `paper_search` scores: a `NetworkSkeleton::small()`
//!   candidate over one 128-image validation batch;
//! * one epoch of standalone `CellNetwork` training, the cost the
//!   HyperNet's inherited-weight scoring replaces (the one-shot cost
//!   claim).
//!
//! Every timing comes from [`yoso_bench::interleaved`] rounds and is
//! recorded as its spread. Target: >= 2x geometric mean on the GEMM
//! shapes, each shape's speedup read from the minimum rounds. The
//! snapshot is written only after the target holds, so a failing run
//! leaves the checked-in file alone.
//!
//! Usage: `cargo run --release -p yoso-bench --bin bench_kernels --
//! [flags]`, with the flags of [`yoso_bench::usage::BENCH_KERNELS`].

use std::hint::black_box;
use yoso_arch::{Genotype, NetworkSkeleton};
use yoso_bench::{bench_meta_json, interleaved, run_main, usage, Args};
use yoso_core::error::Error;
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::HyperNet;
use yoso_nn::{evaluate_with, forward_network, infer_network, CellNetwork, TrainConfig};
use yoso_tensor::matmul::{sgemm, sgemm_reference};
use yoso_tensor::{simd_tier, Graph};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Timed rounds of every measurement.
const ROUNDS: usize = 7;

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
    let iters = args.usize("--iters", 40).max(1);
    let seed = args.u64("--seed", 0);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_kernels.json".into());
    let mut rng = StdRng::seed_from_u64(seed);

    println!(
        "gemm: packed ({} tier) vs reference, {iters} calls per round, {ROUNDS} rounds",
        simd_tier()
    );
    let mut shape_rows = Vec::new();
    let mut log_sum = 0.0;
    for &(name, m, k, n) in GEMM_SHAPES {
        let a: Vec<f32> = (0..m * k).map(|_| rng.random_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let (mut c_ref, mut c_packed) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let [reference, packed] = interleaved(
            ROUNDS,
            [
                &mut || {
                    for _ in 0..iters {
                        c_ref.fill(0.0);
                        sgemm_reference(m, k, n, &a, &b, &mut c_ref);
                        black_box(&c_ref);
                    }
                    Ok(())
                },
                &mut || {
                    for _ in 0..iters {
                        sgemm(m, k, n, &a, &b, &mut c_packed);
                        black_box(&c_packed);
                    }
                    Ok(())
                },
            ],
        )?;
        // Per call, in µs.
        let [reference, packed] = [reference, packed].map(|t| t.ms.scaled(1e3 / iters as f64));
        let speedup = reference.min / packed.min;
        log_sum += speedup.ln();
        println!(
            "  {name:>18} {m:>3}x{k:>3}x{n:>3}: reference {:.1} us, packed {:.1} us ({speedup:.2}x, minimum rounds)",
            reference.min, packed.min
        );
        shape_rows.push(format!(
            "      {{ \"name\": \"{name}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"reference_us\": {}, \"packed_us\": {}, \"speedup\": {speedup:.2} }}",
            reference.json(),
            packed.json()
        ));
    }
    let gemm_geomean = (log_sum / GEMM_SHAPES.len() as f64).exp();
    println!("  geometric-mean speedup: {gemm_geomean:.2}x (target: >= 2x)");

    // Candidate scoring: the HyperNet validation pass on the tape-free
    // walk (`evaluate_genotype`, what the search runs) and on the
    // training tape (a `Graph` + `forward_network` per batch, the path
    // scoring took before the walk), with minor page faults per
    // candidate for the allocation churn of each. Batch 128, what
    // `FastEvaluator` scores with.
    let sk = NetworkSkeleton::tiny();
    let data = SynthCifar::generate(&SynthCifarConfig::tiny());
    let hyper = HyperNet::new(sk.clone(), seed);
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0x9e37);
    let genos: Vec<Genotype> = (0..4).map(|_| Genotype::random(&mut rng2)).collect();
    let score_iters = 3;
    let score_batch = 128;
    let tape_score = |g: &Genotype| {
        let plan = hyper.skeleton().compile(g);
        let provider = hyper.provider(&plan);
        evaluate_with(&data.val, score_batch, |images| {
            let mut graph = Graph::new();
            let logits = forward_network(&plan, &mut graph, hyper.store(), &provider, images);
            graph.value(logits).clone()
        })
    };
    let score_all = |score: &dyn Fn(&Genotype) -> f64, faults: &mut Vec<u64>| {
        let before = minor_faults();
        for _ in 0..score_iters {
            for g in &genos {
                black_box(score(g));
            }
        }
        faults.push(minor_faults() - before);
        Ok(())
    };
    let (mut walk_faults, mut tape_faults) = (Vec::new(), Vec::new());

    // The walk `paper_search` scores: one `small` candidate over one
    // 128-image validation batch. Weights stay at initialisation; a
    // walk's cost does not depend on their values.
    let small = NetworkSkeleton::small();
    let small_data = SynthCifar::generate(&SynthCifarConfig::small());
    let small_hyper = HyperNet::new(small.clone(), seed);
    let (small_images, _) = small_data.val.batch(&(0..128).collect::<Vec<_>>());
    let small_plans: Vec<_> = genos.iter().map(|g| small.compile(g)).collect();

    // One epoch of standalone training of the first candidate on the
    // same data, the cost a one-shot HyperNet score stands in for.
    let train_cfg = TrainConfig {
        epochs: 1,
        batch_size: 32,
        augment: false,
        seed,
        ..TrainConfig::default()
    };

    let [walk, tape, small_walk, train] = interleaved(
        ROUNDS,
        [
            &mut || {
                score_all(
                    &|g| hyper.evaluate_genotype(g, &data.val, score_batch),
                    &mut walk_faults,
                )
            },
            &mut || score_all(&tape_score, &mut tape_faults),
            &mut || {
                for plan in &small_plans {
                    let provider = small_hyper.provider(plan);
                    black_box(infer_network(
                        plan,
                        small_hyper.store(),
                        &provider,
                        &small_images,
                    ));
                }
                Ok(())
            },
            &mut || {
                let mut net = CellNetwork::new(sk.compile(&genos[0]), seed);
                black_box(net.train(&data, &train_cfg).final_val_acc);
                Ok(())
            },
        ],
    )?;
    let per_candidate = 1.0 / (score_iters * genos.len()) as f64;
    let [walk, tape] = [walk, tape].map(|t| t.ms.scaled(per_candidate));
    let small_walk = small_walk.ms.scaled(1.0 / small_plans.len() as f64);
    let train = train.ms;
    // The first call of each side is its warm-up.
    let [walk_faults, tape_faults] = [&walk_faults, &tape_faults]
        .map(|f| f[1..].iter().sum::<u64>() as f64 * per_candidate / ROUNDS as f64);
    println!(
        "candidate scoring (median per candidate): walk {:.1} ms ({walk_faults:.0} faults), tape {:.1} ms ({tape_faults:.0} faults)",
        walk.median, tape.median
    );
    println!(
        "small batch-128 walk: {:.1} ms median; one epoch of standalone training: {:.1} ms median",
        small_walk.median, train.median
    );

    let meta = bench_meta_json(2);
    let json = format!(
        "{{\n  \"bench\": \"compute kernels\",\n  {meta},\n  \"gemm\": {{\n    \"calls_per_round\": {iters},\n    \"shapes\": [\n{}\n    ],\n    \"geomean_speedup\": {gemm_geomean:.2}\n  }},\n  \"scoring\": {{\n    \"candidates\": {},\n    \"walk_ms_per_candidate\": {},\n    \"tape_ms_per_candidate\": {},\n    \"walk_minor_faults_per_candidate\": {walk_faults:.0},\n    \"tape_minor_faults_per_candidate\": {tape_faults:.0},\n    \"small_walk_batch128_ms\": {},\n    \"standalone_train_epoch_ms\": {}\n  }}\n}}\n",
        shape_rows.join(",\n"),
        genos.len(),
        walk.json(),
        tape.json(),
        small_walk.json(),
        train.json(),
    );

    assert!(
        gemm_geomean >= 2.0,
        "gemm geomean speedup {gemm_geomean:.2}x below the 2x target"
    );
    let path = yoso_bench::results_dir().join(&out);
    std::fs::write(&path, json)?;
    println!("written {}", path.display());
    Ok(())
}
