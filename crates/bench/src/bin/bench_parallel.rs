//! Measures the evaluation-pipeline speedups this repo claims and writes
//! the `BENCH_parallel.json` snapshot checked in at the workspace root:
//!
//! * `collect_samples` (exact fidelity) serial-cold vs parallel-cold vs
//!   warm-cache — the warm/serial ratio is the memoization speedup and
//!   must exceed 2x;
//! * per-point vs batched GP prediction over a rollout-sized batch.
//!
//! The snapshot is written only after the 2x target holds, so a failing
//! run leaves the checked-in file alone.
//!
//! Usage: `cargo run --release -p yoso-bench --bin bench_parallel --
//! [flags]`, with the flags of [`yoso_bench::usage::BENCH_PARALLEL`].

use std::time::Instant;
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, NetworkSkeleton};
use yoso_bench::{bench_meta_json, finish_trace, run_main, usage, Args};
use yoso_core::error::Error;
use yoso_predictor::perf::{collect_samples, PerfPredictor};

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let args = Args::parse(usage::BENCH_PARALLEL);
    let samples = args.usize("--samples", 1000);
    let batch = args.usize("--batch", 256);
    let seed = args.u64("--seed", 0);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    let trace = args.configure_trace();
    args.configure_chaos();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let skeleton = NetworkSkeleton::paper_default();
    let sim = Simulator::exact();

    println!("collect_samples: {samples} samples, exact fidelity, {cores} cores");
    yoso_pool::set_num_threads(1);
    yoso_accel::cache::clear();
    let serial_cold = time_ms(|| {
        collect_samples(&skeleton, &sim, samples, seed);
    });
    println!("  serial, cold cache:   {serial_cold:.1} ms");

    yoso_pool::set_num_threads(0); // all cores
    yoso_accel::cache::clear();
    let parallel_cold = time_ms(|| {
        collect_samples(&skeleton, &sim, samples, seed);
    });
    println!("  parallel, cold cache: {parallel_cold:.1} ms");

    // Same seed again: every layer simulation is now a cache hit.
    let parallel_warm = time_ms(|| {
        collect_samples(&skeleton, &sim, samples, seed);
    });
    println!("  parallel, warm cache: {parallel_warm:.1} ms");
    println!("  {}", yoso_accel::cache::stats());

    let thread_speedup = serial_cold / parallel_cold;
    let cache_speedup = serial_cold / parallel_warm;
    println!("  speedup from threads: {thread_speedup:.2}x");
    println!("  speedup incl. warm cache: {cache_speedup:.2}x (target: >= 2x)");

    println!("gp prediction: batch of {batch} points");
    let train = collect_samples(&skeleton, &Simulator::fast(), 400, seed ^ 0x77);
    let predictor = PerfPredictor::train(&skeleton, &train)?;
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x88);
    let points: Vec<DesignPoint> = (0..batch).map(|_| DesignPoint::random(&mut rng)).collect();
    let per_point = time_ms(|| {
        for p in &points {
            std::hint::black_box(predictor.predict(p));
        }
    });
    let batched = time_ms(|| {
        std::hint::black_box(predictor.predict_batch(&points));
    });
    let gp_speedup = per_point / batched;
    println!("  per-point: {per_point:.1} ms, batched: {batched:.1} ms ({gp_speedup:.2}x)");

    let meta = bench_meta_json(2);
    let json = format!(
        "{{\n  \"bench\": \"parallel evaluation pipeline\",\n  {meta},\n  \"collect_samples\": {{\n    \"samples\": {samples},\n    \"fidelity\": \"exact\",\n    \"serial_cold_ms\": {serial_cold:.1},\n    \"parallel_cold_ms\": {parallel_cold:.1},\n    \"parallel_warm_ms\": {parallel_warm:.1},\n    \"thread_speedup\": {thread_speedup:.2},\n    \"warm_cache_speedup\": {cache_speedup:.2}\n  }},\n  \"gp_prediction\": {{\n    \"batch\": {batch},\n    \"per_point_ms\": {per_point:.1},\n    \"batched_ms\": {batched:.1},\n    \"speedup\": {gp_speedup:.2}\n  }}\n}}\n"
    );
    assert!(
        cache_speedup >= 2.0,
        "warm-cache speedup {cache_speedup:.2}x below the 2x target"
    );
    std::fs::write(&out, json)?;
    println!("written {out}");
    finish_trace(&trace);
    Ok(())
}
