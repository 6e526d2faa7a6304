//! Measures the evaluation-pipeline speedups this repo claims and writes
//! the `BENCH_parallel.json` snapshot checked in under `results/`:
//!
//! * `collect_samples` (exact fidelity) serial-cold vs parallel-cold vs
//!   warm-cache — the warm/serial ratio of the median rounds is the
//!   memoization speedup and must reach 2x;
//! * per-point vs batched GP prediction over a rollout-sized batch;
//! * `perf_oracle`, the §III-E claim: the per-candidate cost of exact
//!   simulation, fast simulation and GP prediction over the same
//!   points. Each candidate is compiled, as the search compiles it; each
//!   simulation round starts from a cleared simulator cache and records
//!   the hits it still gets (layers repeat within and across networks).
//!
//! Every timing comes from [`yoso_bench::interleaved`] rounds and is
//! recorded as its spread. The snapshot is written only after the 2x
//! target holds, so a failing run leaves the checked-in file alone.
//!
//! Usage: `cargo run --release -p yoso-bench --bin bench_parallel --
//! [flags]`, with the flags of [`yoso_bench::usage::BENCH_PARALLEL`].

use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use yoso_accel::cache::CacheStats;
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, NetworkSkeleton};
use yoso_bench::{bench_meta_json, finish_trace, interleaved, run_main, usage, Args};
use yoso_core::error::Error;
use yoso_predictor::perf::{collect_samples, PerfPredictor};

/// Timed rounds of every measurement.
const ROUNDS: usize = 7;

/// Fast-fidelity samples the GP predictor is trained on.
const GP_TRAIN_SAMPLES: usize = 400;

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let args = Args::parse(usage::BENCH_PARALLEL);
    let samples = args.usize("--samples", 1000);
    let batch = args.usize("--batch", 256).max(1);
    let seed = args.u64("--seed", 0);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    let trace = args.configure_trace();
    args.configure_chaos();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let skeleton = NetworkSkeleton::paper_default();
    let sim = Simulator::exact();

    // The cold sides clear the cache first; every side collects the
    // same seed, so whichever side ran last leaves the warm side a
    // cache holding all of its layers.
    println!("collect_samples: {samples} samples, exact fidelity, {cores} cores, {ROUNDS} rounds");
    let collect = |threads: usize, cold: bool| {
        yoso_pool::set_num_threads(threads);
        if cold {
            yoso_accel::cache::clear();
        }
        black_box(collect_samples(&skeleton, &sim, samples, seed));
        Ok(())
    };
    let [serial_cold, parallel_cold, parallel_warm] = interleaved(
        ROUNDS,
        [
            &mut || collect(1, true),
            &mut || collect(0, true), // all cores
            &mut || collect(0, false),
        ],
    )?
    .map(|t| t.ms);
    yoso_pool::set_num_threads(0); // whichever side ran last
    println!(
        "  serial, cold cache:   {:.1} ms median\n  parallel, cold cache: {:.1} ms median\n  parallel, warm cache: {:.1} ms median",
        serial_cold.median, parallel_cold.median, parallel_warm.median
    );
    println!("  {}", yoso_accel::cache::stats());
    let thread_speedup = serial_cold.median / parallel_cold.median;
    let cache_speedup = serial_cold.median / parallel_warm.median;
    println!("  speedup from threads: {thread_speedup:.2}x");
    println!("  speedup incl. warm cache: {cache_speedup:.2}x (target: >= 2x)");

    println!("gp prediction: batch of {batch} points");
    let train = collect_samples(&skeleton, &Simulator::fast(), GP_TRAIN_SAMPLES, seed ^ 0x77);
    let predictor = PerfPredictor::train(&skeleton, &train)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x88);
    let points: Vec<DesignPoint> = (0..batch).map(|_| DesignPoint::random(&mut rng)).collect();
    let mut predict_each = || {
        for p in &points {
            black_box(predictor.predict(p));
        }
        Ok(())
    };
    let [per_point, batched] = interleaved(
        ROUNDS,
        [&mut predict_each, &mut || {
            black_box(predictor.predict_batch(&points));
            Ok(())
        }],
    )?
    .map(|t| t.ms);
    let gp_speedup = per_point.median / batched.median;
    println!(
        "  per-point: {:.1} ms, batched: {:.1} ms ({gp_speedup:.2}x, medians)",
        per_point.median, batched.median
    );

    println!("perf oracle: {batch} candidates per round, cold simulator cache");
    let simulate_each = |sim: &Simulator, cache: &mut Vec<CacheStats>| {
        yoso_accel::cache::clear();
        for p in &points {
            let plan = skeleton.compile(&p.genotype);
            black_box(sim.simulate_plan(&plan, &p.hw));
        }
        cache.push(yoso_accel::cache::stats());
        Ok(())
    };
    let (exact, fast) = (Simulator::exact(), Simulator::fast());
    let (mut exact_cache, mut fast_cache) = (Vec::new(), Vec::new());
    let [exact_us, fast_us, gp_us] = interleaved(
        ROUNDS,
        [
            &mut || simulate_each(&exact, &mut exact_cache),
            &mut || simulate_each(&fast, &mut fast_cache),
            &mut predict_each,
        ],
    )?
    .map(|t| t.ms.scaled(1e3 / batch as f64));
    println!(
        "  per candidate (medians): exact simulation {:.1} us, fast simulation {:.1} us, gp prediction {:.1} us",
        exact_us.median, fast_us.median, gp_us.median
    );
    // The first call of each simulation side is its warm-up.
    let cache_json = |cache: &[CacheStats]| {
        let (hits, misses): (Vec<String>, Vec<String>) = cache[1..]
            .iter()
            .map(|s| (s.hits.to_string(), s.misses.to_string()))
            .unzip();
        format!(
            "{{ \"hits\": [{}], \"misses\": [{}] }}",
            hits.join(", "),
            misses.join(", ")
        )
    };

    let meta = bench_meta_json(2);
    let json = format!(
        "{{\n  \"bench\": \"parallel evaluation pipeline\",\n  {meta},\n  \"collect_samples\": {{\n    \"samples\": {samples},\n    \"fidelity\": \"exact\",\n    \"serial_cold_ms\": {},\n    \"parallel_cold_ms\": {},\n    \"parallel_warm_ms\": {},\n    \"thread_speedup\": {thread_speedup:.2},\n    \"warm_cache_speedup\": {cache_speedup:.2}\n  }},\n  \"gp_prediction\": {{\n    \"batch\": {batch},\n    \"per_point_ms\": {},\n    \"batched_ms\": {},\n    \"speedup\": {gp_speedup:.2}\n  }},\n  \"perf_oracle\": {{\n    \"candidates\": {batch},\n    \"skeleton\": \"paper_default\",\n    \"exact_simulation_us_per_candidate\": {},\n    \"fast_simulation_us_per_candidate\": {},\n    \"gp_prediction_us_per_candidate\": {},\n    \"gp_train_samples\": {GP_TRAIN_SAMPLES},\n    \"gp_train_fidelity\": \"fast\",\n    \"exact_cold_round_cache\": {},\n    \"fast_cold_round_cache\": {}\n  }}\n}}\n",
        serial_cold.json(),
        parallel_cold.json(),
        parallel_warm.json(),
        per_point.json(),
        batched.json(),
        exact_us.json(),
        fast_us.json(),
        gp_us.json(),
        cache_json(&exact_cache),
        cache_json(&fast_cache),
    );
    assert!(
        cache_speedup >= 2.0,
        "warm-cache speedup {cache_speedup:.2}x below the 2x target"
    );
    let path = yoso_bench::results_dir().join(&out);
    std::fs::write(&path, json)?;
    println!("written {}", path.display());
    finish_trace(&trace);
    Ok(())
}
