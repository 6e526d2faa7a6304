//! Crash-recovery smoke test: proves that a search killed mid-run and
//! resumed from its newest on-disk checkpoint replays a bit-identical
//! `search_iter` JSONL trace and reaches the same final outcome as the
//! uninterrupted run.
//!
//! The drill, per worker-thread count:
//!
//! 1. run the full search (default 30 iterations) with a checkpoint
//!    cadence at the kill point (default 15);
//! 2. simulate a SIGKILL — drop every in-memory object, keeping only the
//!    `ckpt_<kill>.snap` file;
//! 3. [`SearchSession::resume_from`] that file and run to completion;
//! 4. diff the resumed `search_iter` lines against the tail of the full
//!    run's trace, byte for byte, and compare the final outcomes.
//!
//! Exits non-zero (with the full error chain on stderr) on any
//! divergence, so CI can gate on it.
//!
//! Usage: `cargo run --release -p yoso-bench --bin resume_smoke --
//! [flags]`, with the flags of [`yoso_bench::usage::RESUME_SMOKE`].
//!
//! With `--chaos-plan` the whole drill runs under an armed fault plan.
//! Only *transient* faults (worker panics, slow evaluations) keep the
//! byte-identity contract — the supervised pool retries them away — so
//! that is what the CI soak plan injects. Quarantining faults (NaN
//! rewards, simulator NaNs) change which candidates survive and belong
//! in the `chaos_resilience` integration test instead.

use std::path::PathBuf;
use yoso_bench::{run_main, usage, Args};
use yoso_core::checkpoint::checkpoint_file_name;
use yoso_core::error::Error;
use yoso_core::evaluation::{calibrate_constraints, SurrogateEvaluator};
use yoso_core::reward::RewardConfig;
use yoso_core::search::SearchConfig;
use yoso_core::session::{SearchSession, Strategy};
use yoso_trace::Trace;

fn search_iter_lines(trace: &Trace) -> Vec<String> {
    trace
        .lines()
        .into_iter()
        .filter(|l| l.contains("\"search_iter\""))
        .collect()
}

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let args = Args::parse(usage::RESUME_SMOKE);
    let iterations = args.usize("--iterations", 30);
    let kill_at = args.usize("--kill-at", 15);
    let seed = args.u64("--seed", 0);
    args.configure_chaos();
    let skeleton = yoso_arch::NetworkSkeleton::tiny();
    let evaluator = SurrogateEvaluator::new(skeleton.clone());
    let reward = RewardConfig::balanced(calibrate_constraints(&skeleton, 50, seed, 50.0));
    let cfg = SearchConfig {
        iterations,
        rollouts_per_update: 5,
        seed,
        ..SearchConfig::default()
    };

    for threads in [1usize, 4] {
        yoso_pool::set_num_threads(threads);
        println!("--- {threads} worker thread(s) ---");
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "yoso-resume-smoke-{}-t{threads}",
            std::process::id()
        ));

        let full_trace = Trace::memory();
        let full = SearchSession::builder()
            .evaluator(&evaluator)
            .reward(reward)
            .config(cfg.clone())
            .strategy(Strategy::Rl)
            .checkpoint_every(kill_at)
            .checkpoint_dir(&dir)
            .trace(full_trace.clone())
            .run()?;
        println!(
            "full run: {} iterations, best reward {:.4}",
            full.history.len(),
            full.best().reward
        );

        // Simulated SIGKILL at `kill_at`: only the snapshot survives.
        let ckpt = dir.join(checkpoint_file_name(kill_at));
        if !ckpt.exists() {
            return Err(Error::InvalidConfig(format!(
                "expected checkpoint {} was never written — pick --kill-at on a \
                 controller-update boundary (multiple of rollouts_per_update)",
                ckpt.display()
            )));
        }
        let resumed_trace = Trace::memory();
        let resumed = SearchSession::resume_from(&ckpt)?
            .evaluator(&evaluator)
            .trace(resumed_trace.clone())
            .run()?;
        println!(
            "resumed run: {} iterations, best reward {:.4}",
            resumed.history.len(),
            resumed.best().reward
        );

        let full_lines = search_iter_lines(&full_trace);
        let resumed_lines = search_iter_lines(&resumed_trace);
        let tail = &full_lines[full_lines.len() - resumed_lines.len()..];
        for (i, (a, b)) in tail.iter().zip(&resumed_lines).enumerate() {
            if a != b {
                return Err(Error::ResumeMismatch {
                    expected: format!("search_iter line {i} of the uninterrupted tail: {a}"),
                    found: format!("resumed run emitted: {b}"),
                });
            }
        }
        if resumed != full {
            return Err(Error::ResumeMismatch {
                expected: format!("the uninterrupted outcome (best {:.6})", full.best().reward),
                found: format!(
                    "a diverged resumed outcome (best {:.6})",
                    resumed.best().reward
                ),
            });
        }
        println!(
            "resume OK: {} replayed search_iter lines byte-identical, outcomes equal",
            resumed_lines.len()
        );
        std::fs::remove_dir_all(&dir)?;
    }
    yoso_pool::set_num_threads(0);
    println!("resume smoke PASSED");
    Ok(())
}
