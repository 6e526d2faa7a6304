//! **Figure 6**: the RL search strategy.
//!
//! * Part (a): RL vs random search on the composite reward
//!   (`α1 0.5, ω1 −0.4, α2 0.5, ω2 −0.4`); every 10th sample reported.
//! * Part (b): accuracy–energy trade-off trajectory (energy-leaning
//!   constants) with Pareto front; every 20th sample.
//! * Part (c): accuracy–latency trade-off (latency-leaning constants).
//!
//! By default candidates are scored by the deterministic surrogate
//! evaluator (fast; same simulator-backed hardware metrics). Pass
//! `--fast-evaluator` to use the trained HyperNet + GP fast evaluator as
//! in the paper (slower).
//!
//! Usage: `cargo run --release -p yoso-bench --bin fig6_search --
//! [flags]`, with the flags of [`yoso_bench::usage::FIG6_SEARCH`].
//!
//! `--pareto-out` writes the last search's non-dominated archive —
//! accuracy/latency/energy plus the derived power and area proxies — to
//! the given CSV path.
//!
//! With `--trace-out` every search emits one `search_iter` JSONL event
//! per candidate plus start/summary and subsystem events; the run ends
//! with an aligned telemetry table.

use std::time::Instant;
use yoso_arch::NetworkSkeleton;
use yoso_bench::{finish_trace, run_main, usage, write_csv, Args};
use yoso_core::analysis::save_pareto_csv;
use yoso_core::error::Error;
use yoso_core::evaluation::{calibrate_constraints, Evaluator, FastEvaluator, SurrogateEvaluator};
use yoso_core::reward::RewardConfig;
use yoso_core::search::{SearchConfig, SearchOutcome};
use yoso_core::session::{SearchSession, Strategy};
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::HyperTrainConfig;

fn build_evaluator(
    args: &Args,
    skeleton: &NetworkSkeleton,
    seed: u64,
) -> Result<Box<dyn Evaluator>, Error> {
    if args.present("--fast-evaluator") {
        println!("building fast evaluator (HyperNet + GP) ...");
        let data = SynthCifar::generate(&SynthCifarConfig::small());
        let cfg = HyperTrainConfig {
            epochs: args.usize("--hyper-epochs", 6),
            batch_size: 32,
            seed,
            ..Default::default()
        };
        Ok(Box::new(FastEvaluator::build(
            skeleton, &data, &cfg, 400, seed,
        )?))
    } else {
        Ok(Box::new(SurrogateEvaluator::new(skeleton.clone())))
    }
}

fn tail_mean(outcome: &SearchOutcome, frac: usize) -> f64 {
    let k = (outcome.history.len() / frac).max(1);
    outcome.history[outcome.history.len() - k..]
        .iter()
        .map(|r| r.reward)
        .sum::<f64>()
        / k as f64
}

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let args = Args::parse(usage::FIG6_SEARCH);
    let part = args.value("--part").unwrap_or_else(|| "all".into());
    let seed = args.u64("--seed", 0);
    let iterations = args.usize("--iterations", 2000);
    let skeleton = if args.present("--fast-evaluator") {
        NetworkSkeleton::small()
    } else {
        NetworkSkeleton::paper_default()
    };
    let trace = args.configure_trace();
    args.configure_chaos();
    let evaluator = build_evaluator(&args, &skeleton, seed)?;
    let constraints = calibrate_constraints(&skeleton, 300, seed, 40.0);
    println!(
        "constraints (40th pct of random designs): t_lat {:.4} ms, t_eer {:.4} mJ",
        constraints.t_lat_ms, constraints.t_eer_mj
    );
    let search_cfg = SearchConfig {
        iterations,
        rollouts_per_update: 10,
        seed,
        ..SearchConfig::default()
    };
    // The most recent search's outcome, for `--pareto-out`.
    let mut last_outcome: Option<SearchOutcome> = None;

    if part == "a" || part == "all" {
        println!("\n=== Fig. 6(a): RL vs random search ({iterations} iterations) ===");
        let rc = RewardConfig::balanced(constraints);
        let t0 = Instant::now();
        let session = |strategy| {
            SearchSession::builder()
                .evaluator(evaluator.as_ref())
                .reward(rc)
                .config(search_cfg.clone())
                .strategy(strategy)
                .trace(trace.clone())
                .run()
        };
        let rl = session(Strategy::Rl)?;
        let rnd = session(Strategy::Random)?;
        println!("both searches done in {:.1?}", t0.elapsed());
        // Every 10th sample, as in the paper.
        let rows: Vec<Vec<String>> = rl
            .history
            .iter()
            .zip(&rnd.history)
            .step_by(10)
            .map(|(a, b)| {
                vec![
                    a.iteration.to_string(),
                    a.reward.to_string(),
                    b.reward.to_string(),
                ]
            })
            .collect();
        let p = write_csv(
            "fig6a_rl_vs_random.csv",
            &["iteration", "rl_reward", "random_reward"],
            &rows,
        );
        println!(
            "tail-quarter mean reward: RL {:.4} vs random {:.4}  (best: RL {:.4} vs random {:.4})",
            tail_mean(&rl, 4),
            tail_mean(&rnd, 4),
            rl.best().reward,
            rnd.best().reward
        );
        println!("written {}", p.display());
        last_outcome = Some(rl);
    }

    for (tag, label, rc, proj) in [
        (
            "b",
            "accuracy-energy",
            RewardConfig::energy_focused(constraints),
            true,
        ),
        (
            "c",
            "accuracy-latency",
            RewardConfig::latency_focused(constraints),
            false,
        ),
    ] {
        if part != tag && part != "all" {
            continue;
        }
        // MnasNet-style saturation: designs already inside the thresholds
        // compete on accuracy, which is what draws the trajectory toward
        // the high-accuracy end of the Pareto region (as in the paper's
        // scatter plots).
        let mut rc = rc;
        rc.saturate_below_threshold = true;
        println!("\n=== Fig. 6({tag}): trade-off between accuracy and {label} ===");
        let out = SearchSession::builder()
            .evaluator(evaluator.as_ref())
            .reward(rc)
            .config(search_cfg.clone())
            .strategy(Strategy::Rl)
            .trace(trace.clone())
            .run()?;
        // Every 20th sample, as in the paper.
        let rows: Vec<Vec<String>> = out
            .history
            .iter()
            .step_by(20)
            .map(|r| {
                vec![
                    r.iteration.to_string(),
                    r.eval.accuracy.to_string(),
                    r.eval.energy_mj.to_string(),
                    r.eval.latency_ms.to_string(),
                    r.reward.to_string(),
                ]
            })
            .collect();
        let p = write_csv(
            &format!("fig6{tag}_tradeoff.csv"),
            &["iteration", "accuracy", "energy_mj", "latency_ms", "reward"],
            &rows,
        );
        // Progress check: the mean cost metric of explored designs should
        // drop while accuracy holds, i.e. the search drifts toward the
        // Pareto region.
        let metric = |r: &yoso_core::SearchRecord| {
            if proj {
                r.eval.energy_mj
            } else {
                r.eval.latency_ms
            }
        };
        let k = out.history.len() / 4;
        let head: Vec<&yoso_core::SearchRecord> = out.history[..k].iter().collect();
        let tail: Vec<&yoso_core::SearchRecord> =
            out.history[out.history.len() - k..].iter().collect();
        let mean = |v: &[&yoso_core::SearchRecord], f: &dyn Fn(&yoso_core::SearchRecord) -> f64| {
            v.iter().map(|r| f(r)).sum::<f64>() / v.len() as f64
        };
        println!(
            "first quarter: acc {:.3}, {} {:.4} | last quarter: acc {:.3}, {} {:.4}",
            mean(&head, &|r| r.eval.accuracy),
            label,
            mean(&head, &metric),
            mean(&tail, &|r| r.eval.accuracy),
            label,
            mean(&tail, &metric),
        );
        // The session's typed non-dominated archive (3-objective) is
        // the front we persist; the figure's 2D scatter is a
        // projection of it.
        println!("pareto archive size: {} points", out.pareto().len());
        let front_path = yoso_bench::results_dir().join(format!("fig6{tag}_pareto.csv"));
        save_pareto_csv(&out, &front_path)?;
        println!("written {}", p.display());
        last_outcome = Some(out);
    }

    if let Some(path) = args.pareto_out() {
        let out = last_outcome.as_ref().ok_or_else(|| {
            Error::InvalidConfig("--pareto-out needs at least one search part to run".into())
        })?;
        save_pareto_csv(out, &path)?;
        println!(
            "pareto archive ({} entries) written to {}",
            out.pareto().len(),
            path.display()
        );
    }

    finish_trace(&trace);
    Ok(())
}
