//! **Figure 4**: comparison of machine-learning regression models for
//! hardware performance prediction. The paper trains six models on 3000
//! simulator samples, tests on 600, and selects the Gaussian process for
//! its lowest MSE.
//!
//! Usage: `cargo run --release -p yoso-bench --bin fig4_regressors --
//! [flags]`, with the flags of [`yoso_bench::usage::FIG4_REGRESSORS`].
//!
//! `--paper` uses the paper's exact sample counts (3000 / 600).
//! `--threads 0` (default) uses all cores; sampling is deterministic and
//! the output CSVs are byte-identical at any thread count.

use std::time::Instant;
use yoso_accel::Simulator;
use yoso_arch::NetworkSkeleton;
use yoso_bench::{run_main, usage, write_csv, Args, Table};
use yoso_core::error::Error;
use yoso_predictor::metrics::{mae, mse, r2};
use yoso_predictor::perf::collect_samples;
use yoso_predictor::regressors::svr::LinearSvr;
use yoso_predictor::{design_features, fig4_models, Regressor, ScalarStandardizer};

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let args = Args::parse(usage::FIG4_REGRESSORS);
    let (n_train, n_test) = if args.present("--paper") {
        (3000, 600)
    } else {
        (args.usize("--train", 1000), args.usize("--test", 300))
    };
    let seed = args.u64("--seed", 0);
    println!("worker pool: {} threads", args.configure_threads());
    let trace = args.configure_trace();
    args.configure_chaos();
    let skeleton = NetworkSkeleton::paper_default();
    let sim = Simulator::exact();

    println!("collecting {n_train} train + {n_test} test samples from the exact simulator ...");
    let t0 = Instant::now();
    let train = collect_samples(&skeleton, &sim, n_train, seed);
    let test = collect_samples(&skeleton, &sim, n_test, seed ^ 1);
    println!("  done in {:.2?}", t0.elapsed());

    let xf = |s: &yoso_predictor::PerfSample| design_features(&s.point, &skeleton);
    let x_train: Vec<Vec<f64>> = train.iter().map(xf).collect();
    let x_test: Vec<Vec<f64>> = test.iter().map(xf).collect();

    for (target, pick) in [
        (
            "energy",
            Box::new(|s: &yoso_predictor::PerfSample| s.energy_mj) as Box<dyn Fn(_) -> f64>,
        ),
        (
            "latency",
            Box::new(|s: &yoso_predictor::PerfSample| s.latency_ms),
        ),
    ] {
        let y_train: Vec<f64> = train.iter().map(&pick).collect();
        let y_test: Vec<f64> = test.iter().map(pick).collect();
        // Standardize targets so MSE is comparable across targets (the
        // paper's Fig. 4 plots MSE in arbitrary units).
        let std = ScalarStandardizer::fit(&y_train);
        let yz_train: Vec<f64> = y_train.iter().map(|&v| std.transform(v)).collect();
        let yz_test: Vec<f64> = y_test.iter().map(|&v| std.transform(v)).collect();

        let mut models: Vec<Box<dyn Regressor + Send>> = fig4_models(seed);
        models.push(Box::new(LinearSvr::new(0.05, 5.0)));
        let mut table = Table::new(&["model", "mse", "mae", "r2", "fit_time"]);
        let mut csv_rows = Vec::new();
        let mut results: Vec<(String, f64)> = Vec::new();
        for model in &mut models {
            let tf = Instant::now();
            model.fit(&x_train, &yz_train)?;
            let fit_time = tf.elapsed();
            let preds = model.predict(&x_test);
            let m = mse(&preds, &yz_test);
            table.row(vec![
                model.name().to_string(),
                format!("{m:.5}"),
                format!("{:.5}", mae(&preds, &yz_test)),
                format!("{:.4}", r2(&preds, &yz_test)),
                format!("{fit_time:.2?}"),
            ]);
            csv_rows.push(vec![
                target.to_string(),
                model.name().to_string(),
                format!("{m}"),
                format!("{}", mae(&preds, &yz_test)),
                format!("{}", r2(&preds, &yz_test)),
            ]);
            results.push((model.name().to_string(), m));
        }
        println!("\n=== Fig. 4 ({target} prediction, standardized-target MSE) ===");
        println!("{table}");
        let best = results
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("models present");
        println!(
            "lowest MSE: {} ({:.5}) — paper selects GaussianProcess",
            best.0, best.1
        );
        let path = write_csv(
            &format!("fig4_{target}.csv"),
            &["target", "model", "mse", "mae", "r2"],
            &csv_rows,
        );
        println!("written {}", path.display());
    }
    println!("{}", yoso_accel::cache::stats());
    yoso_bench::finish_trace(&trace);
    Ok(())
}
