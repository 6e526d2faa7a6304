//! **Figure 5**: effectiveness of the HyperNet accuracy evaluator.
//!
//! * Part (a): HyperNet training curve — per epoch, the validation
//!   accuracy of one randomly sampled sub-model with inherited weights.
//! * Part (b): correlation between inherited-weight accuracy and
//!   fully-trained accuracy over random sub-models (paper: 130 models;
//!   scaled down by default).
//!
//! Usage: `cargo run --release -p yoso-bench --bin fig5_hypernet --
//! [flags]`, with the flags of [`yoso_bench::usage::FIG5_HYPERNET`].
//!
//! `--noise` overrides the dataset difficulty: harder datasets spread the
//! fully-trained accuracies of different architectures apart, which is
//! what part (b)'s ranking correlation needs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use yoso_arch::{Genotype, NetworkSkeleton};
use yoso_bench::{run_main, usage, write_csv, Args, Table};
use yoso_core::error::Error;
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::{HyperNet, HyperTrainConfig};
use yoso_nn::{CellNetwork, TrainConfig};
use yoso_predictor::metrics::{kendall_tau, pearson, spearman};

fn scale(args: &Args) -> (NetworkSkeleton, SynthCifarConfig) {
    match args.value("--scale").as_deref() {
        Some("tiny") => (NetworkSkeleton::tiny(), SynthCifarConfig::tiny()),
        Some("paper") => (
            NetworkSkeleton::paper_default(),
            SynthCifarConfig::default_scale(),
        ),
        _ => (NetworkSkeleton::small(), SynthCifarConfig::small()),
    }
}

fn main() {
    run_main(real_main);
}

fn real_main() -> Result<(), Error> {
    let args = Args::parse(usage::FIG5_HYPERNET);
    let part = args.value("--part").unwrap_or_else(|| "both".into());
    let seed = args.u64("--seed", 0);
    let trace = args.configure_trace();
    args.configure_chaos();
    let (skeleton, mut data_cfg) = scale(&args);
    if let Some(n) = args.value("--noise").and_then(|v| v.parse::<f32>().ok()) {
        data_cfg.noise = n;
    }
    if let Some(n) = args
        .value("--label-noise")
        .and_then(|v| v.parse::<f64>().ok())
    {
        data_cfg.label_noise = n;
    }
    let data = SynthCifar::generate(&data_cfg);

    let epochs = args.usize("--epochs", 10);
    println!(
        "HyperNet on {}x{} images, {} cells, {} train examples",
        data_cfg.image_hw, data_cfg.image_hw, skeleton.num_cells, data_cfg.train_count
    );
    let mut hyper = HyperNet::new(skeleton.clone(), seed);
    println!("shared parameters: {}", hyper.param_count());
    let cfg = HyperTrainConfig {
        epochs,
        batch_size: 32,
        seed,
        ..Default::default()
    };
    let t0 = Instant::now();
    let history = hyper.train(&data, &cfg);
    println!("trained {epochs} epochs in {:.1?}", t0.elapsed());

    if part == "a" || part == "both" {
        println!("\n=== Fig. 5(a): HyperNet training process ===");
        let mut table = Table::new(&["epoch", "train_loss", "sampled_submodel_val_acc"]);
        let mut rows = Vec::new();
        for h in &history {
            table.row(vec![
                h.epoch.to_string(),
                format!("{:.4}", h.train_loss),
                format!("{:.4}", h.sampled_val_acc),
            ]);
            rows.push(vec![
                h.epoch.to_string(),
                h.train_loss.to_string(),
                h.sampled_val_acc.to_string(),
            ]);
        }
        println!("{table}");
        let p = write_csv(
            "fig5a_training.csv",
            &["epoch", "train_loss", "sampled_val_acc"],
            &rows,
        );
        println!("written {}", p.display());
    }

    if part == "b" || part == "both" {
        let n_models = args.usize("--models", 16);
        let full_epochs = args.usize("--full-epochs", 6);
        println!(
            "\n=== Fig. 5(b): inherited vs fully-trained accuracy ({n_models} random sub-models, {full_epochs} standalone epochs) ==="
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
        let mut inherited = Vec::with_capacity(n_models);
        let mut full = Vec::with_capacity(n_models);
        let mut rows = Vec::new();
        for i in 0..n_models {
            let genotype = Genotype::random(&mut rng);
            let acc_inherit = hyper.evaluate_genotype(&genotype, &data.val, 64);
            let plan = skeleton.compile(&genotype);
            let mut net = CellNetwork::new(plan, seed + i as u64);
            let train_cfg = TrainConfig {
                epochs: full_epochs,
                batch_size: 32,
                seed: seed + i as u64,
                ..Default::default()
            };
            let hist = net.train(&data, &train_cfg);
            println!(
                "  model {i:>3}: inherited {:.3}  fully-trained {:.3}",
                acc_inherit, hist.final_val_acc
            );
            rows.push(vec![
                i.to_string(),
                acc_inherit.to_string(),
                hist.final_val_acc.to_string(),
            ]);
            inherited.push(acc_inherit);
            full.push(hist.final_val_acc);
        }
        println!(
            "\ncorrelation (inherited vs fully-trained): pearson {:.3}, spearman {:.3}, kendall-tau {:.3}",
            pearson(&inherited, &full),
            spearman(&inherited, &full),
            kendall_tau(&inherited, &full)
        );
        println!("(the paper reports that inherited accuracy correlates with stand-alone accuracy, Fig. 5(b))");
        let p = write_csv(
            "fig5b_correlation.csv",
            &["model", "inherited_acc", "full_acc"],
            &rows,
        );
        println!("written {}", p.display());
    }
    yoso_bench::finish_trace(&trace);
    Ok(())
}
