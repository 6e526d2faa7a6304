//! Fidelity and plumbing of the int8 candidate-scoring path: the search
//! only needs quantized scoring to *rank* candidates the way f32 does,
//! so the headline contract is rank correlation, not absolute accuracy.
//! The remaining tests pin the `ScoringPrecision` plumbing through the
//! evaluator trait and a full `SearchSession` run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoso::arch::{Genotype, NetworkSkeleton};
use yoso::core::evaluation::{calibrate_constraints, FastEvaluator, ScoringPrecision};
use yoso::core::reward::RewardConfig;
use yoso::core::search::SearchConfig;
use yoso::core::session::{SearchSession, Strategy};
use yoso::core::Evaluator;
use yoso::dataset::{SynthCifar, SynthCifarConfig};
use yoso::hypernet::{HyperNet, HyperTrainConfig};
use yoso::prelude::Trace;

/// Average ranks (1-based), ties sharing the mean of their positions.
fn average_ranks(v: &[f64]) -> Vec<f64> {
    let n = v.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap());
    let mut ranks = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &ix in &idx[i..=j] {
            ranks[ix] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation with average-rank tie handling.
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let (ra, rb) = (average_ranks(a), average_ranks(b));
    let n = ra.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va.sqrt() * vb.sqrt()).max(1e-12)
}

/// Int8 scoring ranks candidates like f32 scoring: Spearman rho >= 0.95
/// across 64 random genotypes on a briefly trained tiny HyperNet.
#[test]
fn int8_scoring_preserves_f32_ranking() {
    let sk = NetworkSkeleton::tiny();
    let mut cfg = SynthCifarConfig::tiny();
    cfg.val_count = 256; // finer accuracy resolution for rank comparison
    let data = SynthCifar::generate(&cfg);
    let mut hyper = HyperNet::new(sk, 0);
    let tcfg = HyperTrainConfig {
        epochs: 1,
        batch_size: 32,
        augment: false,
        ..Default::default()
    };
    hyper.train(&data, &tcfg);

    let mut rng = StdRng::seed_from_u64(42);
    let genos: Vec<Genotype> = (0..64).map(|_| Genotype::random(&mut rng)).collect();
    let f32_scores: Vec<f64> = genos
        .iter()
        .map(|g| hyper.evaluate_genotype(g, &data.val, 128, ScoringPrecision::F32))
        .collect();
    let int8_scores: Vec<f64> = genos
        .iter()
        .map(|g| hyper.evaluate_genotype(g, &data.val, 128, ScoringPrecision::Int8))
        .collect();

    let rho = spearman(&f32_scores, &int8_scores);
    assert!(
        rho >= 0.95,
        "int8 scoring must preserve the f32 ranking: spearman rho {rho:.3} < 0.95"
    );
    // Absolute agreement should also be close: mean |diff| within a few
    // validation examples' worth of accuracy.
    let mean_abs: f64 = f32_scores
        .iter()
        .zip(&int8_scores)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / genos.len() as f64;
    assert!(
        mean_abs <= 0.05,
        "mean |f32 - int8| accuracy gap {mean_abs:.4} too large"
    );
}

/// `ScoringPrecision` plumbs through the `Evaluator` trait: switching
/// precision changes the evaluator's name (so checkpoints can't silently
/// resume across precisions), both precisions produce finite in-range
/// accuracies for the same design point, and the setting round-trips.
#[test]
fn evaluator_precision_plumbing() {
    let sk = NetworkSkeleton::tiny();
    let data = SynthCifar::generate(&SynthCifarConfig::tiny());
    let hyper_cfg = HyperTrainConfig {
        epochs: 1,
        batch_size: 32,
        augment: false,
        ..Default::default()
    };
    let ev = FastEvaluator::build(&sk, &data, &hyper_cfg, 120, 0).unwrap();

    assert_eq!(ev.scoring_precision(), ScoringPrecision::F32);
    let mut rng = StdRng::seed_from_u64(3);
    let point = yoso::arch::DesignPoint::random(&mut rng);

    let f32_eval = ev.evaluate(&point).unwrap();
    let f32_name = ev.name();

    ev.set_scoring_precision(ScoringPrecision::Int8);
    assert_eq!(ev.scoring_precision(), ScoringPrecision::Int8);
    let int8_eval = ev.evaluate(&point).unwrap();
    let int8_name = ev.name();

    assert_ne!(
        f32_name, int8_name,
        "precision must be part of the evaluator identity"
    );
    for (tag, e) in [("f32", &f32_eval), ("int8", &int8_eval)] {
        assert!(
            (0.0..=1.0).contains(&e.accuracy),
            "{tag} accuracy {} out of range",
            e.accuracy
        );
    }
    // Hardware-side metrics don't depend on scoring precision.
    assert_eq!(f32_eval.latency_ms, int8_eval.latency_ms);
    assert_eq!(f32_eval.energy_mj, int8_eval.energy_mj);

    ev.set_scoring_precision(ScoringPrecision::F32);
    assert_eq!(ev.scoring_precision(), ScoringPrecision::F32);
}

/// A full search session runs end to end with int8 scoring opted in via
/// the builder, and records the precision in its `search_start` event.
#[test]
fn session_runs_with_int8_scoring() {
    let sk = NetworkSkeleton::tiny();
    let data = SynthCifar::generate(&SynthCifarConfig::tiny());
    let hyper_cfg = HyperTrainConfig {
        epochs: 1,
        batch_size: 32,
        augment: false,
        ..Default::default()
    };
    let ev = FastEvaluator::build(&sk, &data, &hyper_cfg, 120, 0).unwrap();
    let cons = calibrate_constraints(&sk, 50, 0, 50.0);
    let cfg = SearchConfig::builder()
        .iterations(4)
        .rollouts_per_update(2)
        .seed(11)
        .build();
    let trace = Trace::memory();
    let outcome = SearchSession::builder()
        .evaluator(&ev)
        .reward(RewardConfig::balanced(cons))
        .config(cfg)
        .strategy(Strategy::Random)
        .scoring_precision(ScoringPrecision::Int8)
        .trace(trace.clone())
        .run()
        .unwrap();
    assert!(
        outcome.best().reward.is_finite(),
        "int8 session found no finite-reward candidate"
    );
    let start_line = trace
        .lines()
        .into_iter()
        .find(|l| l.contains("\"search_start\""))
        .expect("missing search_start event");
    assert!(
        start_line.contains("\"scoring\":\"int8\"") || start_line.contains("\"scoring\": \"int8\""),
        "search_start must record the scoring precision: {start_line}"
    );
}
