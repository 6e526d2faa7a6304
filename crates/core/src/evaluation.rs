//! Candidate evaluation: the fast evaluator (HyperNet + GP predictors,
//! paper step 1/2) and the accurate evaluator (full training + exact
//! simulation, paper step 3), plus a cheap deterministic surrogate for
//! large-scale search-behaviour experiments and tests.

use crate::error::Error;
use crate::reward::Constraints;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use yoso_accel::Simulator;
use yoso_arch::{DesignPoint, Genotype, NetworkPlan, NetworkSkeleton};
use yoso_dataset::SynthCifar;
use yoso_hypernet::{HyperNet, HyperTrainConfig};
use yoso_nn::{CellNetwork, TrainConfig};
// The benchmark runner names the predictor's one GP family through here.
pub use yoso_predictor::perf::SurrogateKind;
use yoso_predictor::perf::{collect_samples, PerfPredictor};

/// Numeric precision an evaluator scores accuracy at.
///
/// Every evaluator here scores at [`F32`](ScoringPrecision::F32), so a
/// request for [`Int8`](ScoringPrecision::Int8) is refused: an
/// `InvalidConfig` error at session build, `invalid_spec` at daemon
/// submit. `Int8` stays a name so that wire frames and job specs that
/// carry it decode and are refused, not misread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScoringPrecision {
    /// Full-precision f32 forward (default).
    #[default]
    F32,
    /// Int8 scoring; no evaluator implements it.
    Int8,
}

impl ScoringPrecision {
    /// Stable lowercase name used in trace events, wire frames and flags.
    pub fn name(&self) -> &'static str {
        match self {
            ScoringPrecision::F32 => "f32",
            ScoringPrecision::Int8 => "int8",
        }
    }

    /// Parses a [`ScoringPrecision::name`] back into a precision.
    pub fn from_name(s: &str) -> Option<ScoringPrecision> {
        match s {
            "f32" => Some(ScoringPrecision::F32),
            "int8" => Some(ScoringPrecision::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for ScoringPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The three metrics the reward combines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Validation accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Latency in ms.
    pub latency_ms: f64,
    /// Energy in mJ.
    pub energy_mj: f64,
}

/// Scores a design point. Implementations must be deterministic for a
/// given point so that search histories are reproducible.
pub trait Evaluator: Send + Sync {
    /// Evaluates one candidate.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the implementation cannot score the point
    /// (the built-in evaluators are infallible once constructed, but
    /// implementations backed by external processes or files may fail).
    fn evaluate(&self, point: &DesignPoint) -> Result<Evaluation, Error>;

    /// Evaluates a batch of candidates.
    ///
    /// Must return exactly what per-point [`evaluate`](Self::evaluate)
    /// would — implementations override this only to score the batch
    /// more cheaply (e.g. one batched GP pass), never to change values.
    ///
    /// # Errors
    ///
    /// Returns the first per-point [`Error`], if any.
    fn evaluate_batch(&self, points: &[DesignPoint]) -> Result<Vec<Evaluation>, Error> {
        points.iter().map(|p| self.evaluate(p)).collect()
    }

    /// Short name for logs; checkpoint resume compares it to detect an
    /// evaluator mismatch.
    fn name(&self) -> &'static str;

    /// Requests a scoring precision for subsequent accuracy queries.
    ///
    /// Default: ignored — every evaluator here scores at f32 only, so a
    /// session built with another precision
    /// ([`SearchSessionBuilder::scoring_precision`]) is rejected because
    /// [`scoring_precision`](Self::scoring_precision) does not change.
    ///
    /// [`SearchSessionBuilder::scoring_precision`]: crate::session::SearchSessionBuilder::scoring_precision
    fn set_scoring_precision(&self, _precision: ScoringPrecision) {}

    /// The precision accuracy queries currently run at.
    fn scoring_precision(&self) -> ScoringPrecision {
        ScoringPrecision::F32
    }

    /// Queries answered through a degraded-mode fallback (e.g. the
    /// memoized simulator standing in for a non-finite GP prediction)
    /// since construction. The session loop charges the per-run delta
    /// against its fault budget and reports it in the end-of-run
    /// subsystem summary. Default: the evaluator never degrades.
    fn degraded_queries(&self) -> u64 {
        0
    }
}

/// Calibrates thresholds from the distribution of random designs: the
/// given percentile (0..=100) of latency and energy over `n` samples.
///
/// The paper's absolute thresholds (1.2 ms / 9 mJ) are tied to its
/// CIFAR-scale workload; at our CPU scale the equivalent "moderately
/// demanding" constraint is a percentile of the random-design population.
pub fn calibrate_constraints(
    skeleton: &NetworkSkeleton,
    n: usize,
    seed: u64,
    percentile: f64,
) -> Constraints {
    let sim = Simulator::fast();
    let samples = collect_samples(skeleton, &sim, n, seed);
    let mut lats: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let mut eers: Vec<f64> = samples.iter().map(|s| s.energy_mj).collect();
    lats.sort_by(|a, b| a.total_cmp(b));
    eers.sort_by(|a, b| a.total_cmp(b));
    let idx = ((percentile / 100.0) * (n.saturating_sub(1)) as f64).round() as usize;
    Constraints {
        t_lat_ms: lats[idx.min(n - 1)],
        t_eer_mj: eers[idx.min(n - 1)],
    }
}

/// Cached compiled-network summary: statistics + cell output arities.
type StatsEntry = (yoso_arch::NetworkStats, (usize, usize));

/// One validation batch's share of an accuracy: the batch's correct
/// fraction and its size.
type BatchScore = (f64, usize);

/// The example-weighted mean of per-batch accuracies, summed in batch
/// order. The one accuracy formula of [`FastEvaluator`]: per-point
/// queries and the batched fan-out both end here, so they agree bit for
/// bit.
fn fold_batches(scores: impl Iterator<Item = BatchScore>) -> f64 {
    let mut correct = 0.0;
    let mut total = 0usize;
    for (acc, len) in scores {
        correct += acc * len as f64;
        total += len;
    }
    correct / total.max(1) as f64
}

/// Counts one [`FastEvaluator`] accuracy query into the
/// `eval.accuracy.cache_hits` or `eval.accuracy.cache_misses` counter
/// of traced runs.
fn count_accuracy_query(hit: bool) {
    if yoso_trace::enabled() {
        yoso_trace::counter_add(
            if hit {
                "eval.accuracy.cache_hits"
            } else {
                "eval.accuracy.cache_misses"
            },
            1,
        );
    }
}

/// What one pool item of [`FastEvaluator`]'s batched scoring returns.
enum BatchItem {
    /// The point's accuracy was already cached; nothing was scored.
    Cached(f64),
    /// The point's score on one validation batch.
    Scored(BatchScore),
}

impl BatchItem {
    fn score(&self) -> BatchScore {
        match self {
            BatchItem::Scored(s) => *s,
            // The cache is only written between maps, so a point's items
            // are either all cached or all scored.
            BatchItem::Cached(_) => unreachable!("cached and scored items of one point"),
        }
    }
}

/// The paper's fast evaluator: accuracy from the trained HyperNet
/// (weight inheritance, single test run) and latency/energy from the
/// Gaussian-process predictors.
pub struct FastEvaluator {
    hyper: HyperNet,
    predictor: PerfPredictor,
    data: SynthCifar,
    /// Validation examples used per accuracy query (caps cost).
    pub eval_subset: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    acc_cache: RwLock<HashMap<Genotype, f64>>,
    stats_cache: RwLock<HashMap<Genotype, StatsEntry>>,
    /// Graceful-degradation substrate: when a GP prediction comes back
    /// non-finite, the query falls back to this memoized fast simulator.
    fallback_sim: Simulator,
    degraded: AtomicU64,
}

impl FastEvaluator {
    /// Assembles a fast evaluator from already-built parts.
    pub fn from_parts(hyper: HyperNet, predictor: PerfPredictor, data: SynthCifar) -> Self {
        FastEvaluator {
            hyper,
            predictor,
            data,
            eval_subset: 256,
            eval_batch: 128,
            acc_cache: RwLock::new(HashMap::new()),
            stats_cache: RwLock::new(HashMap::new()),
            fallback_sim: Simulator::fast(),
            degraded: AtomicU64::new(0),
        }
    }

    /// Paper step 1 — "fast evaluator construction": trains the HyperNet
    /// with uniform sampling and fits the GP predictors on simulator
    /// samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Fit`] when the performance-predictor fit fails
    /// (e.g. `predictor_samples == 0`).
    pub fn build(
        skeleton: &NetworkSkeleton,
        data: &SynthCifar,
        hyper_cfg: &HyperTrainConfig,
        predictor_samples: usize,
        seed: u64,
    ) -> Result<Self, Error> {
        let mut hyper = HyperNet::new(skeleton.clone(), seed);
        hyper.train(data, hyper_cfg);
        let sim = Simulator::exact();
        let samples = collect_samples(skeleton, &sim, predictor_samples, seed ^ 0x5a5a);
        let predictor = PerfPredictor::train(skeleton, &samples)?;
        Ok(Self::from_parts(hyper, predictor, data.clone()))
    }

    /// The wrapped HyperNet.
    pub fn hypernet(&self) -> &HyperNet {
        &self.hyper
    }

    /// The wrapped performance predictor.
    pub fn predictor(&self) -> &PerfPredictor {
        &self.predictor
    }

    fn cached_accuracy(&self, genotype: &Genotype) -> Option<f64> {
        self.acc_cache.read().get(genotype).copied()
    }

    /// Per-point accuracy query: the cached value, or the fold of every
    /// validation batch's [`score_batch`](Self::score_batch), scored
    /// serially on the calling thread.
    fn accuracy_of(&self, genotype: &Genotype) -> f64 {
        if let Some(a) = self.cached_accuracy(genotype) {
            count_accuracy_query(true);
            return a;
        }
        count_accuracy_query(false);
        let acc = fold_batches((0..self.val_batches()).map(|b| self.score_batch(genotype, b)));
        self.acc_cache.write().insert(*genotype, acc);
        acc
    }

    /// Size of the deterministic validation subset every accuracy query
    /// scores: the first `eval_subset` examples.
    fn subset_len(&self) -> usize {
        self.data.val.len().min(self.eval_subset.max(1))
    }

    /// Number of `eval_batch`-sized batches the subset splits into.
    fn val_batches(&self) -> usize {
        self.subset_len().div_ceil(self.eval_batch.max(1))
    }

    /// Scores `genotype` on validation batch `b` of the subset with its
    /// inherited weights, on the tape-free
    /// [`infer_network`](yoso_nn::infer_network) walk. Traced runs time
    /// each walk into the `eval.accuracy.f32` span.
    fn score_batch(&self, genotype: &Genotype, b: usize) -> BatchScore {
        let bs = self.eval_batch.max(1);
        let idx: Vec<usize> = (b * bs..((b + 1) * bs).min(self.subset_len())).collect();
        let (images, labels) = self.data.val.batch(&idx);
        let plan = self.hyper.skeleton().compile(genotype);
        let provider = self.hyper.provider(&plan);
        let store = self.hyper.store();
        let _span = yoso_trace::span("eval.accuracy.f32");
        let logits = yoso_nn::infer_network(&plan, store, &provider, &images);
        (yoso_tensor::accuracy(&logits, &labels), labels.len())
    }

    /// Compiled network statistics + cell output arities, cached per
    /// genotype so hardware sweeps recompile nothing.
    fn stats_arities_of(&self, point: &DesignPoint) -> StatsEntry {
        if let Some(&v) = self.stats_cache.read().get(&point.genotype) {
            return v;
        }
        let plan = self.hyper.skeleton().compile(&point.genotype);
        let v = (
            plan.stats,
            (
                point.genotype.normal.output_arity(),
                point.genotype.reduction.output_arity(),
            ),
        );
        self.stats_cache.write().insert(point.genotype, v);
        v
    }

    /// Per-query degraded-mode fallback: a non-finite GP prediction
    /// (poisoned kernel state, chaos injection) is replaced by a run of
    /// the memoized cycle-level simulator. Costs a plan compile + one
    /// cached simulation instead of a GP dot product, but keeps the
    /// search loop supplied with finite metrics.
    fn degraded_perf(&self, point: &DesignPoint) -> (f64, f64) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
        if yoso_trace::enabled() {
            yoso_trace::counter_add("evaluator.degraded_queries", 1);
        }
        let plan = self.hyper.skeleton().compile(&point.genotype);
        let rep = self.fallback_sim.simulate_plan(&plan, &point.hw);
        (rep.latency_ms, rep.energy_mj)
    }
}

impl Evaluator for FastEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Result<Evaluation, Error> {
        let accuracy = self.accuracy_of(&point.genotype);
        let (stats, arities) = self.stats_arities_of(point);
        let (mut latency_ms, mut energy_mj) = self
            .predictor
            .predict_from_stats(&stats, &point.hw, arities);
        if !latency_ms.is_finite() || !energy_mj.is_finite() {
            (latency_ms, energy_mj) = self.degraded_perf(point);
        }
        Ok(Evaluation {
            accuracy,
            latency_ms,
            energy_mj,
        })
    }

    /// Batched scoring. The HyperNet accuracy pass fans out over the
    /// supervised worker pool as one map with one item per (point,
    /// validation batch), so even a one-point batch keeps every core
    /// busy. Item `(j, b)` returns point `j`'s cached accuracy if there
    /// is one, else its score on validation batch `b`; each point's
    /// items are then folded in batch order with the same arithmetic as
    /// per-point [`evaluate`](Evaluator::evaluate), which fills the
    /// cache. Cached points stay in the map, so chaos draws keyed on
    /// item indices see the same items whatever the cache holds. The map
    /// is issued from the calling thread and no item starts another.
    /// Both GPs then score the whole batch in one cross-kernel pass each
    /// via [`PerfPredictor::predict_batch_from_features`]. Bit-identical
    /// to per-point `evaluate` at any thread count.
    fn evaluate_batch(&self, points: &[DesignPoint]) -> Result<Vec<Evaluation>, Error> {
        let nb = self.val_batches();
        let items = yoso_pool::parallel_map(points.len() * nb, 0, |k| {
            let genotype = &points[k / nb].genotype;
            match self.cached_accuracy(genotype) {
                Some(acc) => BatchItem::Cached(acc),
                None => BatchItem::Scored(self.score_batch(genotype, k % nb)),
            }
        });
        let accs: Vec<f64> = points
            .iter()
            .enumerate()
            .map(|(j, p)| match &items[j * nb..(j + 1) * nb] {
                [BatchItem::Cached(acc), ..] => {
                    count_accuracy_query(true);
                    *acc
                }
                scored => {
                    count_accuracy_query(false);
                    let acc = fold_batches(scored.iter().map(BatchItem::score));
                    self.acc_cache.write().insert(p.genotype, acc);
                    acc
                }
            })
            .collect();
        let xs: Vec<Vec<f64>> = points
            .iter()
            .map(|p| {
                let (stats, arities) = self.stats_arities_of(p);
                yoso_predictor::stats_features(&stats, &p.hw, arities)
            })
            .collect();
        let perf = self.predictor.predict_batch_from_features(&xs);
        Ok(accs
            .into_iter()
            .zip(perf)
            .zip(points)
            .map(|((accuracy, (mut latency_ms, mut energy_mj)), point)| {
                if !latency_ms.is_finite() || !energy_mj.is_finite() {
                    (latency_ms, energy_mj) = self.degraded_perf(point);
                }
                Evaluation {
                    accuracy,
                    latency_ms,
                    energy_mj,
                }
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "fast(hypernet+gp)"
    }

    fn degraded_queries(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// The accurate evaluator used for final top-N reranking: fully trains
/// the candidate network and runs the exact simulator.
pub struct AccurateEvaluator {
    /// Skeleton for compilation.
    pub skeleton: NetworkSkeleton,
    /// Dataset for training/validation.
    pub data: SynthCifar,
    /// Full-training recipe.
    pub train_cfg: TrainConfig,
    /// Exact simulator.
    pub sim: Simulator,
}

impl AccurateEvaluator {
    /// Creates the accurate evaluator.
    pub fn new(skeleton: NetworkSkeleton, data: SynthCifar, train_cfg: TrainConfig) -> Self {
        AccurateEvaluator {
            skeleton,
            data,
            train_cfg,
            sim: Simulator::exact(),
        }
    }
}

impl Evaluator for AccurateEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Result<Evaluation, Error> {
        let plan = self.skeleton.compile(&point.genotype);
        let mut net = CellNetwork::new(plan.clone(), self.train_cfg.seed);
        let hist = net.train(&self.data, &self.train_cfg);
        let rep = self.sim.simulate_plan(&plan, &point.hw);
        Ok(Evaluation {
            accuracy: hist.final_val_acc,
            latency_ms: rep.latency_ms,
            energy_mj: rep.energy_mj,
        })
    }

    fn name(&self) -> &'static str {
        "accurate(train+sim)"
    }
}

/// Deterministic analytic evaluator: accuracy is a saturating function of
/// network capacity (plus op-mix terms and a small per-genotype jitter),
/// latency/energy come from the fast simulator. Used for large-iteration
/// search-behaviour experiments and unit tests, where per-candidate
/// HyperNet inference would dominate runtime.
pub struct SurrogateEvaluator {
    /// Skeleton for compilation.
    pub skeleton: NetworkSkeleton,
    sim: Simulator,
}

impl SurrogateEvaluator {
    /// Creates the surrogate for a skeleton.
    pub fn new(skeleton: NetworkSkeleton) -> Self {
        SurrogateEvaluator {
            skeleton,
            sim: Simulator::fast(),
        }
    }

    /// The accuracy model, exposed for tests.
    pub fn surrogate_accuracy(&self, point: &DesignPoint) -> f64 {
        plan_accuracy(&self.skeleton.compile(&point.genotype))
    }
}

/// [`SurrogateEvaluator::surrogate_accuracy`] of a compiled plan, so
/// `evaluate` compiles each genotype once.
fn plan_accuracy(plan: &NetworkPlan) -> f64 {
    let stats = plan.stats;
    let macs = stats.total_macs as f64;
    let size_term = 1.0 - (-macs / 25.0e6).exp();
    let total = stats.total_macs.max(1) as f64;
    let conv_frac = stats.conv_macs as f64 / total;
    let dw_frac = stats.dw_macs as f64 / total;
    // Small deterministic jitter so equal-capacity genotypes differ.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    use std::hash::{Hash, Hasher};
    plan.genotype.hash(&mut h);
    let jitter = ((h.finish() % 1000) as f64 / 1000.0 - 0.5) * 0.02;
    (0.38 + 0.5 * size_term + 0.05 * conv_frac + 0.03 * dw_frac + jitter).clamp(0.1, 0.97)
}

impl Evaluator for SurrogateEvaluator {
    fn evaluate(&self, point: &DesignPoint) -> Result<Evaluation, Error> {
        let plan = self.skeleton.compile(&point.genotype);
        let rep = self.sim.simulate_plan(&plan, &point.hw);
        Ok(Evaluation {
            accuracy: plan_accuracy(&plan),
            latency_ms: rep.latency_ms,
            energy_mj: rep.energy_mj,
        })
    }

    fn name(&self) -> &'static str {
        "surrogate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn surrogate_is_deterministic_and_bounded() {
        let ev = SurrogateEvaluator::new(NetworkSkeleton::tiny());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let p = DesignPoint::random(&mut rng);
            let a = ev.evaluate(&p).unwrap();
            let b = ev.evaluate(&p).unwrap();
            assert_eq!(a, b);
            assert!((0.1..=0.97).contains(&a.accuracy));
            assert!(a.latency_ms > 0.0 && a.energy_mj > 0.0);
        }
    }

    #[test]
    fn surrogate_prefers_bigger_networks() {
        // A conv5x5-heavy genotype has far more MACs than a pool-only one.
        use yoso_arch::{CellGenotype, NodeGene, Op};
        let heavy_gene = NodeGene {
            in1: 0,
            op1: Op::Conv5,
            in2: 1,
            op2: Op::Conv5,
        };
        let light_gene = NodeGene {
            in1: 0,
            op1: Op::MaxPool,
            in2: 1,
            op2: Op::AvgPool,
        };
        let cell = |g: NodeGene| CellGenotype { nodes: [g; 5] };
        let mut rng = StdRng::seed_from_u64(1);
        let hw = yoso_arch::HwConfig::random(&mut rng);
        let ev = SurrogateEvaluator::new(NetworkSkeleton::tiny());
        let heavy = ev
            .evaluate(&DesignPoint {
                genotype: Genotype {
                    normal: cell(heavy_gene),
                    reduction: cell(heavy_gene),
                },
                hw,
            })
            .unwrap();
        let light = ev
            .evaluate(&DesignPoint {
                genotype: Genotype {
                    normal: cell(light_gene),
                    reduction: cell(light_gene),
                },
                hw,
            })
            .unwrap();
        assert!(heavy.accuracy > light.accuracy);
        assert!(heavy.energy_mj > light.energy_mj, "capacity costs energy");
    }

    /// `evaluate` compiles each genotype once and reads the accuracy off
    /// that plan: the same bits `surrogate_accuracy` computes on its own.
    #[test]
    fn evaluate_accuracy_is_surrogate_accuracy_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        for skeleton in [NetworkSkeleton::tiny(), NetworkSkeleton::paper_default()] {
            let ev = SurrogateEvaluator::new(skeleton);
            for _ in 0..40 {
                let p = DesignPoint::random(&mut rng);
                assert_eq!(
                    ev.surrogate_accuracy(&p).to_bits(),
                    ev.evaluate(&p).unwrap().accuracy.to_bits()
                );
            }
        }
    }

    /// The batched fan-out and the serial per-point path give the same
    /// bits, each from a cold cache of its own: over three unequal
    /// validation batches, with a genotype repeated inside one batch, on
    /// a second batch that hits the warm cache, at 1 and 4 pool threads.
    /// One accuracy is also pinned against the training tape.
    #[test]
    fn fast_evaluator_batch_matches_per_point() {
        use yoso_dataset::SynthCifarConfig;
        let sk = NetworkSkeleton::tiny();
        let data = SynthCifar::generate(&SynthCifarConfig::tiny());
        // Untrained HyperNet keeps this cheap; the batch/per-point
        // equivalence being tested is independent of training.
        let hyper = HyperNet::new(sk.clone(), 0);
        let samples = collect_samples(&sk, &Simulator::fast(), 80, 11);
        let predictor = PerfPredictor::train(&sk, &samples).unwrap();
        let fresh = || {
            let mut ev = FastEvaluator::from_parts(hyper.clone(), predictor.clone(), data.clone());
            // 128 validation examples: batches of 48, 48 and 32.
            ev.eval_batch = 48;
            ev
        };
        assert_eq!(data.val.len(), 128);
        assert_eq!(fresh().val_batches(), 3);

        let mut rng = StdRng::seed_from_u64(12);
        let mut first: Vec<DesignPoint> = (0..6).map(|_| DesignPoint::random(&mut rng)).collect();
        first.push(DesignPoint {
            genotype: first[2].genotype,
            hw: yoso_arch::HwConfig::random(&mut rng),
        });
        let second = [first[0], DesignPoint::random(&mut rng), first[6]];

        for threads in [1, 4] {
            yoso_pool::set_num_threads(threads);
            let batched = fresh();
            let per_point = fresh();
            for batch in [&first[..], &second[..]] {
                let got = batched.evaluate_batch(batch).unwrap();
                assert_eq!(got.len(), batch.len());
                for (p, b) in batch.iter().zip(&got) {
                    let want = per_point.evaluate(p).unwrap();
                    assert_eq!(want.accuracy.to_bits(), b.accuracy.to_bits());
                    assert_eq!(want, *b);
                }
            }
            assert_eq!(
                got_accuracy(&batched, &first[2]),
                got_accuracy(&batched, &first[6])
            );
        }
        yoso_pool::set_num_threads(0);

        // The tape path, folded the way `subset_accuracy` always has.
        let point = first[0];
        let plan = sk.compile(&point.genotype);
        let provider = hyper.provider(&plan);
        let mut correct = 0.0;
        let mut total = 0usize;
        for range in [0..48, 48..96, 96..128] {
            let (images, labels) = data.val.batch(&range.collect::<Vec<_>>());
            let mut g = yoso_tensor::Graph::new();
            let logits = yoso_nn::forward_network(&plan, &mut g, hyper.store(), &provider, images);
            correct += yoso_tensor::accuracy(g.value(logits), &labels) * labels.len() as f64;
            total += labels.len();
        }
        let tape = correct / total as f64;
        assert_eq!(got_accuracy(&fresh(), &point), tape.to_bits());
    }

    fn got_accuracy(ev: &FastEvaluator, p: &DesignPoint) -> u64 {
        ev.evaluate(p).unwrap().accuracy.to_bits()
    }

    /// A `FastEvaluator` scores at f32 only: an int8 request changes
    /// neither its precision, its name nor its scores, which is what
    /// makes a session build or a daemon submit refuse the request.
    #[test]
    fn int8_request_leaves_fast_evaluator_at_f32() {
        use yoso_dataset::SynthCifarConfig;
        let sk = NetworkSkeleton::tiny();
        let data = SynthCifar::generate(&SynthCifarConfig::tiny());
        let hyper = HyperNet::new(sk.clone(), 3);
        let samples = collect_samples(&sk, &Simulator::fast(), 80, 7);
        let predictor = PerfPredictor::train(&sk, &samples).unwrap();
        let fresh = || FastEvaluator::from_parts(hyper.clone(), predictor.clone(), data.clone());
        let ev = fresh();

        let mut rng = StdRng::seed_from_u64(21);
        let (p, q) = (DesignPoint::random(&mut rng), DesignPoint::random(&mut rng));
        let before = ev.evaluate(&p).unwrap();

        ev.set_scoring_precision(ScoringPrecision::Int8);
        assert_eq!(ev.scoring_precision(), ScoringPrecision::F32);
        assert_eq!(ev.name(), "fast(hypernet+gp)");
        // Cached and freshly scored points alike keep their f32 scores.
        assert_eq!(ev.evaluate(&p).unwrap(), before);
        assert_eq!(ev.evaluate(&q).unwrap(), fresh().evaluate(&q).unwrap());
    }

    #[test]
    fn precision_names_round_trip() {
        for p in [ScoringPrecision::F32, ScoringPrecision::Int8] {
            assert_eq!(ScoringPrecision::from_name(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(ScoringPrecision::from_name("fp16"), None);
    }

    #[test]
    fn calibrated_constraints_are_interior() {
        let sk = NetworkSkeleton::tiny();
        let c = calibrate_constraints(&sk, 50, 0, 40.0);
        assert!(c.t_lat_ms > 0.0 && c.t_eer_mj > 0.0);
        // Roughly 40% of random designs should satisfy each threshold.
        let sim = Simulator::fast();
        let samples = collect_samples(&sk, &sim, 50, 0);
        let ok_lat = samples
            .iter()
            .filter(|s| s.latency_ms <= c.t_lat_ms)
            .count();
        assert!((10..=30).contains(&ok_lat), "{ok_lat}");
    }
}
