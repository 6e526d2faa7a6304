//! The end-to-end YOSO pipeline: the three steps of §III-B.
//!
//! 1. **Fast evaluator construction** — train the HyperNet, fit the GP
//!    predictors ([`FastEvaluator::build`]).
//! 2. **Effective design search** — RL search in the joint space
//!    (a [`SearchSession`] with [`Strategy::Rl`]).
//! 3. **Determining the final solution** — rerank the top-N candidates
//!    with full training + exact simulation and return the best
//!    ([`finalize`]).
//!
//! [`SearchSession`]: crate::session::SearchSession
//! [`Strategy::Rl`]: crate::session::Strategy::Rl

use crate::error::Error;
use crate::evaluation::{AccurateEvaluator, Evaluation, Evaluator, FastEvaluator};
use crate::reward::RewardConfig;
use crate::search::{SearchConfig, SearchOutcome, SearchRecord};
use crate::session::{SearchSession, Strategy};
use yoso_arch::DesignPoint;

/// A reranked finalist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finalist {
    /// The design point.
    pub point: DesignPoint,
    /// Its fast (search-time) evaluation.
    pub fast_eval: Evaluation,
    /// Its accurate (full-training + exact-simulation) evaluation.
    pub accurate_eval: Evaluation,
    /// Reward recomputed from the accurate evaluation.
    pub accurate_reward: f64,
}

/// Result of the full pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct YosoResult {
    /// Complete search history.
    pub outcome: SearchOutcome,
    /// Accurately reranked top-N.
    pub finalists: Vec<Finalist>,
}

impl YosoResult {
    /// The winning finalist (highest accurate reward).
    ///
    /// # Panics
    ///
    /// Panics if there are no finalists.
    pub fn best(&self) -> &Finalist {
        self.finalists
            .iter()
            .max_by(|a, b| a.accurate_reward.total_cmp(&b.accurate_reward))
            .expect("non-empty finalists")
    }
}

/// Paper step 3: accurately re-evaluates the top-N candidates and returns
/// them sorted by accurate reward (best first).
///
/// Each finalist's full training + exact simulation is independent, so
/// the rerank fans out over the worker pool.
///
/// # Errors
///
/// Propagates the first evaluator [`Error`], if any.
pub fn finalize(
    outcome: &SearchOutcome,
    top_n: usize,
    accurate: &AccurateEvaluator,
    reward_cfg: &RewardConfig,
) -> Result<Vec<Finalist>, Error> {
    let top: Vec<SearchRecord> = outcome.top_n(top_n);
    let evaluated: Vec<Result<Finalist, Error>> = yoso_pool::parallel_map(top.len(), 0, |i| {
        let rec = &top[i];
        let accurate_eval = accurate.evaluate(&rec.point)?;
        Ok(Finalist {
            point: rec.point,
            fast_eval: rec.eval,
            accurate_eval,
            accurate_reward: reward_cfg.reward(
                accurate_eval.accuracy,
                accurate_eval.latency_ms,
                accurate_eval.energy_mj,
            ),
        })
    });
    let mut finalists = evaluated.into_iter().collect::<Result<Vec<_>, _>>()?;
    finalists.sort_by(|a, b| b.accurate_reward.total_cmp(&a.accurate_reward));
    Ok(finalists)
}

/// Runs steps 2 and 3 against a prebuilt fast evaluator.
///
/// # Errors
///
/// Propagates any [`Error`] from the search or the accurate rerank.
pub fn run_search_and_finalize(
    fast: &FastEvaluator,
    accurate: &AccurateEvaluator,
    reward_cfg: &RewardConfig,
    search_cfg: &SearchConfig,
    top_n: usize,
) -> Result<YosoResult, Error> {
    let outcome = SearchSession::builder()
        .evaluator(fast)
        .reward(*reward_cfg)
        .config(search_cfg.clone())
        .strategy(Strategy::Rl)
        .run()?;
    let finalists = finalize(&outcome, top_n, accurate, reward_cfg)?;
    Ok(YosoResult { outcome, finalists })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::{calibrate_constraints, SurrogateEvaluator};
    use yoso_arch::NetworkSkeleton;
    use yoso_dataset::{SynthCifar, SynthCifarConfig};
    use yoso_nn::TrainConfig;

    #[test]
    fn finalize_sorts_by_accurate_reward() {
        let sk = NetworkSkeleton::tiny();
        let ev = SurrogateEvaluator::new(sk.clone());
        let cons = calibrate_constraints(&sk, 40, 0, 60.0);
        let rc = RewardConfig::balanced(cons);
        let outcome = SearchSession::builder()
            .evaluator(&ev)
            .reward(rc)
            .config(SearchConfig::builder().iterations(30).build())
            .strategy(Strategy::Random)
            .run()
            .unwrap();
        let data = SynthCifar::generate(&SynthCifarConfig::tiny());
        let mut train_cfg = TrainConfig::fast_test();
        train_cfg.epochs = 1;
        let accurate = AccurateEvaluator::new(sk, data, train_cfg);
        let finalists = finalize(&outcome, 3, &accurate, &rc).unwrap();
        assert_eq!(finalists.len(), 3);
        for w in finalists.windows(2) {
            assert!(w[0].accurate_reward >= w[1].accurate_reward);
        }
        // Accurate metrics are populated and positive.
        for f in &finalists {
            assert!(f.accurate_eval.latency_ms > 0.0);
            assert!(f.accurate_eval.accuracy > 0.0);
        }
        let result = YosoResult {
            outcome,
            finalists: finalists.clone(),
        };
        assert_eq!(result.best().point, finalists[0].point);
    }
}
