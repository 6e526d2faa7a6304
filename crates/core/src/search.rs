//! Design-space search: configuration, history bookkeeping, top-N
//! selection and Pareto-front extraction. The search loop itself lives
//! behind [`crate::session::SearchSession`], the single entry point for
//! every strategy.

use crate::archive::{FeasibilityCaps, Objective, ParetoArchive};
use crate::evaluation::Evaluation;
use crate::reward::NonFiniteMetric;
use yoso_arch::DesignPoint;

/// Sentinel reward recorded for quarantined candidates: finite (so
/// [`SearchOutcome::best`] and the running-best curve stay finite) but far
/// below any reachable reward, so a quarantined record can never win
/// selection, a tournament, or top-N.
pub const QUARANTINE_REWARD: f64 = -1e30;

/// One quarantined candidate: a design point whose evaluation or reward
/// came out non-finite (a simulator fault, a poisoned GP prediction, an
/// injected NaN, …). Quarantined candidates are kept out of the REINFORCE
/// baseline and recorded here with enough context to reproduce them.
///
/// Equality compares the raw evaluation **bit-exactly** (`f64::to_bits`),
/// so two ledgers holding the same NaN observations compare equal — the
/// ordinary IEEE rule `NaN != NaN` would make every faulted outcome
/// unequal to its own checkpoint-resumed replay.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Candidate index (0-based), aligned with the history record that
    /// carries the [`QUARANTINE_REWARD`] sentinel.
    pub iteration: usize,
    /// The offending design point.
    pub point: DesignPoint,
    /// The controller action sequence that produced it (RL strategy
    /// only; `None` for evolution/random candidates).
    pub actions: Option<Vec<usize>>,
    /// The (partially non-finite) evaluation as observed.
    pub eval: Evaluation,
    /// Which metric was non-finite.
    pub reason: NonFiniteMetric,
}

impl PartialEq for QuarantineEntry {
    fn eq(&self, other: &Self) -> bool {
        let bits = |e: &Evaluation| {
            (
                e.accuracy.to_bits(),
                e.latency_ms.to_bits(),
                e.energy_mj.to_bits(),
            )
        };
        self.iteration == other.iteration
            && self.point == other.point
            && self.actions == other.actions
            && bits(&self.eval) == bits(&other.eval)
            && self.reason == other.reason
    }
}

/// Search-loop parameters, shared by every [`Strategy`].
///
/// [`Strategy`]: crate::session::Strategy
///
/// Construct with [`SearchConfig::builder`] (or a struct literal with
/// `..SearchConfig::default()`); the defaults are the paper's settings.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Total candidate evaluations.
    pub iterations: usize,
    /// Rollouts per controller update (RL only).
    pub rollouts_per_update: usize,
    /// RNG / controller-init seed.
    pub seed: u64,
    /// Sliding-population size (evolution only).
    pub population: usize,
    /// Tournament size for parent selection (evolution only).
    pub tournament: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            iterations: 2000,
            rollouts_per_update: 8,
            seed: 0,
            population: 50,
            tournament: 10,
        }
    }
}

impl SearchConfig {
    /// Starts a builder seeded with the paper defaults.
    pub fn builder() -> SearchConfigBuilder {
        SearchConfigBuilder::default()
    }
}

/// Builder for [`SearchConfig`]; every field starts at the paper default.
///
/// ```
/// use yoso_core::search::SearchConfig;
/// let cfg = SearchConfig::builder().iterations(500).seed(7).build();
/// assert_eq!(cfg.iterations, 500);
/// assert_eq!(cfg.rollouts_per_update, 8); // paper default kept
/// ```
#[derive(Debug, Clone, Default)]
pub struct SearchConfigBuilder {
    config: SearchConfig,
}

impl SearchConfigBuilder {
    /// Total candidate evaluations.
    #[must_use]
    pub fn iterations(mut self, n: usize) -> Self {
        self.config.iterations = n;
        self
    }

    /// Rollouts per controller update (RL only).
    #[must_use]
    pub fn rollouts_per_update(mut self, n: usize) -> Self {
        self.config.rollouts_per_update = n;
        self
    }

    /// RNG / controller-init seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sliding-population size (evolution only).
    #[must_use]
    pub fn population(mut self, n: usize) -> Self {
        self.config.population = n;
        self
    }

    /// Tournament size for parent selection (evolution only).
    #[must_use]
    pub fn tournament(mut self, n: usize) -> Self {
        self.config.tournament = n;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SearchConfig {
        self.config
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchRecord {
    /// Candidate index (0-based).
    pub iteration: usize,
    /// The design point.
    pub point: DesignPoint,
    /// Its fast evaluation.
    pub eval: Evaluation,
    /// Its reward under the configured objective.
    pub reward: f64,
}

/// Full search history plus the non-dominated Pareto archive maintained
/// over it.
///
/// The archive (see [`crate::archive`]) is the search's primary output:
/// where [`best`](SearchOutcome::best) answers one deployment target,
/// [`pareto`](SearchOutcome::pareto) /
/// [`top_k_by`](SearchOutcome::top_k_by) /
/// [`best_feasible`](SearchOutcome::best_feasible) answer many from the
/// same run. It is a pure function of the history, so derived equality
/// (used by the resume-equivalence tests) covers it with no extra
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchOutcome {
    /// Every evaluated candidate, in order. Quarantined candidates appear
    /// here too (keeping iteration numbering contiguous for resume) with
    /// the [`QUARANTINE_REWARD`] sentinel as their reward.
    pub history: Vec<SearchRecord>,
    /// Candidates quarantined for non-finite metrics, in iteration order.
    /// Empty on a fault-free run.
    pub quarantine: Vec<QuarantineEntry>,
    /// Non-dominated front over `(accuracy, latency, energy)`, maintained
    /// incrementally by [`record`](SearchOutcome::record).
    pub archive: ParetoArchive,
}

impl SearchOutcome {
    /// Rebuilds an outcome (including its archive) from checkpointed
    /// history and quarantine ledgers.
    pub fn from_parts(history: Vec<SearchRecord>, quarantine: Vec<QuarantineEntry>) -> Self {
        let archive = ParetoArchive::from_history(&history);
        SearchOutcome {
            history,
            quarantine,
            archive,
        }
    }

    /// Appends one evaluated candidate, offering it to the archive.
    pub fn record(&mut self, rec: SearchRecord) {
        self.archive.insert(rec);
        self.history.push(rec);
    }

    /// The highest-reward record.
    ///
    /// The reward is monotone in the archive's objectives (higher
    /// accuracy / lower latency / lower energy never lowers it), so the
    /// reward maximum always sits on the Pareto front; this delegates to
    /// the archive and only falls back to a history scan for outcomes
    /// whose archive is empty (manually assembled histories, or runs
    /// where every candidate was quarantined).
    ///
    /// # Panics
    ///
    /// Panics if the history is empty.
    pub fn best(&self) -> &SearchRecord {
        self.archive
            .entries()
            .iter()
            .max_by(|a, b| a.reward.total_cmp(&b.reward))
            .or_else(|| {
                self.history
                    .iter()
                    .max_by(|a, b| a.reward.total_cmp(&b.reward))
            })
            .expect("non-empty search history")
    }

    /// The non-dominated records over `(accuracy, latency, energy)`, in
    /// the archive's canonical order.
    pub fn pareto(&self) -> &[SearchRecord] {
        self.archive.entries()
    }

    /// The `k` best archive entries along one objective axis.
    pub fn top_k_by(&self, objective: Objective, k: usize) -> Vec<SearchRecord> {
        self.archive.top_k_by(objective, k)
    }

    /// The highest-reward archive entry satisfying the feasibility caps,
    /// if any.
    pub fn best_feasible(&self, caps: &FeasibilityCaps) -> Option<&SearchRecord> {
        self.archive.best_feasible(caps)
    }

    /// The `n` highest-reward *distinct* design points (paper step 3
    /// selects the top-10 promising candidates).
    pub fn top_n(&self, n: usize) -> Vec<SearchRecord> {
        let mut sorted: Vec<&SearchRecord> = self.history.iter().collect();
        sorted.sort_by(|a, b| b.reward.total_cmp(&a.reward));
        let mut out: Vec<SearchRecord> = Vec::with_capacity(n);
        for r in sorted {
            if out.iter().all(|o| o.point != r.point) {
                out.push(*r);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// Running maximum of the reward (the Fig. 6(a) curve).
    pub fn running_best_reward(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.history
            .iter()
            .map(|r| {
                best = best.max(r.reward);
                best
            })
            .collect()
    }

    /// Pareto-optimal records for a `(cost, quality)` projection: a record
    /// is kept when no other record has lower cost *and* higher quality.
    pub fn pareto_by(&self, project: impl Fn(&SearchRecord) -> (f64, f64)) -> Vec<SearchRecord> {
        let pts: Vec<(f64, f64)> = self.history.iter().map(&project).collect();
        let mut out = Vec::new();
        for (i, r) in self.history.iter().enumerate() {
            let (ci, qi) = pts[i];
            let dominated = pts
                .iter()
                .enumerate()
                .any(|(j, &(cj, qj))| j != i && cj <= ci && qj >= qi && (cj < ci || qj > qi));
            if !dominated {
                out.push(*r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::{Evaluator, SurrogateEvaluator};
    use crate::reward::RewardConfig;
    use crate::session::{SearchSession, Strategy};
    use yoso_arch::NetworkSkeleton;

    fn setup() -> (SurrogateEvaluator, RewardConfig) {
        let sk = NetworkSkeleton::tiny();
        let ev = SurrogateEvaluator::new(sk.clone());
        let cons = crate::evaluation::calibrate_constraints(&sk, 60, 0, 50.0);
        (ev, RewardConfig::balanced(cons))
    }

    fn run(
        evaluator: &dyn Evaluator,
        reward_cfg: &RewardConfig,
        cfg: &SearchConfig,
        strategy: Strategy,
    ) -> SearchOutcome {
        SearchSession::builder()
            .evaluator(evaluator)
            .reward(*reward_cfg)
            .config(cfg.clone())
            .strategy(strategy)
            .run()
            .expect("valid search configuration and infallible evaluator")
    }

    fn rl_search(ev: &dyn Evaluator, rc: &RewardConfig, cfg: &SearchConfig) -> SearchOutcome {
        run(ev, rc, cfg, Strategy::Rl)
    }

    fn evolution_search(
        ev: &dyn Evaluator,
        rc: &RewardConfig,
        cfg: &SearchConfig,
    ) -> SearchOutcome {
        run(ev, rc, cfg, Strategy::Evolution)
    }

    fn random_search(ev: &dyn Evaluator, rc: &RewardConfig, cfg: &SearchConfig) -> SearchOutcome {
        run(ev, rc, cfg, Strategy::Random)
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(SearchConfig::builder().build(), SearchConfig::default());
        let cfg = SearchConfig::builder()
            .iterations(10)
            .rollouts_per_update(2)
            .seed(42)
            .population(20)
            .tournament(5)
            .build();
        assert_eq!(cfg.iterations, 10);
        assert_eq!(cfg.rollouts_per_update, 2);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.population, 20);
        assert_eq!(cfg.tournament, 5);
    }

    #[test]
    fn rl_search_improves_over_iterations() {
        let (ev, rc) = setup();
        let cfg = SearchConfig {
            iterations: 600,
            rollouts_per_update: 8,
            seed: 1,
            ..SearchConfig::default()
        };
        let out = rl_search(&ev, &rc, &cfg);
        assert_eq!(out.history.len(), 600);
        // Mean reward of the last eighth beats the first eighth.
        let k = out.history.len() / 8;
        let first: f64 = out.history[..k].iter().map(|r| r.reward).sum::<f64>() / k as f64;
        let last: f64 = out.history[out.history.len() - k..]
            .iter()
            .map(|r| r.reward)
            .sum::<f64>()
            / k as f64;
        assert!(
            last > first,
            "RL did not improve: first {first:.4} last {last:.4}"
        );
    }

    #[test]
    fn rl_beats_random_on_average_tail() {
        let (ev, rc) = setup();
        let cfg = SearchConfig {
            iterations: 600,
            rollouts_per_update: 8,
            seed: 2,
            ..SearchConfig::default()
        };
        let rl = rl_search(&ev, &rc, &cfg);
        let rnd = random_search(&ev, &rc, &cfg);
        let tail = |o: &SearchOutcome| {
            let k = o.history.len() / 4;
            o.history[o.history.len() - k..]
                .iter()
                .map(|r| r.reward)
                .sum::<f64>()
                / k as f64
        };
        assert!(
            tail(&rl) > tail(&rnd),
            "rl tail {} vs random tail {}",
            tail(&rl),
            tail(&rnd)
        );
    }

    #[test]
    fn evolution_beats_random_tail() {
        let (ev, rc) = setup();
        let cfg = SearchConfig::builder()
            .iterations(600)
            .seed(9)
            .population(40)
            .tournament(8)
            .build();
        let evo = evolution_search(&ev, &rc, &cfg);
        let rnd = random_search(&ev, &rc, &cfg);
        assert_eq!(evo.history.len(), 600);
        let tail = |o: &SearchOutcome| {
            let k = o.history.len() / 4;
            o.history[o.history.len() - k..]
                .iter()
                .map(|r| r.reward)
                .sum::<f64>()
                / k as f64
        };
        assert!(
            tail(&evo) > tail(&rnd),
            "evolution tail {} vs random tail {}",
            tail(&evo),
            tail(&rnd)
        );
    }

    #[test]
    fn evolution_deterministic() {
        let (ev, rc) = setup();
        let cfg = SearchConfig::builder()
            .iterations(60)
            .rollouts_per_update(1)
            .seed(10)
            .population(16)
            .tournament(4)
            .build();
        let a = evolution_search(&ev, &rc, &cfg);
        let b = evolution_search(&ev, &rc, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn top_n_is_distinct_and_sorted() {
        let (ev, rc) = setup();
        let cfg = SearchConfig {
            iterations: 100,
            rollouts_per_update: 5,
            seed: 3,
            ..SearchConfig::default()
        };
        let out = random_search(&ev, &rc, &cfg);
        let top = out.top_n(10);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].reward >= w[1].reward);
            assert_ne!(w[0].point, w[1].point);
        }
        assert_eq!(top[0].reward, out.best().reward);
    }

    #[test]
    fn running_best_monotone() {
        let (ev, rc) = setup();
        let out = random_search(
            &ev,
            &rc,
            &SearchConfig {
                iterations: 50,
                rollouts_per_update: 1,
                seed: 4,
                ..SearchConfig::default()
            },
        );
        let rb = out.running_best_reward();
        for w in rb.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let (ev, rc) = setup();
        let out = random_search(
            &ev,
            &rc,
            &SearchConfig {
                iterations: 80,
                rollouts_per_update: 1,
                seed: 5,
                ..SearchConfig::default()
            },
        );
        let front = out.pareto_by(|r| (r.eval.energy_mj, r.eval.accuracy));
        assert!(!front.is_empty());
        for a in &front {
            for b in &out.history {
                let dominates = b.eval.energy_mj <= a.eval.energy_mj
                    && b.eval.accuracy >= a.eval.accuracy
                    && (b.eval.energy_mj < a.eval.energy_mj || b.eval.accuracy > a.eval.accuracy);
                assert!(!dominates, "front member dominated");
            }
        }
    }

    #[test]
    fn archive_is_pure_function_of_history() {
        let (ev, rc) = setup();
        let out = random_search(
            &ev,
            &rc,
            &SearchConfig {
                iterations: 120,
                rollouts_per_update: 1,
                seed: 11,
                ..SearchConfig::default()
            },
        );
        assert!(!out.archive.is_empty());
        let rebuilt = crate::archive::ParetoArchive::from_history(&out.history);
        assert_eq!(out.archive, rebuilt);
        assert_eq!(
            SearchOutcome::from_parts(out.history.clone(), out.quarantine.clone()),
            out
        );
    }

    #[test]
    fn best_delegates_to_archive_and_matches_history_scan() {
        let (ev, rc) = setup();
        let out = rl_search(
            &ev,
            &rc,
            &SearchConfig {
                iterations: 80,
                rollouts_per_update: 4,
                seed: 12,
                ..SearchConfig::default()
            },
        );
        let scan = out
            .history
            .iter()
            .max_by(|a, b| a.reward.total_cmp(&b.reward))
            .unwrap();
        assert_eq!(out.best(), scan);
        // The champion sits on the Pareto front.
        assert!(out.pareto().contains(scan));
    }

    #[test]
    fn typed_queries_answer_multiple_targets_from_one_run() {
        use crate::archive::{FeasibilityCaps, Objective};
        let (ev, rc) = setup();
        let out = random_search(
            &ev,
            &rc,
            &SearchConfig {
                iterations: 150,
                rollouts_per_update: 1,
                seed: 13,
                ..SearchConfig::default()
            },
        );
        let fastest = out.top_k_by(Objective::LatencyMs, 1);
        assert_eq!(fastest.len(), 1);
        for r in out.pareto() {
            assert!(fastest[0].eval.latency_ms <= r.eval.latency_ms);
        }
        let caps = FeasibilityCaps {
            max_latency_ms: Some(fastest[0].eval.latency_ms),
            ..FeasibilityCaps::none()
        };
        let feasible = out.best_feasible(&caps).expect("fastest point is feasible");
        assert!(feasible.eval.latency_ms <= fastest[0].eval.latency_ms);
        assert!(out.best_feasible(&FeasibilityCaps::none()).is_some());
    }

    #[test]
    fn searches_are_deterministic() {
        let (ev, rc) = setup();
        let cfg = SearchConfig {
            iterations: 40,
            rollouts_per_update: 4,
            seed: 6,
            ..SearchConfig::default()
        };
        let a = rl_search(&ev, &rc, &cfg);
        let b = rl_search(&ev, &rc, &cfg);
        assert_eq!(a, b);
    }
}
