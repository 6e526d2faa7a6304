//! The two in-process workloads: `paper_search` (HyperNet + GP fast
//! evaluator, RL then random search) and `surrogate_rl` (one long RL
//! search scored by the analytic surrogate).

use crate::json::Json;
use crate::procfs::ProcStat;
use crate::spans::{SpanId, SpanLog};
use crate::timed::Timed;
use crate::{pick, Ctx, Report};
use std::time::Instant;
use yoso_accel::Simulator;
use yoso_arch::NetworkSkeleton;
use yoso_core::evaluation::{
    calibrate_constraints, Evaluator, FastEvaluator, SurrogateEvaluator, SurrogateKind,
};
use yoso_core::reward::{Constraints, RewardConfig};
use yoso_core::search::SearchConfig;
use yoso_core::session::{SearchSession, Strategy};
use yoso_dataset::{SynthCifar, SynthCifarConfig};
use yoso_hypernet::{HyperNet, HyperTrainConfig};
use yoso_predictor::perf::{collect_samples, PerfPredictor};

/// `paper_search` phase sizes, in candidates per second of `--seconds`:
/// on the reference host (2 vCPU) each phase then lasts about half the
/// requested time.
const PAPER_RL_PER_S: f64 = 2.5;
const PAPER_RANDOM_PER_S: f64 = 1.25;
/// `surrogate_rl` size, in candidates per second of `--seconds`.
const SURROGATE_RL_PER_S: f64 = 130.0;
/// Exact-simulator samples the GP predictors are fitted on.
const PREDICTOR_SAMPLES: usize = 400;
/// Recorded candidates re-scored per phase by the correctness gate.
const RECHECKS: usize = 8;

/// Candidates for a phase: `per_s * seconds`, rounded to whole batches.
fn phase_size(per_s: f64, seconds: u64, batch: usize) -> usize {
    let n = (per_s * seconds as f64 / batch as f64).round() as usize;
    n.max(1) * batch
}

fn hyper_cfg(seed: u64) -> HyperTrainConfig {
    HyperTrainConfig {
        epochs: 2,
        batch_size: 32,
        seed,
        ..HyperTrainConfig::default()
    }
}

/// Paper steps 1–2 at CPU scale.
pub fn paper_search(ctx: &Ctx, report: &mut Report) {
    let sk = NetworkSkeleton::small();
    let log = ctx.log.as_ref();
    let t0 = Instant::now();
    let built = match log {
        None => {
            let data = SynthCifar::generate(&SynthCifarConfig::small());
            FastEvaluator::build(
                &sk,
                &data,
                &hyper_cfg(ctx.seed),
                PREDICTOR_SAMPLES,
                ctx.seed,
            )
            .map(|ev| (ev, calibrate_constraints(&sk, 300, ctx.seed, 40.0)))
        }
        Some(log) => build_from_parts(&sk, ctx.seed, log),
    };
    report.setup_s = t0.elapsed().as_secs_f64();
    let (ev, constraints) = match built {
        Ok(v) => v,
        Err(e) => return report.error(format!("evaluator build failed: {e}")),
    };
    if ctx.setup_only {
        return;
    }
    let timed = Timed::new(&ev, log);
    let reward = RewardConfig::balanced(constraints);
    let rl = SearchConfig {
        iterations: phase_size(PAPER_RL_PER_S, ctx.seconds, 8),
        rollouts_per_update: 8,
        seed: ctx.seed,
        ..SearchConfig::default()
    };
    let random = SearchConfig {
        iterations: phase_size(PAPER_RANDOM_PER_S, ctx.seconds, 1),
        seed: ctx.seed,
        ..SearchConfig::default()
    };
    run_phase(ctx, report, &timed, &ev, reward, "rl", Strategy::Rl, rl);
    run_phase(
        ctx,
        report,
        &timed,
        &ev,
        reward,
        "random",
        Strategy::Random,
        random,
    );
}

/// What [`FastEvaluator::build`] does, step by step under spans, plus
/// the constraint calibration. Must build the same evaluator: the traced
/// run's `best_reward` is checked against the untraced run's.
fn build_from_parts(
    sk: &NetworkSkeleton,
    seed: u64,
    log: &SpanLog,
) -> Result<(FastEvaluator, Constraints), yoso_core::error::Error> {
    let setup = log.open("setup", None, 0);
    let root = Some(setup);
    let data = log.time("setup.dataset", root, || {
        SynthCifar::generate(&SynthCifarConfig::small())
    });
    let hyper = log.time("hypernet.train", root, || {
        let mut hyper = HyperNet::new(sk.clone(), seed);
        hyper.train(&data, &hyper_cfg(seed));
        hyper
    });
    let samples = log.time("predictor.collect_samples", root, || {
        collect_samples(sk, &Simulator::exact(), PREDICTOR_SAMPLES, seed ^ 0x5a5a)
    });
    let predictor = log.time("predictor.train", root, || {
        PerfPredictor::train_with(sk, &samples, SurrogateKind::Exact)
    })?;
    let ev = log.time("core.assemble", root, || {
        FastEvaluator::from_parts(hyper, predictor, data.clone())
    });
    let constraints = log.time("core.calibrate", root, || {
        calibrate_constraints(sk, 300, seed, 40.0)
    });
    log.close(setup);
    Ok((ev, constraints))
}

/// One long RL search over the paper's skeleton, scored by the surrogate
/// (what `fig6_search` runs by default).
pub fn surrogate_rl(ctx: &Ctx, report: &mut Report) {
    let sk = NetworkSkeleton::paper_default();
    let log = ctx.log.as_ref();
    let root = log.map(|l| l.open("setup", None, 0));
    let t0 = Instant::now();
    let constraints = maybe_time(log, "core.calibrate", root, || {
        calibrate_constraints(&sk, 300, ctx.seed, 40.0)
    });
    let ev = maybe_time(log, "core.assemble", root, || {
        SurrogateEvaluator::new(sk.clone())
    });
    report.setup_s = t0.elapsed().as_secs_f64();
    if let (Some(log), Some(root)) = (log, root) {
        log.close(root);
    }
    if ctx.setup_only {
        return;
    }
    let timed = Timed::new(&ev, log);
    let cfg = SearchConfig {
        iterations: phase_size(SURROGATE_RL_PER_S, ctx.seconds, 10),
        rollouts_per_update: 10,
        seed: ctx.seed,
        ..SearchConfig::default()
    };
    let reward = RewardConfig::balanced(constraints);
    run_phase(ctx, report, &timed, &ev, reward, "rl", Strategy::Rl, cfg);
}

fn maybe_time<T>(
    log: Option<&SpanLog>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        Some(log) => log.time(name, parent, f),
        None => f(),
    }
}

/// Runs one search through the wrapper and records its phase report:
/// wall time, counts, process and cache deltas and, traced, the
/// program's own registry totals. Then applies the correctness gate.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    ctx: &Ctx,
    report: &mut Report,
    timed: &Timed<'_>,
    raw: &dyn Evaluator,
    reward: RewardConfig,
    name: &'static str,
    strategy: Strategy,
    cfg: SearchConfig,
) {
    let requested = cfg.iterations;
    let seed = cfg.seed;
    let reg0 = ctx.traced().then(yoso_trace::snapshot);
    let cache0 = yoso_accel::cache::stats();
    let proc0 = ProcStat::read("self").unwrap_or_default();
    let span = ctx
        .log
        .as_ref()
        .map(|l| l.open("phase", None, requested as u64));
    if let Some(id) = span {
        timed.set_phase(id);
    }
    let t0 = Instant::now();
    let outcome = SearchSession::builder()
        .evaluator(timed)
        .reward(reward)
        .config(cfg)
        .strategy(strategy)
        .run();
    let wall_s = t0.elapsed().as_secs_f64();
    if let (Some(log), Some(id)) = (ctx.log.as_ref(), span) {
        log.close(id);
    }
    let proc1 = ProcStat::read("self").unwrap_or_default();
    let cache1 = yoso_accel::cache::stats();

    let mut phase = Json::obj()
        .set("name", name)
        .set("span", span)
        .set("requested", requested)
        .set("wall_s", wall_s)
        .set("proc", proc1.since(&proc0).json())
        .set("cache_hits", cache1.hits.saturating_sub(cache0.hits))
        .set("cache_misses", cache1.misses.saturating_sub(cache0.misses));
    if let Some(reg0) = reg0 {
        let reg1 = yoso_trace::snapshot();
        let hist_ns = |n: &str| {
            let before = reg0.histogram(n).map_or(0, |h| h.sum());
            reg1.histogram(n)
                .map_or(0, |h| h.sum())
                .saturating_sub(before)
        };
        let counter = |n: &str| reg1.counter(n).saturating_sub(reg0.counter(n));
        phase = phase.set(
            "registry",
            Json::obj()
                .set("controller_sample_ns", hist_ns("controller.sample"))
                .set("controller_update_ns", hist_ns("controller.update"))
                .set("gp_predict_batch_ns", hist_ns("gp.predict_batch"))
                .set("pool_busy_ns", counter("pool.busy_ns"))
                .set("pool_thread_ns", counter("pool.thread_ns")),
        );
    }

    report.attempted += requested as u64;
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            report.failed += requested as u64;
            report.error(format!("{name}: search failed: {e}"));
            report.phases.push(phase.set("records", 0usize));
            return;
        }
    };
    let good = outcome
        .history
        .iter()
        .filter(|r| r.reward.is_finite())
        .count()
        .saturating_sub(outcome.quarantine.len());
    report.failed += requested.saturating_sub(good) as u64;
    if outcome.history.len() != requested {
        report.error(format!(
            "{name}: {} records for {requested} requested",
            outcome.history.len()
        ));
    }
    if good != outcome.history.len() || !outcome.quarantine.is_empty() {
        report.error(format!(
            "{name}: {} non-finite rewards, {} quarantined",
            outcome.history.len() - good.min(outcome.history.len()),
            outcome.quarantine.len()
        ));
    }
    // A seed-chosen sample of records is scored again point by point:
    // the recorded metrics and reward must repeat bit for bit.
    for i in pick(seed ^ 0xc0ffee, outcome.history.len(), RECHECKS) {
        let rec = &outcome.history[i];
        let same = raw.evaluate(&rec.point).is_ok_and(|e| {
            e.accuracy.to_bits() == rec.eval.accuracy.to_bits()
                && e.latency_ms.to_bits() == rec.eval.latency_ms.to_bits()
                && e.energy_mj.to_bits() == rec.eval.energy_mj.to_bits()
                && reward
                    .reward(e.accuracy, e.latency_ms, e.energy_mj)
                    .to_bits()
                    == rec.reward.to_bits()
        });
        if !same {
            report.error(format!("{name}: record {i} does not re-score identically"));
        }
    }
    let best = if outcome.history.is_empty() {
        f64::NAN
    } else {
        outcome.best().reward
    };
    if name == "rl" {
        report.best_reward = best;
    }
    report.phases.push(
        phase
            .set("records", outcome.history.len())
            .set("best_reward", best),
    );
}
