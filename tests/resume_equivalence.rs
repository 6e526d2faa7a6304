//! Crash-recovery guarantee, end to end through the facade: a search
//! killed at iteration 15 of 30 and resumed from its on-disk checkpoint
//! replays a bit-identical `search_iter` trace (iterations >= 15) and
//! reaches an outcome equal to the uninterrupted run — for all three
//! strategies, at 1 and 4 worker threads.
//!
//! The fault-tolerance extensions ride on the same contract: the drill
//! still holds with *transient* chaos faults injected (worker panics are
//! retried away), and a run killed by an exhausted fault budget resumes
//! from its emergency checkpoint and — once the fault is fixed — finishes
//! with a tail bit-identical to a run that never faulted past that point.
//!
//! Every test takes [`yoso::chaos::test_lock`]: the chaos injector is
//! process-global, so even the chaos-free drill must not overlap with an
//! armed plan from a sibling test thread.

use std::path::PathBuf;
use yoso::chaos::FaultKind;
use yoso::core::checkpoint::checkpoint_file_name;
use yoso::prelude::*;

const ITERATIONS: usize = 30;
const KILL_AT: usize = 15;

fn setup() -> (SurrogateEvaluator, RewardConfig) {
    let sk = yoso::arch::NetworkSkeleton::tiny();
    let ev = SurrogateEvaluator::new(sk.clone());
    let cons = calibrate_constraints(&sk, 50, 0, 50.0);
    (ev, RewardConfig::balanced(cons))
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "yoso-resume-equivalence-{tag}-{}",
        std::process::id()
    ))
}

fn search_iter_lines(trace: &Trace) -> Vec<String> {
    trace
        .lines()
        .into_iter()
        .filter(|l| l.contains("\"search_iter\""))
        .collect()
}

#[test]
fn kill_at_15_resume_is_bit_identical_across_strategies_and_threads() {
    let _g = yoso::chaos::test_lock();
    yoso::chaos::disarm();
    let (ev, rc) = setup();
    let cfg = SearchConfig::builder()
        .iterations(ITERATIONS)
        .rollouts_per_update(5)
        .seed(7)
        .population(8)
        .tournament(3)
        .build();
    for threads in [1usize, 4] {
        yoso::pool::set_num_threads(threads);
        for (strategy, tag) in [
            (Strategy::Rl, "rl"),
            (Strategy::Evolution, "evo"),
            (Strategy::Random, "rand"),
        ] {
            let dir = temp_dir(&format!("{tag}-t{threads}"));
            let full_trace = Trace::memory();
            let full = SearchSession::builder()
                .evaluator(&ev)
                .reward(rc)
                .config(cfg.clone())
                .strategy(strategy)
                .checkpoint_every(KILL_AT)
                .checkpoint_dir(&dir)
                .trace(full_trace.clone())
                .run()
                .unwrap();

            // Simulated SIGKILL at iteration 15: every in-memory object is
            // dropped; only the snapshot file survives.
            let ckpt = dir.join(checkpoint_file_name(KILL_AT));
            assert!(ckpt.exists(), "{strategy}: no checkpoint at {KILL_AT}");
            let resumed_trace = Trace::memory();
            let resumed = SearchSession::resume_from(&ckpt)
                .unwrap()
                .evaluator(&ev)
                .trace(resumed_trace.clone())
                .run()
                .unwrap();

            // Outcome equality covers history, rewards and the final best.
            assert_eq!(resumed, full, "{strategy} t{threads}: outcome diverged");
            // The replayed JSONL stream must match the uninterrupted tail
            // byte for byte.
            let full_lines = search_iter_lines(&full_trace);
            let resumed_lines = search_iter_lines(&resumed_trace);
            assert_eq!(full_lines.len(), ITERATIONS);
            assert_eq!(
                resumed_lines.len(),
                ITERATIONS - KILL_AT,
                "{strategy} t{threads}: resumed run re-emitted restored iterations"
            );
            assert_eq!(
                &full_lines[KILL_AT..],
                &resumed_lines[..],
                "{strategy} t{threads}: search_iter tail diverged"
            );

            // `latest_checkpoint` finds the final snapshot; resuming from a
            // finished run replays nothing and returns the same outcome.
            let latest = latest_checkpoint(&dir).unwrap().expect("final snapshot");
            assert_eq!(latest, dir.join(checkpoint_file_name(ITERATIONS)));
            let replayed = SearchSession::resume_from(&latest)
                .unwrap()
                .evaluator(&ev)
                .run()
                .unwrap();
            assert_eq!(replayed, full, "{strategy} t{threads}: finished-run resume");

            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    yoso::pool::set_num_threads(0);
}

/// The crash-recovery drill holds under *transient* chaos: with worker
/// panics (retried away by the supervised pool) and slow evaluations
/// injected, the full run, the trace, and the kill-at-15 resume are all
/// bit-identical to an entirely uninjected run.
#[test]
fn transient_faults_preserve_resume_bit_identity() {
    let _g = yoso::chaos::test_lock();
    yoso::chaos::disarm();
    let sk = yoso::arch::NetworkSkeleton::tiny();
    let mut data_cfg = yoso::dataset::SynthCifarConfig::tiny();
    data_cfg.train_count = 64;
    let data = yoso::dataset::SynthCifar::generate(&data_cfg);
    let hyper_cfg = yoso::hypernet::HyperTrainConfig {
        epochs: 1,
        batch_size: 32,
        augment: false,
        ..Default::default()
    };
    // A fast evaluator, so session batches go through the supervised
    // parallel pool (the surrogate's batch path is serial and would give
    // worker panics nothing to hit).
    let ev = FastEvaluator::build(&sk, &data, &hyper_cfg, 60, 0).unwrap();
    let rc = RewardConfig::balanced(calibrate_constraints(&sk, 50, 0, 50.0));
    let cfg = SearchConfig::builder()
        .iterations(ITERATIONS)
        .rollouts_per_update(5)
        .seed(23)
        .build();
    yoso::pool::set_num_threads(4);

    // Reference: no chaos anywhere.
    let ref_trace = Trace::memory();
    let reference = SearchSession::builder()
        .evaluator(&ev)
        .reward(rc)
        .config(cfg.clone())
        .strategy(Strategy::Rl)
        .trace(ref_trace.clone())
        .run()
        .unwrap();
    let ref_lines = search_iter_lines(&ref_trace);

    // Chaos: panic item 1 of every parallel map (the retry recomputes
    // it), plus random 1 ms evaluation delays.
    yoso::chaos::install(
        &FaultPlan::new(31)
            .rule(FaultRule::at(FaultKind::WorkerPanic, &[1]))
            .rule(FaultRule::rate(FaultKind::SlowEval, 0.25).delay_ms(1)),
    );
    let dir = temp_dir("transient");
    let full_trace = Trace::memory();
    let full = SearchSession::builder()
        .evaluator(&ev)
        .reward(rc)
        .config(cfg.clone())
        .strategy(Strategy::Rl)
        .checkpoint_every(KILL_AT)
        .checkpoint_dir(&dir)
        .trace(full_trace.clone())
        .run()
        .unwrap();
    assert!(
        yoso::chaos::injected(FaultKind::WorkerPanic) > 0,
        "the panic rule must actually fire"
    );
    assert_eq!(full, reference, "transient faults changed the outcome");
    assert_eq!(
        search_iter_lines(&full_trace),
        ref_lines,
        "transient faults changed the search_iter stream"
    );

    // Kill at 15 and resume — still under the armed plan.
    let ckpt = dir.join(checkpoint_file_name(KILL_AT));
    assert!(ckpt.exists());
    let resumed_trace = Trace::memory();
    let resumed = SearchSession::resume_from(&ckpt)
        .unwrap()
        .evaluator(&ev)
        .trace(resumed_trace.clone())
        .run()
        .unwrap();
    yoso::chaos::disarm();
    yoso::pool::set_num_threads(0);

    assert_eq!(resumed, reference, "chaotic resume diverged");
    assert_eq!(
        &ref_lines[KILL_AT..],
        &search_iter_lines(&resumed_trace)[..],
        "chaotic resumed tail diverged from the uninjected run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A run killed by an exhausted fault budget leaves an emergency
/// checkpoint behind; once the fault is fixed (chaos disarmed), resuming
/// from it finishes the search with a `search_iter` tail bit-identical
/// to a run that never faulted — the random strategy's trajectory does
/// not depend on rewards, so everything past the fault point must match.
#[test]
fn emergency_checkpoint_resume_matches_uninjected_tail() {
    let _g = yoso::chaos::test_lock();
    yoso::chaos::disarm();
    let (ev, rc) = setup();
    let cfg = SearchConfig::builder()
        .iterations(ITERATIONS)
        .seed(41)
        .build();

    // Reference: the same search with no faults at all.
    let ref_trace = Trace::memory();
    let reference = SearchSession::builder()
        .evaluator(&ev)
        .reward(rc)
        .config(cfg.clone())
        .strategy(Strategy::Random)
        .trace(ref_trace.clone())
        .run()
        .unwrap();
    let ref_lines = search_iter_lines(&ref_trace);

    // Every reward poisoned: the budget of 3 trips at iteration 4.
    let dir = temp_dir("emergency");
    yoso::chaos::install(&FaultPlan::new(51).rule(FaultRule::rate(FaultKind::NanReward, 1.0)));
    let err = SearchSession::builder()
        .evaluator(&ev)
        .reward(rc)
        .config(cfg.clone())
        .strategy(Strategy::Random)
        .checkpoint_dir(&dir)
        .fault_budget(3)
        .run()
        .err();
    yoso::chaos::disarm();
    let Some(Error::FaultBudgetExhausted {
        checkpoint: Some(ckpt),
        ..
    }) = err
    else {
        panic!("expected FaultBudgetExhausted with a checkpoint, got {err:?}");
    };
    let fault_point = 4;
    assert_eq!(ckpt, dir.join(checkpoint_file_name(fault_point)));

    // Fault fixed: resume runs chaos-free to completion.
    let resumed_trace = Trace::memory();
    let resumed = SearchSession::resume_from(&ckpt)
        .unwrap()
        .evaluator(&ev)
        .trace(resumed_trace.clone())
        .run()
        .unwrap();

    assert_eq!(resumed.history.len(), ITERATIONS);
    assert_eq!(resumed.quarantine.len(), fault_point, "ledger restored");
    assert!(resumed.history[..fault_point]
        .iter()
        .all(|r| r.reward == QUARANTINE_REWARD));
    // Past the fault point the resumed run is indistinguishable from one
    // that never faulted: same points, same evals, same JSONL bytes.
    assert_eq!(
        &ref_lines[fault_point..],
        &search_iter_lines(&resumed_trace)[..],
        "resumed tail diverged from the uninjected run"
    );
    assert_eq!(
        &resumed.history[fault_point..],
        &reference.history[fault_point..],
        "resumed history tail diverged"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checkpoint files of one seeded, checkpointed RL session, by name.
fn checkpoint_files(
    ev: &SurrogateEvaluator,
    rc: RewardConfig,
    tag: &str,
) -> Vec<(String, Vec<u8>)> {
    let dir = temp_dir(tag);
    SearchSession::builder()
        .evaluator(ev)
        .reward(rc)
        .config(
            SearchConfig::builder()
                .iterations(ITERATIONS)
                .rollouts_per_update(5)
                .seed(13)
                .build(),
        )
        .strategy(Strategy::Rl)
        .checkpoint_every(5)
        .checkpoint_dir(&dir)
        .run()
        .unwrap();
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

/// Checkpoint bytes depend on the session alone: searches run between
/// two runs of one seeded session fill the process-wide simulator cache,
/// and every checkpoint of the second run is byte-identical to the
/// first's.
#[test]
fn checkpoint_bytes_depend_on_the_session_alone() {
    let _g = yoso::chaos::test_lock();
    yoso::chaos::disarm();
    let (ev, rc) = setup();
    let first = checkpoint_files(&ev, rc, "bytes-first");
    let before = yoso::accel::cache::stats().entries;
    for seed in 100..104 {
        SearchSession::builder()
            .evaluator(&ev)
            .reward(rc)
            .config(SearchConfig::builder().iterations(40).seed(seed).build())
            .strategy(Strategy::Random)
            .run()
            .unwrap();
    }
    assert!(
        yoso::accel::cache::stats().entries > before,
        "the unrelated searches added no cache entries"
    );
    let second = checkpoint_files(&ev, rc, "bytes-second");
    assert_eq!(first.len(), ITERATIONS / 5);
    for ((name, a), (name2, b)) in first.iter().zip(&second) {
        assert_eq!(name, name2);
        assert!(a == b, "{name} differs between the two runs");
    }
}

/// Checkpoints written by older versions carry a `sim_cache` section. A
/// checkpoint with such a section (here junk) still resumes, and the
/// resumed run replays the uninterrupted `search_iter` lines.
#[test]
fn checkpoint_with_a_sim_cache_section_still_resumes() {
    let _g = yoso::chaos::test_lock();
    yoso::chaos::disarm();
    let (ev, rc) = setup();
    let dir = temp_dir("sim-cache-section");
    let full_trace = Trace::memory();
    let full = SearchSession::builder()
        .evaluator(&ev)
        .reward(rc)
        .config(
            SearchConfig::builder()
                .iterations(ITERATIONS)
                .rollouts_per_update(5)
                .seed(17)
                .build(),
        )
        .strategy(Strategy::Rl)
        .checkpoint_every(KILL_AT)
        .checkpoint_dir(&dir)
        .trace(full_trace.clone())
        .run()
        .unwrap();

    let ckpt = dir.join(checkpoint_file_name(KILL_AT));
    let archive = SnapshotArchive::read(&ckpt).unwrap();
    let mut old = SnapshotBuilder::new(archive.kind());
    for name in archive.section_names() {
        let mut r = archive.section(name).unwrap();
        let bytes: Vec<u8> = (0..r.remaining()).map(|_| r.take_u8().unwrap()).collect();
        old.section(name, |w| bytes.iter().for_each(|&b| w.put_u8(b)));
    }
    old.section("sim_cache", |w| {
        w.put_usize(3);
        w.put_u64s(&[0xDEAD_BEEF; 5]);
    });
    old.write_atomic(&ckpt).unwrap();
    assert!(SnapshotArchive::read(&ckpt).unwrap().has("sim_cache"));

    let resumed_trace = Trace::memory();
    let resumed = SearchSession::resume_from(&ckpt)
        .unwrap()
        .evaluator(&ev)
        .trace(resumed_trace.clone())
        .run()
        .unwrap();
    assert_eq!(resumed, full);
    assert_eq!(
        &search_iter_lines(&full_trace)[KILL_AT..],
        &search_iter_lines(&resumed_trace)[..],
        "resumed tail diverged"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
