//! Work-sharing thread pool underpinning every parallel stage of the
//! pipeline: exhaustive hardware sweeps, predictor sample collection,
//! batched candidate scoring and top-N reranking.
//!
//! # Design
//!
//! Workers self-schedule off a shared atomic index counter — the
//! single-queue equivalent of work stealing: an idle worker always grabs
//! the next unclaimed item, so imbalanced items (e.g. exact tiling
//! searches whose cost varies with layer shape) never leave threads idle
//! the way the previous fixed-chunk splitting did. Threads are scoped
//! (`std::thread::scope`), which is what lets closures borrow from the
//! caller under `#![forbid(unsafe_code)]`; spawning an OS thread costs
//! ~10 µs, noise next to the millisecond-scale items these maps carry.
//!
//! # Supervision
//!
//! Every map runs each item under `std::panic::catch_unwind`, so one
//! panicking closure no longer kills the whole pool. Failed items are
//! retried with exponential backoff up to a [`SupervisorConfig`] budget;
//! items claimed by a worker that nevertheless died are re-run in a
//! serial recovery pass after the join, so no slot is ever left
//! unfilled. [`supervised_map`] exposes the per-item verdicts as typed
//! [`ItemOutcome`]s, [`try_parallel_map`] converts the first failure
//! into a typed [`PoolError`], and [`parallel_map`] keeps its historical
//! contract of propagating the panic — but only after the retry budget
//! is exhausted, and with the original payload message preserved.
//! Health counters (`pool.panics_caught`, `pool.retries`,
//! `pool.workers_lost`, `pool.items_recovered`) are emitted through
//! `yoso-trace` when telemetry is enabled.
//!
//! Deterministic worker-panic faults can be injected via `yoso-chaos`
//! ([`yoso_chaos::FaultKind::WorkerPanic`]): decisions are keyed on the
//! stable `(map sequence, item index, attempt)` triple, never on thread
//! interleaving, so a chaos run injects the same set of panics at any
//! thread count and retried items converge to their fault-free values.
//!
//! # Determinism
//!
//! [`parallel_map`] returns results in index order regardless of which
//! worker computed what. [`parallel_map_seeded`] additionally hands each
//! item an RNG derived from `(seed, index)` alone, so results are
//! invariant to the thread count: 1 thread and 64 threads produce
//! byte-identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Saturating nanoseconds since `t0`.
fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Global default worker count: 0 means "auto" (one worker per
/// available hardware thread).
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Monotone map sequence number: salts chaos draws so distinct maps
/// inject at distinct items. Maps are issued serially from the search
/// thread, so the sequence itself is deterministic run-to-run.
static MAP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Overrides the global default worker count used when a map is called
/// with `threads == 0`. Passing 0 restores the auto default.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::SeqCst);
}

/// The global default worker count: the [`set_num_threads`] override if
/// set, otherwise `std::thread::available_parallelism()`.
pub fn num_threads() -> usize {
    match NUM_THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

fn resolve(threads: usize, n: usize) -> usize {
    let threads = if threads == 0 { num_threads() } else { threads };
    threads.clamp(1, n.max(1))
}

/// Retry policy for supervised maps.
///
/// An item "fails" when its closure panics. Failed items are retried
/// after an exponential backoff (`backoff`, doubling per attempt, capped
/// at `backoff_max`) until `max_retries` retries are spent; the final
/// verdict is a typed [`ItemOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Failed attempts to retry before giving up (0 = fail fast).
    pub max_retries: u32,
    /// Base backoff slept before the first retry.
    pub backoff: Duration,
    /// Ceiling for the doubled backoff.
    pub backoff_max: Duration,
}

impl Default for SupervisorConfig {
    /// Two retries, 1 ms base backoff capped at 100 ms.
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            backoff_max: Duration::from_millis(100),
        }
    }
}

/// Typed per-item verdict from [`supervised_map`].
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<T> {
    /// Succeeded on the first attempt.
    Ok(T),
    /// Succeeded after `attempts` failed attempts.
    Retried {
        /// The successful result.
        value: T,
        /// Failed attempts before the success.
        attempts: u32,
    },
    /// Panicked on every attempt; `message` is the last panic payload.
    Panicked {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// Stringified payload of the last panic.
        message: String,
    },
}

impl<T> ItemOutcome<T> {
    /// True for [`ItemOutcome::Ok`] and [`ItemOutcome::Retried`].
    pub fn is_success(&self) -> bool {
        matches!(self, ItemOutcome::Ok(_) | ItemOutcome::Retried { .. })
    }

    /// The computed value, if any attempt succeeded.
    pub fn into_value(self) -> Option<T> {
        match self {
            ItemOutcome::Ok(v) | ItemOutcome::Retried { value: v, .. } => Some(v),
            _ => None,
        }
    }

    /// Failed attempts consumed before the final verdict.
    pub fn failed_attempts(&self) -> u32 {
        match self {
            ItemOutcome::Ok(_) => 0,
            ItemOutcome::Retried { attempts, .. } | ItemOutcome::Panicked { attempts, .. } => {
                *attempts
            }
        }
    }
}

/// Typed failure from [`try_parallel_map`]: the first item (lowest
/// index) whose retry budget was exhausted.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// The item panicked on every attempt.
    ItemPanicked {
        /// Item index within the map.
        index: usize,
        /// Attempts made.
        attempts: u32,
        /// Stringified payload of the last panic.
        message: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::ItemPanicked {
                index,
                attempts,
                message,
            } => write!(
                f,
                "pool item {index} panicked after {attempts} attempt(s): {message}"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn backoff_sleep(cfg: &SupervisorConfig, failed_attempts: u32) {
    if cfg.backoff.is_zero() {
        return;
    }
    let factor = 1u32 << failed_attempts.saturating_sub(1).min(16);
    let wait = cfg.backoff.saturating_mul(factor).min(cfg.backoff_max);
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
}

/// Runs one item to its final verdict: attempt, catch panics, back off
/// and retry within budget.
fn run_one<T, F>(
    i: usize,
    map_salt: u64,
    cfg: &SupervisorConfig,
    traced: bool,
    f: &F,
) -> ItemOutcome<T>
where
    F: Fn(usize) -> T + Sync,
{
    let mut failed: u32 = 0;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if yoso_chaos::armed()
                && yoso_chaos::should_fault_indexed(
                    yoso_chaos::FaultKind::WorkerPanic,
                    i as u64,
                    failed,
                    map_salt,
                )
            {
                panic!("chaos: injected worker panic (item {i}, attempt {failed})");
            }
            f(i)
        }));
        let payload = match result {
            Ok(value) if failed == 0 => return ItemOutcome::Ok(value),
            Ok(value) => {
                return ItemOutcome::Retried {
                    value,
                    attempts: failed,
                }
            }
            Err(payload) => payload,
        };
        if traced {
            yoso_trace::counter_add("pool.panics_caught", 1);
        }
        failed += 1;
        if failed > cfg.max_retries {
            return ItemOutcome::Panicked {
                attempts: failed,
                message: panic_message(payload.as_ref()),
            };
        }
        if traced {
            yoso_trace::counter_add("pool.retries", 1);
        }
        backoff_sleep(cfg, failed);
    }
}

/// Applies `f` to `0..n` under the supervision policy `cfg` and returns
/// one typed [`ItemOutcome`] per item, in index order. Never panics on
/// behalf of `f`: worker panics are caught per attempt, retried within
/// budget, and reported in the outcome. Items claimed by a worker that
/// died anyway are recovered by a serial re-run after the join.
pub fn supervised_map<T, F>(
    n: usize,
    threads: usize,
    cfg: &SupervisorConfig,
    f: F,
) -> Vec<ItemOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve(threads, n);
    let map_salt = MAP_SEQ.fetch_add(1, Ordering::Relaxed);
    let traced = yoso_trace::enabled();
    let _map_span = traced.then(|| yoso_trace::span("pool.map_wall"));
    if traced {
        yoso_trace::counter_add("pool.maps", 1);
        yoso_trace::counter_add("pool.items", n as u64);
    }
    if threads == 1 || n <= 1 {
        let t0 = traced.then(Instant::now);
        let out = (0..n)
            .map(|i| run_one(i, map_salt, cfg, traced, &f))
            .collect();
        if let Some(t0) = t0 {
            let elapsed = nanos_since(t0);
            yoso_trace::counter_add("pool.busy_ns", elapsed);
            yoso_trace::counter_add("pool.thread_ns", elapsed);
        }
        return out;
    }
    let t_map = traced.then(Instant::now);
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<ItemOutcome<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                let cfg = &*cfg;
                scope.spawn(move || {
                    let t0 = traced.then(Instant::now);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run_one(i, map_salt, cfg, traced, f)));
                    }
                    if let Some(t0) = t0 {
                        yoso_trace::counter_add("pool.busy_ns", nanos_since(t0));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // Per-item panics are caught inside `run_one`, so a worker
            // thread dying is a should-not-happen (e.g. an unwind from the
            // telemetry layer). It is still survivable: its claimed items
            // stay `None` and the recovery pass below re-runs them.
            match handle.join() {
                Ok(local) => {
                    for (i, v) in local {
                        out[i] = Some(v);
                    }
                }
                Err(_) => {
                    if traced {
                        yoso_trace::counter_add("pool.workers_lost", 1);
                    }
                }
            }
        }
    });
    if let Some(t_map) = t_map {
        yoso_trace::counter_add(
            "pool.thread_ns",
            nanos_since(t_map).saturating_mul(threads as u64),
        );
    }
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(v) => v,
            // Respawn path: the item's worker died before reporting.
            None => {
                if traced {
                    yoso_trace::counter_add("pool.items_recovered", 1);
                }
                run_one(i, map_salt, cfg, traced, &f)
            }
        })
        .collect()
}

/// Like [`parallel_map`], but returns a typed [`PoolError`] for the
/// first failed item (lowest index) instead of panicking. Uses the
/// default [`SupervisorConfig`] retry budget.
///
/// # Errors
///
/// [`PoolError::ItemPanicked`] when an item exhausts its retry budget.
pub fn try_parallel_map<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    for (index, outcome) in supervised_map(n, threads, &SupervisorConfig::default(), f)
        .into_iter()
        .enumerate()
    {
        match outcome {
            ItemOutcome::Ok(v) | ItemOutcome::Retried { value: v, .. } => out.push(v),
            ItemOutcome::Panicked { attempts, message } => {
                return Err(PoolError::ItemPanicked {
                    index,
                    attempts,
                    message,
                });
            }
        }
    }
    Ok(out)
}

/// Applies `f` to `0..n` across worker threads and returns results in
/// index order. `threads == 0` uses the global default
/// ([`num_threads`]); otherwise exactly the requested count (clamped to
/// `n`) is used.
///
/// Runs on the supervised path: a panicking item is retried (default
/// [`SupervisorConfig`] budget) before the panic is re-raised, so
/// transient faults — e.g. chaos-injected worker panics — are absorbed
/// and deterministic items converge to their fault-free values. `f`
/// should therefore be idempotent, which every pipeline map (pure
/// function of the item index) already is.
///
/// When global telemetry is on ([`yoso_trace::enabled`]) each map
/// records `pool.maps` / `pool.items` counters, a `pool.map_wall` span,
/// and `pool.busy_ns` / `pool.thread_ns` — total worker-loop time vs.
/// total thread-time allocated, whose ratio is the pool utilization
/// (below 1.0 when the tail of the join leaves finished workers idle).
/// With telemetry off (the default) the only cost is one relaxed atomic
/// load.
///
/// # Panics
///
/// Propagates panics from `f` once the retry budget is exhausted (the
/// panic message of the last attempt is preserved).
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_parallel_map(n, threads, f) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Derives the per-item RNG seed used by [`parallel_map_seeded`]:
/// a SplitMix64 hash of `(seed, index)`, so streams for different items
/// are independent and depend only on the pair.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::split_mix_64(&mut state)
}

/// Like [`parallel_map`], but hands `f` a deterministic per-item RNG
/// seeded from `(seed, index)` only — the output is identical for any
/// thread count, including 1. Retried items re-derive the same RNG, so
/// transient faults cannot perturb the result stream.
pub fn parallel_map_seeded<T, F>(n: usize, threads: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    parallel_map(n, threads, |i| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
        f(i, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn preserves_order() {
        let v = parallel_map(100, 8, |i| i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn single_thread_and_empty() {
        assert_eq!(parallel_map(5, 1, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(parallel_map(3, 64, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn zero_threads_means_default() {
        assert_eq!(parallel_map(4, 0, |i| i * 2), vec![0, 2, 4, 6]);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn seeded_map_is_thread_count_invariant() {
        let draw = |_i: usize, rng: &mut StdRng| rng.random_range(0u64..1_000_000);
        let one = parallel_map_seeded(64, 1, 42, draw);
        let two = parallel_map_seeded(64, 2, 42, draw);
        let eight = parallel_map_seeded(64, 8, 42, draw);
        assert_eq!(one, two);
        assert_eq!(one, eight);
        let other_seed = parallel_map_seeded(64, 8, 43, draw);
        assert_ne!(one, other_seed);

        // Every value drawn from the per-item RNGs, for edge seeds and
        // batch sizes (empty and single-item maps included).
        let draws =
            |i: usize, rng: &mut StdRng| (i, rng.random::<u64>(), rng.random_range(0.0f64..1.0));
        for seed in [0, 7, u64::MAX] {
            for n in [0, 1, 13] {
                let serial = parallel_map_seeded(n, 1, seed, draws);
                assert_eq!(serial.len(), n);
                assert_eq!(parallel_map_seeded(n, 2, seed, draws), serial);
                assert_eq!(parallel_map_seeded(n, 8, seed, draws), serial);
            }
        }
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    // One test owns the global telemetry flag: concurrent tests in this
    // binary run maps too, so enabled-phase deltas are lower bounds and
    // the disabled phase runs while the flag is known off.
    #[test]
    fn telemetry_gating_on_maps() {
        yoso_trace::set_enabled(false);
        let before = yoso_trace::snapshot();
        parallel_map(16, 4, |i| i);
        let mid = yoso_trace::snapshot();
        assert_eq!(mid.counter("pool.maps"), before.counter("pool.maps"));

        yoso_trace::set_enabled(true);
        parallel_map(32, 4, |i| i * 3);
        parallel_map(8, 1, |i| i + 1);
        let after = yoso_trace::snapshot();
        yoso_trace::set_enabled(false);
        let d = |name: &str| after.counter(name) - mid.counter(name);
        assert!(d("pool.maps") >= 2);
        assert!(d("pool.items") >= 40);
        assert!(d("pool.busy_ns") > 0);
        assert!(d("pool.thread_ns") >= d("pool.busy_ns"));
        let walls = |s: &yoso_trace::RegistrySnapshot| {
            s.histogram("pool.map_wall").map_or(0, |h| h.count())
        };
        assert!(walls(&after) - walls(&mid) >= 2);
    }

    #[test]
    fn supervised_map_reports_ok_outcomes() {
        let out = supervised_map(10, 4, &SupervisorConfig::default(), |i| i * 3);
        assert_eq!(out.len(), 10);
        for (i, o) in out.into_iter().enumerate() {
            assert_eq!(o, ItemOutcome::Ok(i * 3));
        }
    }

    #[test]
    fn deterministic_panic_exhausts_budget() {
        let cfg = SupervisorConfig {
            max_retries: 2,
            backoff: Duration::ZERO,
            ..SupervisorConfig::default()
        };
        let out = supervised_map(4, 2, &cfg, |i| {
            if i == 2 {
                panic!("boom at {i}");
            }
            i
        });
        assert!(out[0].is_success() && out[1].is_success() && out[3].is_success());
        match &out[2] {
            ItemOutcome::Panicked { attempts, message } => {
                assert_eq!(*attempts, 3); // initial try + 2 retries
                assert!(message.contains("boom at 2"), "message: {message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let tries: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let cfg = SupervisorConfig {
            max_retries: 3,
            backoff: Duration::ZERO,
            ..SupervisorConfig::default()
        };
        let out = supervised_map(6, 3, &cfg, |i| {
            let attempt = tries[i].fetch_add(1, Ordering::SeqCst);
            if i % 2 == 0 && attempt < 2 {
                panic!("transient failure");
            }
            i * 10
        });
        for (i, o) in out.into_iter().enumerate() {
            assert_eq!(o.clone().into_value(), Some(i * 10));
            if i % 2 == 0 {
                assert_eq!(
                    o,
                    ItemOutcome::Retried {
                        value: i * 10,
                        attempts: 2
                    }
                );
            } else {
                assert_eq!(o, ItemOutcome::Ok(i * 10));
            }
        }
    }

    #[test]
    fn try_parallel_map_returns_typed_error() {
        let err = try_parallel_map(5, 2, |i| {
            if i >= 3 {
                panic!("bad item");
            }
            i
        })
        .unwrap_err();
        let PoolError::ItemPanicked { index, message, .. } = err;
        assert_eq!(index, 3); // lowest failing index wins
        assert!(message.contains("bad item"));
        assert_eq!(try_parallel_map(3, 2, |i| i).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "always broken")]
    fn parallel_map_still_propagates_exhausted_panics() {
        parallel_map(4, 2, |i| {
            if i == 1 {
                panic!("always broken");
            }
            i
        });
    }

    #[test]
    fn chaos_injected_panics_converge_to_fault_free_values() {
        let _guard = yoso_chaos::test_lock();
        let plan = yoso_chaos::FaultPlan::new(2024).rule(yoso_chaos::FaultRule::rate(
            yoso_chaos::FaultKind::WorkerPanic,
            0.4,
        ));
        yoso_chaos::install(&plan);
        // Rate 0.4 with the default 2-retry budget would let ~0.4^3 of the
        // items exhaust it; give the supervisor enough headroom that every
        // item deterministically converges under this seed.
        let cfg = SupervisorConfig {
            max_retries: 10,
            backoff: Duration::ZERO,
            ..SupervisorConfig::default()
        };
        let faulted = supervised_map(64, 4, &cfg, |i| i * i);
        let injected = yoso_chaos::injected(yoso_chaos::FaultKind::WorkerPanic);
        yoso_chaos::disarm();
        assert!(injected > 0, "rate 0.4 over 64 items should inject");
        let retried = faulted
            .iter()
            .filter(|o| matches!(o, ItemOutcome::Retried { .. }))
            .count();
        assert!(retried > 0, "some items should have been retried");
        for (i, o) in faulted.into_iter().enumerate() {
            assert_eq!(o.into_value(), Some(i * i), "item {i} must converge");
        }
    }

    #[test]
    fn chaos_explicit_index_hits_that_item() {
        let _guard = yoso_chaos::test_lock();
        let plan = yoso_chaos::FaultPlan::new(1).rule(yoso_chaos::FaultRule::at(
            yoso_chaos::FaultKind::WorkerPanic,
            &[5],
        ));
        yoso_chaos::install(&plan);
        let out = supervised_map(8, 2, &SupervisorConfig::default(), |i| i + 100);
        yoso_chaos::disarm();
        assert_eq!(
            out[5],
            ItemOutcome::Retried {
                value: 105,
                attempts: 1
            }
        );
        for (i, o) in out.into_iter().enumerate() {
            if i != 5 {
                assert_eq!(o, ItemOutcome::Ok(i + 100));
            }
        }
    }
}
