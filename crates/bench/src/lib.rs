//! # yoso-bench
//!
//! Experiment drivers and benchmark harness regenerating **every table and
//! figure** of the paper's evaluation (see DESIGN.md §4 for the index):
//!
//! | target | regenerates |
//! |---|---|
//! | `fig4_regressors` | Fig. 4 — six regression models' MSE |
//! | `fig5_hypernet` | Fig. 5(a) training curve, 5(b) ranking correlation |
//! | `fig6_search` | Fig. 6(a) RL vs random, 6(b)/(c) trade-off scatters |
//! | `table2_comparison` | Table 2 — two-stage vs Yoso_lat / Yoso_eer |
//! | `fig7_normalized` | Fig. 7 — normalized energy/latency bars |
//! | `ablations` | design-choice ablations called out in DESIGN.md |
//!
//! The micro-benchmarks are bins too. `bench_kernels` times the GEMM
//! kernels and candidate scoring, including the one-shot cost claim
//! (inherited-weight scoring against one epoch of standalone training).
//! `bench_parallel` times the evaluation pipeline and the §III-E claim
//! (GP prediction against exact and fast simulation per candidate).
//! Both, and loadgen's journal phase, time through one timer,
//! [`interleaved`], and write `BENCH_*.json` under [`results_dir`],
//! every timed entry with its [`Spread`].
//!
//! This library hosts the small shared utilities: CLI flag parsing, CSV
//! output under `results/`, the timer, a self-removing scratch
//! directory, and aligned table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Returns (and creates) the `results/` directory next to the workspace
/// root (or under `YOSO_RESULTS_DIR` if set).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("YOSO_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file into [`results_dir`]; returns its path.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("write csv");
    path
}

/// `{rounds, min, median, max}` of a set of per-round samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of samples.
    pub rounds: usize,
    /// Smallest sample: the quiet-slot floor a best-of-N gate reads.
    pub min: f64,
    /// Median sample (the mean of the middle two for an even count).
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "spread of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Spread {
            rounds: n,
            min: sorted[0],
            median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            max: sorted[n - 1],
        }
    }

    /// Every sample multiplied by `factor` (a unit change, or a round's
    /// time divided over the items it covered). `factor` must be
    /// positive, so the order is kept.
    pub fn scaled(self, factor: f64) -> Spread {
        Spread {
            min: self.min * factor,
            median: self.median * factor,
            max: self.max * factor,
            ..self
        }
    }

    /// The spread as a JSON object, three decimals per figure.
    pub fn json(&self) -> String {
        format!(
            "{{ \"rounds\": {}, \"min\": {:.3}, \"median\": {:.3}, \"max\": {:.3} }}",
            self.rounds, self.min, self.median, self.max
        )
    }
}

/// One side of an [`interleaved`] measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Wall time of each timed round, in ms, in round order.
    pub samples_ms: Vec<f64>,
    /// The spread of `samples_ms`.
    pub ms: Spread,
}

/// Times `sides` against each other. Each side first runs once
/// untimed, in order, as a warm-up. Then each of `rounds` timed rounds
/// runs every side once, starting at side `round % N` and going on in
/// order, so with two sides the one that goes first alternates. A load
/// spike on a shared host thus lands on every side alike, where
/// back-to-back windows would charge it to whichever side ran then.
///
/// Returns one [`Timing`] per side, in `sides` order. A side that must
/// start from a known state (a cleared cache, say) sets it up inside
/// its own call, which the round then times too.
///
/// # Errors
///
/// The first error a side returns, warm-up included; nothing runs after
/// it.
///
/// # Panics
///
/// Panics if `rounds` is 0.
pub fn interleaved<const N: usize>(
    rounds: usize,
    mut sides: [&mut dyn FnMut() -> Result<(), yoso_core::Error>; N],
) -> Result<[Timing; N], yoso_core::Error> {
    assert!(rounds > 0, "interleaved timing needs at least one round");
    for side in &mut sides {
        side()?;
    }
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(rounds));
    for round in 0..rounds {
        for i in 0..N {
            let side = (round + i) % N;
            let start = Instant::now();
            sides[side]()?;
            samples[side].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(samples.map(|samples_ms| Timing {
        ms: Spread::of(&samples_ms),
        samples_ms,
    }))
}

/// A scratch directory, `<temp dir>/<name>_<pid>`, removed with its
/// contents when dropped, so a bench cleans up on every exit path:
/// success, an error return or a panic.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory, first removing any left over from an
    /// earlier process with the same id.
    ///
    /// # Errors
    ///
    /// The I/O error if the directory cannot be created.
    pub fn new(name: &str) -> std::io::Result<TempDir> {
        let path = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Reads a CSV produced by [`write_csv`]; returns (header, rows).
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read.
pub fn read_csv(name: &str) -> std::io::Result<(Vec<String>, Vec<Vec<String>>)> {
    let text = fs::read_to_string(results_dir().join(name))?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .unwrap_or("")
        .split(',')
        .map(str::to_string)
        .collect();
    let rows = lines
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    Ok((header, rows))
}

/// Build/runtime provenance block shared by every `BENCH_*.json`
/// emitter: detected core count, the worker-pool thread setting in
/// effect, the SGEMM microkernel's SIMD tier, and the build profile.
/// Without this a snapshot number is uninterpretable — a 2x speedup
/// measured on one core in a debug build is a different claim than the
/// same ratio in release on eight.
///
/// Returns a JSON object fragment (no trailing comma/newline) indented
/// for embedding at the given level, e.g.
/// `"meta": { "cores": 8, ... }`.
pub fn bench_meta_json(indent: usize) -> String {
    let pad = " ".repeat(indent);
    let inner = " ".repeat(indent + 2);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "\"meta\": {{\n{inner}\"cores\": {cores},\n{inner}\"pool_threads\": {},\n{inner}\"simd_tier\": \"{}\",\n{inner}\"profile\": \"{profile}\"\n{pad}}}",
        yoso_pool::num_threads(),
        yoso_tensor::simd_tier(),
    )
}

/// Runs a bench binary's fallible body: on `Err` the full
/// [`yoso_core::Error`] chain (error plus every `source()` cause) is
/// printed to stderr and the process exits with status 1, so failures
/// surface as readable diagnostics instead of `unwrap` panics. On
/// success the chaos injection counters (if a `--chaos-plan` was armed)
/// are reported via [`finish_chaos`].
pub fn run_main(body: impl FnOnce() -> Result<(), yoso_core::Error>) {
    match body() {
        Err(e) => {
            eprintln!("error: {}", yoso_core::error_chain(&e));
            std::process::exit(1);
        }
        Ok(()) => finish_chaos(),
    }
}

/// Usage lines of the bench bins, one per bin. [`Args::parse`] accepts
/// exactly the flags its bin's line names: a `[--flag]` group is a
/// switch and a `[--flag VALUE]` group takes one value (shown as its
/// default where it has one). Any other argument ends the process with
/// the line before the bin does any work.
pub mod usage {
    /// `ablations`: `--which` picks ablations by digit, `--pareto-out`
    /// writes the last search ablation's (2 or 4) archive.
    pub const ABLATIONS: &str = "ablations [--which 123456] [--threads 0] \
        [--pareto-out FILE] [--trace-out FILE] [--chaos-plan FILE]";
    /// `bench_kernels`.
    pub const BENCH_KERNELS: &str =
        "bench_kernels [--iters 40] [--seed 0] [--out BENCH_kernels.json]";
    /// `bench_parallel`.
    pub const BENCH_PARALLEL: &str = "bench_parallel [--samples 1000] [--batch 256] [--seed 0] \
        [--out BENCH_parallel.json] [--trace-out FILE] [--chaos-plan FILE]";
    /// `fig4_regressors`: `--paper` uses the paper's sample counts.
    pub const FIG4_REGRESSORS: &str = "fig4_regressors [--train 1000] [--test 300] [--paper] \
        [--seed 0] [--threads 0] [--trace-out FILE] [--chaos-plan FILE]";
    /// `fig5_hypernet`.
    pub const FIG5_HYPERNET: &str = "fig5_hypernet [--part a|b|both] [--epochs 10] [--models 16] \
        [--full-epochs 6] [--seed 0] [--scale tiny|small|paper] [--noise 0.3] \
        [--label-noise 0.02] [--trace-out FILE] [--chaos-plan FILE]";
    /// `fig6_search`.
    pub const FIG6_SEARCH: &str = "fig6_search [--part a|b|c|all] [--iterations 2000] [--seed 0] \
        [--fast-evaluator] [--hyper-epochs 6] [--pareto-out FILE] [--trace-out FILE] \
        [--chaos-plan FILE]";
    /// `fig7_normalized`.
    pub const FIG7_NORMALIZED: &str = "fig7_normalized [--trace-out FILE]";
    /// `loadgen`: `--addr` drives a running daemon instead of an
    /// in-process server.
    pub const LOADGEN: &str = "loadgen [--addr HOST:PORT] [--tenants 8] [--sessions 13] \
        [--iterations 12] [--max-jobs 8] [--threads 0] [--chaos-plan FILE] \
        [--out BENCH_server.json]";
    /// `resume_smoke`.
    pub const RESUME_SMOKE: &str =
        "resume_smoke [--iterations 30] [--kill-at 15] [--seed 0] [--chaos-plan FILE]";
    /// `server_chaos`; it runs itself with `--serve` and the flags after
    /// it as its child daemon.
    pub const SERVER_CHAOS: &str = "server_chaos [--tenants 4] [--sessions 2] [--iterations 14] \
        [--kill-iterations 200] [--out BENCH_server_chaos.json] [--threads 0] \
        [--serve] [--addr HOST:PORT] [--root DIR] [--max-jobs 4] [--chaos-plan FILE]";
    /// `table2_comparison`.
    pub const TABLE2_COMPARISON: &str = "table2_comparison [--iterations 600] [--topn 5] \
        [--hyper-epochs 6] [--full-epochs 6] [--seed 0] [--threads 0] \
        [--pareto-out FILE] [--trace-out FILE] [--chaos-plan FILE]";

    /// Every usage line above.
    pub const ALL: &[&str] = &[
        ABLATIONS,
        BENCH_KERNELS,
        BENCH_PARALLEL,
        FIG4_REGRESSORS,
        FIG5_HYPERNET,
        FIG6_SEARCH,
        FIG7_NORMALIZED,
        LOADGEN,
        RESUME_SMOKE,
        SERVER_CHAOS,
        TABLE2_COMPARISON,
    ];
}

/// The flags a usage line names, each with whether it takes a value.
fn usage_flags(usage: &str) -> impl Iterator<Item = (&str, bool)> {
    usage.split('[').skip(1).filter_map(|group| {
        let mut words = group.split(']').next()?.split_whitespace();
        let flag = words.next().filter(|w| w.starts_with("--"))?;
        Some((flag, words.next().is_some()))
    })
}

/// A bench bin's command line, checked against its usage line, with
/// typed accessors for its flags.
///
/// ```no_run
/// let args = yoso_bench::Args::parse(yoso_bench::usage::FIG6_SEARCH);
/// let trace = args.configure_trace();
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Parses the process arguments against `usage` (one of the
    /// [`usage`] lines). On any argument the line does not name, prints
    /// the line to stderr and exits with status 2.
    pub fn parse(usage: &str) -> Args {
        Args::from_argv(usage, std::env::args().collect()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Checks an explicit argument vector (program name first) against
    /// `usage`.
    ///
    /// # Errors
    ///
    /// A message naming the first argument `usage` does not name, with
    /// the usage line, when there is one.
    pub fn from_argv(usage: &str, argv: Vec<String>) -> Result<Args, String> {
        let mut rest = argv.iter().skip(1);
        while let Some(arg) = rest.next() {
            match usage_flags(usage).find(|&(flag, _)| flag == arg) {
                Some((_, true)) => {
                    rest.next();
                }
                Some((_, false)) => {}
                None => return Err(format!("unknown argument {arg:?}\nusage: {usage}")),
            }
        }
        Ok(Args { argv })
    }

    /// Value of `--flag <value>`.
    pub fn value(&self, flag: &str) -> Option<String> {
        self.argv
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.argv.get(i + 1).cloned())
    }

    /// `--flag <n>` parsed as usize, with default.
    pub fn usize(&self, flag: &str, default: usize) -> usize {
        self.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `--flag <x>` parsed as u64, with default.
    pub fn u64(&self, flag: &str, default: u64) -> u64 {
        self.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `--flag <x>` parsed as f64, with default.
    pub fn f64(&self, flag: &str, default: f64) -> f64 {
        self.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Presence of a boolean `--flag`.
    pub fn present(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }

    /// The shared `--pareto-out <path>` flag: where to write the final
    /// non-dominated archive as CSV (see
    /// [`yoso_core::save_pareto_csv`]). Absent means don't write it.
    pub fn pareto_out(&self) -> Option<PathBuf> {
        self.value("--pareto-out").map(PathBuf::from)
    }

    /// Applies the shared `--threads <n>` flag, which sizes the global
    /// worker pool (candidate-level parallelism: rollout fan-out, batched
    /// evaluation), and returns the resolved worker count. `0` or an
    /// absent flag means all cores; every `BENCH_*.json` records the
    /// count via [`bench_meta_json`].
    pub fn configure_threads(&self) -> usize {
        yoso_pool::set_num_threads(self.usize("--threads", 0));
        yoso_pool::num_threads()
    }

    /// Applies the shared `--chaos-plan <path>` flag: when present,
    /// loads a [`yoso_chaos::FaultPlan`] from the file and arms the
    /// global fault injector for the rest of the process, printing
    /// which faults are in play. Without the flag chaos stays disarmed
    /// and every hook reduces to one relaxed atomic load.
    ///
    /// Returns `true` when a plan was armed.
    ///
    /// # Panics
    ///
    /// Panics when the flag is present but the file cannot be read or
    /// parsed — a bench invoked with a broken fault plan should fail
    /// loudly, not silently run fault-free.
    pub fn configure_chaos(&self) -> bool {
        let Some(path) = self.value("--chaos-plan") else {
            return false;
        };
        let plan = yoso_chaos::FaultPlan::load(&path)
            .unwrap_or_else(|e| panic!("--chaos-plan {path}: {e}"));
        eprintln!(
            "[chaos] armed plan from {path}: seed {}, {} rule(s): {}",
            plan.seed,
            plan.rules.len(),
            plan.rules
                .iter()
                .map(|r| r.kind.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        yoso_chaos::install(&plan);
        true
    }

    /// Applies the shared `--trace-out <path>` flag: when present,
    /// switches global telemetry collection on and opens a JSONL file
    /// sink at the given path; otherwise returns
    /// [`yoso_trace::Trace::disabled`] and leaves telemetry off (the
    /// near-no-op default). Pair with [`finish_trace`] at the end of the
    /// run.
    pub fn configure_trace(&self) -> yoso_trace::Trace {
        let Some(path) = self.value("--trace-out") else {
            return yoso_trace::Trace::disabled();
        };
        match yoso_trace::Trace::to_path(&path) {
            Ok(trace) => {
                yoso_trace::set_enabled(true);
                eprintln!("[trace] writing JSONL events to {path}");
                trace
            }
            Err(e) => {
                eprintln!("[trace] cannot open {path}: {e}; tracing disabled");
                yoso_trace::Trace::disabled()
            }
        }
    }
}

/// Prints the per-kind chaos injection counters at the end of a run and
/// disarms the injector. No-op when [`Args::configure_chaos`] armed
/// nothing.
pub fn finish_chaos() {
    if !yoso_chaos::armed() {
        return;
    }
    for s in yoso_chaos::stats() {
        if s.opportunities > 0 {
            eprintln!(
                "[chaos] {}: injected {} / {} opportunities",
                s.kind.name(),
                s.injected,
                s.opportunities
            );
        }
    }
    yoso_chaos::disarm();
}

/// End-of-run telemetry: appends the subsystem summary events
/// (`cache_summary`, `gp_summary`, `pool_summary`, `controller_summary`
/// — process-cumulative totals) to `trace`, prints an aligned summary
/// table to stdout, and flushes the sink. No-op for a disabled trace.
pub fn finish_trace(trace: &yoso_trace::Trace) {
    if !trace.is_enabled() {
        return;
    }
    use yoso_trace::Event;
    let cs = yoso_accel::cache::stats();
    let reg = yoso_trace::snapshot();
    let hist = |name: &str| -> (u64, f64) {
        reg.histogram(name)
            .map_or((0, 0.0), |h| (h.count(), h.sum() as f64 / 1e6))
    };
    trace.emit(
        Event::new("cache_summary")
            .with_u64("hits", cs.hits)
            .with_u64("misses", cs.misses)
            .with_u64("contended_reads", cs.contended_reads)
            .with_u64("contended_writes", cs.contended_writes)
            .with_u64("entries", cs.entries as u64),
    );
    let (gp_calls, gp_ms) = hist("gp.predict_batch");
    trace.emit(
        Event::new("gp_summary")
            .with_u64("batches", reg.counter("gp.batches"))
            .with_u64("points", reg.counter("gp.points"))
            .with_u64("timed_calls", gp_calls)
            .with_f64("total_ms", gp_ms),
    );
    let busy_ns = reg.counter("pool.busy_ns");
    let thread_ns = reg.counter("pool.thread_ns");
    let utilization = if thread_ns == 0 {
        0.0
    } else {
        busy_ns as f64 / thread_ns as f64
    };
    trace.emit(
        Event::new("pool_summary")
            .with_u64("maps", reg.counter("pool.maps"))
            .with_u64("items", reg.counter("pool.items"))
            .with_f64("busy_ms", busy_ns as f64 / 1e6)
            .with_f64("thread_ms", thread_ns as f64 / 1e6)
            .with_f64("utilization", utilization),
    );
    // One `controller.sample` span times a whole batch, so the rollout
    // count comes from its own counter.
    let samples = reg.counter("controller.rollouts");
    let (_, sample_ms) = hist("controller.sample");
    let (updates, update_ms) = hist("controller.update");
    trace.emit(
        Event::new("controller_summary")
            .with_u64("samples", samples)
            .with_f64("sample_ms", sample_ms)
            .with_u64("updates", updates)
            .with_f64("update_ms", update_ms),
    );
    let mut t = Table::new(&["subsystem", "metric", "value"]);
    let mut push = |sub: &str, metric: &str, value: String| {
        t.row(vec![sub.to_string(), metric.to_string(), value]);
    };
    push(
        "sim cache",
        "hits / misses",
        format!("{} / {}", cs.hits, cs.misses),
    );
    push(
        "sim cache",
        "hit rate",
        format!("{:.1}%", 100.0 * cs.hit_rate()),
    );
    push("sim cache", "entries", cs.entries.to_string());
    push(
        "sim cache",
        "contended locks",
        (cs.contended_reads + cs.contended_writes).to_string(),
    );
    push(
        "gp",
        "predict batches",
        reg.counter("gp.batches").to_string(),
    );
    push(
        "gp",
        "predicted points",
        reg.counter("gp.points").to_string(),
    );
    push("gp", "predict time", format!("{gp_ms:.1} ms"));
    push(
        "pool",
        "maps / items",
        format!(
            "{} / {}",
            reg.counter("pool.maps"),
            reg.counter("pool.items")
        ),
    );
    push(
        "pool",
        "busy / thread time",
        format!(
            "{:.1} / {:.1} ms",
            busy_ns as f64 / 1e6,
            thread_ns as f64 / 1e6
        ),
    );
    push(
        "pool",
        "utilization",
        format!("{:.1}%", 100.0 * utilization),
    );
    push(
        "controller",
        "samples",
        format!("{samples} ({sample_ms:.1} ms)"),
    );
    push(
        "controller",
        "updates",
        format!("{updates} ({update_ms:.1} ms)"),
    );
    println!("\n=== telemetry summary (cumulative) ===\n{t}");
    println!("events emitted: {}", trace.events_emitted());
    trace.flush();
}

/// Minimal aligned-column table printer for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            (0..ncol)
                .map(|i| format!("{:>width$}", cells[i], width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Rows as strings (for CSV reuse).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["model", "mse"]);
        t.row(vec!["GP".into(), "0.001".into()]);
        t.row(vec!["LinearRegression".into(), "12.5".into()]);
        let s = t.render();
        assert!(s.contains("model"));
        assert!(s.contains("LinearRegression"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn bench_meta_json_is_well_formed() {
        let meta = bench_meta_json(2);
        assert!(meta.starts_with("\"meta\": {"));
        assert!(meta.contains("\"cores\":"));
        assert!(meta.contains("\"pool_threads\":"));
        assert!(meta.contains("\"simd_tier\":"));
        assert!(!meta.contains("matmul_threads"));
        assert!(
            meta.contains("\"profile\": \"debug\"") || meta.contains("\"profile\": \"release\"")
        );
        // Embeds into a valid top-level object (balanced braces).
        let doc = format!("{{\n  {meta}\n}}");
        let opens = doc.matches('{').count();
        assert_eq!(opens, doc.matches('}').count());
    }

    fn argv(words: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(words.iter().copied())
            .map(str::to_string)
            .collect()
    }

    fn args(usage: &str, words: &[&str]) -> Args {
        Args::from_argv(usage, argv(words)).unwrap()
    }

    #[test]
    fn args_typed_accessors() {
        let usage =
            "bin [--threads N] [--seed S] [--noise X] [--paper] [--part P] [--fast-evaluator]";
        let args = args(
            usage,
            &[
                "--threads",
                "4",
                "--seed",
                "7",
                "--noise",
                "0.5",
                "--paper",
                "--part",
                "both",
            ],
        );
        assert_eq!(args.usize("--threads", 0), 4);
        assert_eq!(args.u64("--seed", 0), 7);
        assert!((args.f64("--noise", 0.0) - 0.5).abs() < 1e-12);
        assert!(args.present("--paper"));
        assert!(!args.present("--fast-evaluator"));
        assert_eq!(args.value("--part").as_deref(), Some("both"));
        assert_eq!(args.value("--missing"), None);
        assert_eq!(args.usize("--missing", 9), 9);
    }

    /// Flags deleted with what they set (the threaded GEMM's thread
    /// count, int8 scoring's precision, the sparse GP backend) and a
    /// stray word fail every bin's parse with its usage line, instead of
    /// running without effect.
    #[test]
    fn every_bin_rejects_arguments_its_usage_line_does_not_name() {
        for usage in usage::ALL {
            for words in [
                &["--matmul-threads", "2"][..],
                &["--scoring", "int8"],
                &["--surrogate", "sparse"],
                &["--seed", "1", "stray"],
            ] {
                let err = Args::from_argv(usage, argv(words)).unwrap_err();
                assert!(err.ends_with(&format!("usage: {usage}")), "{err}");
            }
        }
        let err = Args::from_argv(usage::RESUME_SMOKE, argv(&["--scoring", "int8"])).unwrap_err();
        assert!(err.starts_with("unknown argument \"--scoring\""), "{err}");
    }

    /// Every flag a usage line names is accepted, all at once, and reads
    /// back: switches as present, value flags with their value.
    #[test]
    fn every_flag_in_a_bins_usage_line_is_accepted() {
        for usage in usage::ALL {
            let flags: Vec<(&str, bool)> = usage_flags(usage).collect();
            assert!(!flags.is_empty(), "{usage}");
            let words: Vec<&str> = flags
                .iter()
                .flat_map(|&(flag, takes_value)| {
                    std::iter::once(flag).chain(takes_value.then_some("7"))
                })
                .collect();
            let parsed = Args::from_argv(usage, argv(&words)).unwrap_or_else(|e| panic!("{e}"));
            for (flag, takes_value) in flags {
                if takes_value {
                    assert_eq!(parsed.usize(flag, 0), 7, "{usage}: {flag}");
                } else {
                    assert!(parsed.present(flag), "{usage}: {flag}");
                }
            }
        }
    }

    #[test]
    fn args_pareto_out_is_an_optional_path() {
        let fig6 = usage::FIG6_SEARCH;
        assert_eq!(
            args(fig6, &["--pareto-out", "/tmp/front.csv"]).pareto_out(),
            Some(std::path::PathBuf::from("/tmp/front.csv"))
        );
        assert_eq!(args(fig6, &[]).pareto_out(), None);
    }

    /// Fake sides that log each call, for the timer's tests.
    fn logging_side<'a>(
        log: &'a std::cell::RefCell<String>,
        name: char,
    ) -> impl FnMut() -> Result<(), yoso_core::Error> + 'a {
        move || {
            log.borrow_mut().push(name);
            Ok(())
        }
    }

    #[test]
    fn interleaved_warms_each_side_once_then_alternates_which_goes_first() {
        let log = std::cell::RefCell::new(String::new());
        let [a, b] = interleaved(
            5,
            [&mut logging_side(&log, 'a'), &mut logging_side(&log, 'b')],
        )
        .unwrap();
        // Warm-up, then rounds 0..5.
        assert_eq!(log.take(), ["ab", "ab", "ba", "ab", "ba", "ab"].concat());
        for t in [&a, &b] {
            assert_eq!(t.samples_ms.len(), 5);
            assert_eq!(t.ms, Spread::of(&t.samples_ms));
        }

        let _ = interleaved(
            3,
            [
                &mut logging_side(&log, 'a'),
                &mut logging_side(&log, 'b'),
                &mut logging_side(&log, 'c'),
            ],
        )
        .unwrap();
        assert_eq!(log.take(), ["abc", "abc", "bca", "cab"].concat());
    }

    #[test]
    fn interleaved_returns_a_sides_error_and_stops() {
        let log = std::cell::RefCell::new(String::new());
        let mut calls = 0;
        let mut failing = || {
            calls += 1;
            log.borrow_mut().push('b');
            if calls == 3 {
                return Err(yoso_core::Error::InvalidConfig("side failed".into()));
            }
            Ok(())
        };
        let err = interleaved(4, [&mut logging_side(&log, 'a'), &mut failing]).unwrap_err();
        assert!(err.to_string().contains("side failed"), "{err}");
        // Warm-up, round 0, then round 1 starts with the failing side.
        assert_eq!(log.take(), "ababb");

        let mut broken = || Err(yoso_core::Error::InvalidConfig("no warm-up".into()));
        assert!(interleaved(4, [&mut broken, &mut logging_side(&log, 'a')]).is_err());
        assert_eq!(log.take(), "");
    }

    #[test]
    fn spread_orders_min_median_max() {
        let odd = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (odd.rounds, odd.min, odd.median, odd.max),
            (3, 1.0, 2.0, 3.0)
        );
        let even = Spread::of(&[4.0, 1.0, 2.0, 8.0]);
        assert_eq!(
            (even.rounds, even.min, even.median, even.max),
            (4, 1.0, 3.0, 8.0)
        );
        let per_item = even.scaled(0.5);
        assert_eq!((per_item.rounds, per_item.min, per_item.max), (4, 0.5, 4.0));
        assert_eq!(
            per_item.json(),
            "{ \"rounds\": 4, \"min\": 0.500, \"median\": 1.500, \"max\": 4.000 }"
        );
        let mut spin = || {
            std::hint::black_box((0..1000).sum::<u64>());
            Ok(())
        };
        let [t] = interleaved(9, [&mut spin]).unwrap();
        assert_eq!(t.ms.rounds, 9);
        assert!(
            t.ms.min <= t.ms.median && t.ms.median <= t.ms.max,
            "{:?}",
            t.ms
        );
    }

    #[test]
    fn temp_dir_is_removed_with_its_contents_on_drop() {
        let dir = TempDir::new("yoso_bench_temp_dir_test").unwrap();
        let path = dir.path().to_path_buf();
        fs::create_dir_all(path.join("nested")).unwrap();
        fs::write(path.join("nested/file"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn csv_roundtrip() {
        std::env::set_var(
            "YOSO_RESULTS_DIR",
            std::env::temp_dir().join("yoso_test_results"),
        );
        let rows = vec![vec!["1".to_string(), "2.5".to_string()]];
        write_csv("unit_test.csv", &["a", "b"], &rows);
        let (header, got) = read_csv("unit_test.csv").unwrap();
        assert_eq!(header, vec!["a", "b"]);
        assert_eq!(got, rows);
    }
}
