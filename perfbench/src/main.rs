//! Workload runner of the repository benchmark. One invocation runs one
//! workload in a fresh process and prints one JSON report line of raw
//! measurements; `run.py` builds this binary and the daemon, and turns
//! reports into metrics.
//!
//! ```text
//! perfbench <paper_search|surrogate_rl|serve> --seed N --seconds S
//!           [--trace] [--setup-only] [--serve-bin PATH] [--work-dir DIR]
//! ```
//!
//! `--seconds` sizes the work: each workload runs a fixed number of
//! candidates or jobs per requested second, so that the same seed and
//! seconds always give the same inputs.

mod json;
mod procfs;
mod searches;
mod serve;
mod spans;
mod timed;

use json::Json;
use procfs::{vm_hwm_kib, HostCpu, ProcStat};
use spans::SpanLog;
use std::path::PathBuf;

/// Run parameters shared by the workloads.
pub struct Ctx {
    seed: u64,
    seconds: u64,
    setup_only: bool,
    serve_bin: Option<PathBuf>,
    work_dir: PathBuf,
    /// Present on the traced run only.
    log: Option<SpanLog>,
}

impl Ctx {
    fn traced(&self) -> bool {
        self.log.is_some()
    }
}

/// What a workload measured; printed as the report line.
pub struct Report {
    setup_s: f64,
    best_reward: f64,
    attempted: u64,
    failed: u64,
    /// Peak resident set of the working process in KiB (the daemon for
    /// `serve`); 0 means "this process".
    peak_rss_kib: u64,
    errors: Vec<String>,
    phases: Vec<Json>,
    /// Workload-specific report fields.
    extra: Vec<(String, Json)>,
}

impl Report {
    fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    fn put(&mut self, key: &str, value: impl Into<Json>) {
        self.extra.push((key.to_string(), value.into()));
    }
}

/// SplitMix64: a seed-derived stream for choosing job seeds and samples.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Up to `k` distinct indices below `n`, chosen by `seed`, ascending.
pub fn pick(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut state = seed;
    while out.len() < k.min(n) {
        state = splitmix(state);
        let i = (state % n as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out.sort_unstable();
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <paper_search|surrogate_rl|serve> --seed N --seconds S \
         [--trace] [--setup-only] [--serve-bin PATH] [--work-dir DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let number = |flag: &str| value(flag).map(|v| v.parse::<u64>().unwrap_or_else(|_| usage()));
    let workload = argv.first().cloned().unwrap_or_else(|| usage());
    let ctx = Ctx {
        seed: number("--seed").unwrap_or(0),
        seconds: number("--seconds").unwrap_or(10).max(1),
        setup_only: argv.iter().any(|a| a == "--setup-only"),
        serve_bin: value("--serve-bin").map(PathBuf::from),
        work_dir: value("--work-dir").map_or_else(|| PathBuf::from("."), PathBuf::from),
        log: argv.iter().any(|a| a == "--trace").then(SpanLog::new),
    };
    if ctx.traced() {
        yoso_trace::set_enabled(true);
    }
    let mut report = Report {
        setup_s: 0.0,
        best_reward: f64::NAN,
        attempted: 0,
        failed: 0,
        peak_rss_kib: 0,
        errors: Vec::new(),
        phases: Vec::new(),
        extra: Vec::new(),
    };
    let proc0 = ProcStat::read("self").unwrap_or_default();
    let host0 = HostCpu::read().unwrap_or_default();
    match workload.as_str() {
        "paper_search" => searches::paper_search(&ctx, &mut report),
        "surrogate_rl" => searches::surrogate_rl(&ctx, &mut report),
        "serve" => serve::serve(&ctx, &mut report),
        _ => usage(),
    }
    if report.peak_rss_kib == 0 {
        report.peak_rss_kib = vm_hwm_kib("self").unwrap_or(0);
    }
    let host = Json::obj()
        .set(
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .set("pool_threads", yoso_pool::num_threads())
        .set("matmul_threads", yoso_tensor::matmul_threads())
        .set("simd_tier", yoso_tensor::simd_tier().to_string())
        .set(
            "cpu",
            HostCpu::read().unwrap_or_default().since_json(&host0),
        );
    let mut out = Json::obj()
        .set("workload", workload)
        .set("seed", ctx.seed)
        .set("seconds", ctx.seconds)
        .set("traced", ctx.traced())
        .set("setup_only", ctx.setup_only)
        .set("setup_s", report.setup_s)
        .set("best_reward", report.best_reward)
        .set("attempted", report.attempted)
        .set("failed", report.failed)
        .set("peak_rss_kib", report.peak_rss_kib)
        .set(
            "errors",
            Json::Arr(report.errors.into_iter().map(Json::Str).collect()),
        )
        .set("phases", Json::Arr(report.phases))
        .set(
            "self_proc",
            ProcStat::read("self")
                .unwrap_or_default()
                .since(&proc0)
                .json(),
        )
        .set("host", host);
    for (k, v) in report.extra {
        out = out.set(&k, v);
    }
    if let Some(log) = &ctx.log {
        out = out.set("spans", log.json());
    }
    println!("{}", out.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_is_seeded_distinct_and_bounded() {
        let a = pick(7, 50, 8);
        assert_eq!(a, pick(7, 50, 8));
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[7] < 50);
        assert_eq!(pick(7, 3, 8), vec![0, 1, 2]);
        assert!(pick(7, 0, 8).is_empty());
    }
}
