//! Multi-tenant load generator for the yoso-server daemon.
//!
//! Boots an in-process [`yoso_server::Server`], then drives it through
//! two phases:
//!
//! 1. **Cache phase** — for tenant counts 1, 2, 4, 8 (capped at
//!    `--tenants`), each tenant runs the *same* search (same seed) on a
//!    workload fresh to that phase. The first tenant populates the
//!    process-wide simulator cache; every later tenant rides its
//!    entries, so the aggregate cross-tenant hit rate must increase
//!    strictly with the tenant count.
//! 2. **Load phase** — `--tenants` x `--sessions` concurrent client
//!    connections (default 8 x 13 = 104) each submit one streaming job
//!    and collect its live `search_iter` events. Zero lost jobs, every
//!    stream complete; client-side, the gap between consecutive
//!    `search_iter` arrivals and the time from sending the submit to the
//!    first one.
//!
//! 3. **Journal phase** (in-process mode only) — the same job batch
//!    runs against a journal-free server and a crash-consistent one
//!    (write-ahead journal under a scratch `checkpoint_root`), after a
//!    warm-up pass so every timed batch rides the simulator cache
//!    identically, in repeated rounds that alternate which side goes
//!    first. The median round's journal overhead must stay ≤ 10% of
//!    throughput, and a restart on the populated root must recover
//!    every journaled job (the measured recovery time is reported).
//!
//! Writes `BENCH_server.json` (jobs/sec, inter-event gap and
//! submit-to-first-event p50/p99, hit rate vs tenant count, journal
//! overhead & recovery time) into
//! [`yoso_bench::results_dir`].
//!
//! With `--addr HOST:PORT` the in-process server is skipped and the
//! load is driven against an already-running `yoso_serve` daemon
//! instead; phase-1 cache accounting then comes from `stats` deltas
//! over the wire, and the final `shutdown` frame stops the daemon (the
//! CI `server` job boots the binary, runs loadgen against it, and
//! waits for a clean exit).
//!
//! Flags: [`yoso_bench::usage::LOADGEN`].

use std::net::SocketAddr;
use std::time::Instant;

use yoso_bench::{bench_meta_json, interleaved, run_main, usage, Args, Spread, Table, TempDir};
use yoso_client::Client;
use yoso_core::error::Error;
use yoso_core::evaluation::calibrate_constraints;
use yoso_core::reward::RewardConfig;
use yoso_core::search::SearchConfig;
use yoso_core::session::Strategy;
use yoso_server::proto::{JobSpec, JobState, Reply};
use yoso_server::{Server, ServerConfig};

/// Timed plain/journaled rounds of the journal phase.
const JOURNAL_ROUNDS: usize = 15;

fn spec_for(tenant: &str, reward: RewardConfig, iterations: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(tenant, reward);
    spec.strategy = Strategy::Rl;
    spec.config = SearchConfig {
        iterations,
        rollouts_per_update: 4,
        seed,
        population: 20,
        tournament: 5,
    };
    spec
}

/// One streamed job as its client saw it.
struct Streamed {
    /// Gaps between consecutive event frames, in ms, each taken at a
    /// `search_iter` arrival (the first from the submit ack).
    gaps: Vec<f64>,
    /// Submit sent → first `search_iter` arrival, in ms.
    first_event: Option<f64>,
}

/// Runs one streaming job to completion, timestamping each event frame
/// as it arrives.
fn drive_job(addr: SocketAddr, spec: &JobSpec, expect_iters: usize) -> Result<Streamed, Error> {
    let err = |e: yoso_client::ClientError| Error::InvalidConfig(format!("loadgen client: {e}"));
    let mut client = Client::connect(addr).map_err(err)?;
    let submitted = Instant::now();
    let job = client.submit(spec, true).map_err(err)?;
    let mut iters = 0usize;
    let mut gaps = Vec::new();
    let mut first_event = None;
    let mut last = Instant::now();
    loop {
        match client.next_event().map_err(err)? {
            Reply::Event { line, .. } => {
                let now = Instant::now();
                if line.starts_with("{\"event\":\"search_iter\"") {
                    gaps.push(now.duration_since(last).as_secs_f64() * 1e3);
                    first_event.get_or_insert(now.duration_since(submitted).as_secs_f64() * 1e3);
                    iters += 1;
                }
                last = now;
            }
            Reply::Done(done) => {
                if done.state != JobState::Completed {
                    return Err(Error::InvalidConfig(format!(
                        "job {job} for {:?} ended {} ({})",
                        spec.tenant,
                        done.state,
                        done.error.unwrap_or_default()
                    )));
                }
                if iters != expect_iters {
                    return Err(Error::InvalidConfig(format!(
                        "job {job} streamed {iters} search_iter events, expected {expect_iters}"
                    )));
                }
                return Ok(Streamed { gaps, first_event });
            }
            other => {
                return Err(Error::InvalidConfig(format!(
                    "unexpected frame {other:?} on job {job}"
                )))
            }
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    run_main(real_main);
}

#[allow(clippy::too_many_lines)]
fn real_main() -> Result<(), Error> {
    let args = Args::parse(usage::LOADGEN);
    let tenants = args.usize("--tenants", 8).max(1);
    let sessions = args.usize("--sessions", 13).max(1);
    let iterations = args.usize("--iterations", 12);
    let max_jobs = args.usize("--max-jobs", 8);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_server.json".into());
    args.configure_threads();
    args.configure_chaos();

    let skeleton = yoso_arch::NetworkSkeleton::tiny();
    let reward = RewardConfig::balanced(calibrate_constraints(&skeleton, 50, 0, 50.0));

    let (server, addr): (Option<Server>, SocketAddr) = match args.value("--addr") {
        Some(a) => {
            let addr = a
                .parse()
                .map_err(|e| Error::InvalidConfig(format!("--addr {a}: {e}")))?;
            println!("driving external server on {addr}");
            (None, addr)
        }
        None => {
            let server = Server::start(ServerConfig {
                max_concurrent_jobs: max_jobs,
                queue_capacity: (tenants * sessions + 16).max(256),
                skeleton: skeleton.clone(),
                ..ServerConfig::default()
            })
            .map_err(|e| Error::InvalidConfig(format!("server bind: {e}")))?;
            let addr = server.addr();
            println!("server up on {addr} ({max_jobs} runners)");
            (Some(server), addr)
        }
    };
    let client_err =
        |e: yoso_client::ClientError| Error::InvalidConfig(format!("loadgen client: {e}"));
    let mut admin = Client::connect(addr).map_err(client_err)?;

    // Phase 1: cross-tenant cache hit rate vs tenant count. Jobs run
    // back-to-back (submit, wait) so each phase is deterministic: the
    // first tenant warms the cache, the rest ride it.
    println!("\n=== phase 1: cross-tenant cache reuse ===");
    let mut phase_rows: Vec<(usize, u64, u64, f64)> = Vec::new();
    let baseline = admin.stats().map_err(client_err)?;
    let mut prev = (baseline.cache_hits, baseline.cache_misses);
    for (phase, &t) in [1usize, 2, 4, 8].iter().enumerate() {
        let t = t.min(tenants.max(1));
        if phase_rows.iter().any(|&(n, ..)| n == t) {
            continue;
        }
        // A seed unused by any other phase keeps this phase's design
        // points fresh, so reuse within the phase is cross-tenant only.
        let phase_seed = 7_000 + 13 * phase as u64;
        let names: Vec<String> = (0..t).map(|i| format!("cache-p{phase}-t{i}")).collect();
        for name in &names {
            let spec = spec_for(name, reward, iterations, phase_seed);
            drive_job(addr, &spec, iterations)?;
        }
        // In-process: per-tenant attribution straight from the cache.
        // External daemon: the tenant ledgers live in its process, so
        // take the process-wide stats delta instead — equivalent here
        // because the phase's jobs ran back-to-back with nothing else.
        let (hits, misses) = if server.is_some() {
            let stats = yoso_accel::cache::tenant_stats();
            let (mut hits, mut misses) = (0u64, 0u64);
            for s in stats.iter().filter(|s| names.contains(&s.tenant)) {
                hits += s.hits;
                misses += s.misses;
            }
            (hits, misses)
        } else {
            let s = admin.stats().map_err(client_err)?;
            let delta = (s.cache_hits - prev.0, s.cache_misses - prev.1);
            prev = (s.cache_hits, s.cache_misses);
            delta
        };
        let rate = hits as f64 / (hits + misses).max(1) as f64;
        println!(
            "  {t} tenant(s): {hits} hits / {misses} misses = {:.1}%",
            100.0 * rate
        );
        phase_rows.push((t, hits, misses, rate));
    }
    let strictly_increasing = phase_rows.windows(2).all(|w| w[1].3 > w[0].3);
    if phase_rows.len() > 1 && !strictly_increasing {
        return Err(Error::InvalidConfig(format!(
            "cross-tenant hit rate not strictly increasing: {phase_rows:?}"
        )));
    }

    // Phase 2: concurrent multi-tenant load — one client connection
    // per session, all submitting streaming jobs at once.
    let total_jobs = tenants * sessions;
    println!(
        "\n=== phase 2: {tenants} tenants x {sessions} sessions = {total_jobs} concurrent jobs ==="
    );
    let load_start = Instant::now();
    let mut handles = Vec::with_capacity(total_jobs);
    for tenant_i in 0..tenants {
        for session_i in 0..sessions {
            let spec = spec_for(
                &format!("load-t{tenant_i}"),
                reward,
                iterations,
                90_000 + (tenant_i * sessions + session_i) as u64,
            );
            handles.push(std::thread::spawn(move || {
                drive_job(addr, &spec, iterations)
            }));
        }
    }
    let mut gaps: Vec<f64> = Vec::with_capacity(total_jobs * iterations);
    let mut firsts: Vec<f64> = Vec::with_capacity(total_jobs);
    let mut completed = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(Ok(mut job)) => {
                completed += 1;
                gaps.append(&mut job.gaps);
                firsts.extend(job.first_event);
            }
            Ok(Err(e)) => failures.push(e.to_string()),
            Err(_) => failures.push("client thread panicked".to_string()),
        }
    }
    let wall_s = load_start.elapsed().as_secs_f64();
    if !failures.is_empty() {
        return Err(Error::InvalidConfig(format!(
            "{} of {total_jobs} jobs lost: {}",
            failures.len(),
            failures.join("; ")
        )));
    }
    let jobs_per_sec = completed as f64 / wall_s.max(1e-9);
    gaps.sort_by(|a, b| a.total_cmp(b));
    firsts.sort_by(|a, b| a.total_cmp(b));
    let (gap_p50, gap_p99) = (percentile(&gaps, 0.50), percentile(&gaps, 0.99));
    let (first_p50, first_p99) = (percentile(&firsts, 0.50), percentile(&firsts, 0.99));
    println!(
        "  {completed}/{total_jobs} jobs in {wall_s:.2}s = {jobs_per_sec:.1} jobs/s; \
         inter-event gap p50 {gap_p50:.2} ms, p99 {gap_p99:.2} ms; \
         submit to first event p50 {first_p50:.2} ms, p99 {first_p99:.2} ms"
    );

    // Server-side accounting for the load phase, then a graceful stop
    // (this is also what shuts down an external `yoso_serve` daemon).
    let server_stats = admin.stats().map_err(client_err)?;
    if server_stats.failed != 0 {
        return Err(Error::InvalidConfig(format!(
            "server reports {} failed jobs",
            server_stats.failed
        )));
    }
    let in_process = server.is_some();
    admin.shutdown_server().map_err(client_err)?;
    drop(admin);
    if let Some(server) = server {
        server.shutdown();
    }

    // Phase 3 (in-process only; an external daemon's disk is not ours
    // to journal on): journal overhead + crash-recovery cost. A
    // journal-free server and one with the write-ahead journal armed
    // each run the same batch of jobs once untimed (same seeds, so every
    // timed batch rides the simulator cache identically and the delta
    // isolates the journal path), then in `JOURNAL_ROUNDS` timed rounds
    // that alternate which side goes first (`interleaved`). A batch takes
    // a fraction of a second, so one pair sits within noise of the bound;
    // the gate is the median of the rounds' paired overheads. The journal
    // root is a `TempDir`, removed on every exit path.
    let journal_json = if in_process {
        println!("\n=== phase 3: journal overhead & recovery ===");
        let journal_jobs = tenants.max(4);
        let batch_seed = 40_000u64;
        let run_batch = |addr: SocketAddr| -> Result<(), Error> {
            for i in 0..journal_jobs {
                let spec = spec_for(
                    &format!("journal-t{i}"),
                    reward,
                    iterations,
                    batch_seed + i as u64,
                );
                drive_job(addr, &spec, iterations)?;
            }
            Ok(())
        };
        let start_server = |root: Option<std::path::PathBuf>| -> Result<Server, Error> {
            Server::start(ServerConfig {
                max_concurrent_jobs: max_jobs,
                skeleton: skeleton.clone(),
                checkpoint_root: root,
                ..ServerConfig::default()
            })
            .map_err(|e| Error::InvalidConfig(format!("journal-phase bind: {e}")))
        };

        let root = TempDir::new("yoso_loadgen_journal")
            .map_err(|e| Error::InvalidConfig(format!("journal scratch root: {e}")))?;
        let plain = start_server(None)?;
        let journaled = start_server(Some(root.path().to_path_buf()))?;
        let [plain_t, journaled_t] = interleaved(
            JOURNAL_ROUNDS,
            [&mut || run_batch(plain.addr()), &mut || {
                run_batch(journaled.addr())
            }],
        )?;
        let mut jc = Client::connect(journaled.addr()).map_err(client_err)?;
        let fsyncs = jc.stats().map_err(client_err)?.journal_fsyncs;
        jc.shutdown_server().map_err(client_err)?;
        drop(jc);
        journaled.shutdown();
        plain.shutdown();

        let overhead: Vec<f64> = plain_t
            .samples_ms
            .iter()
            .zip(&journaled_t.samples_ms)
            .map(|(plain, journaled)| 100.0 * (journaled - plain) / plain.max(1e-9))
            .collect();
        let overhead = Spread::of(&overhead);
        let [plain_wall, journaled_wall] = [plain_t.ms, journaled_t.ms].map(|t| t.scaled(1e-3));
        println!(
            "  {journal_jobs} jobs x {JOURNAL_ROUNDS} rounds: plain {:.3}s, journaled \
             {:.3}s (medians); overhead {:+.1}% median, {:+.1}% to {:+.1}%, {fsyncs} fsyncs",
            plain_wall.median, journaled_wall.median, overhead.median, overhead.min, overhead.max
        );
        if overhead.median > 10.0 {
            return Err(Error::InvalidConfig(format!(
                "median journal overhead {:.1}% over {JOURNAL_ROUNDS} rounds exceeds the 10% \
                 budget (plain {:.3}s vs journaled {:.3}s)",
                overhead.median, plain_wall.median, journaled_wall.median
            )));
        }

        // Recovery: a fresh server on the populated root must pick up
        // every journaled job at startup.
        let recover_start = Instant::now();
        let recovered_server = start_server(Some(root.path().to_path_buf()))?;
        let recovery_ms = recover_start.elapsed().as_secs_f64() * 1e3;
        let mut rc = Client::connect(recovered_server.addr()).map_err(client_err)?;
        let recovered = rc.stats().map_err(client_err)?.jobs_recovered;
        rc.shutdown_server().map_err(client_err)?;
        drop(rc);
        recovered_server.shutdown();
        // Warm-up plus every round.
        let journaled_jobs = (journal_jobs * (JOURNAL_ROUNDS + 1)) as u64;
        if recovered != journaled_jobs {
            return Err(Error::InvalidConfig(format!(
                "restart recovered {recovered} jobs from the journal, expected {journaled_jobs}"
            )));
        }
        println!("  restart recovered {recovered} jobs in {recovery_ms:.1} ms");
        format!(
            "{{\n    \"jobs\": {journal_jobs},\n    \"rounds\": {JOURNAL_ROUNDS},\n    \"plain_wall_s\": {},\n    \"journaled_wall_s\": {},\n    \"overhead_pct\": {},\n    \"fsyncs\": {fsyncs},\n    \"restart_recovery_ms\": {recovery_ms:.2},\n    \"jobs_recovered\": {recovered}\n  }}",
            plain_wall.json(),
            journaled_wall.json(),
            overhead.json(),
        )
    } else {
        println!("\n(journal phase skipped: external daemon)");
        "null".to_string()
    };

    let mut table = Table::new(&["tenants", "hits", "misses", "hit rate"]);
    for &(t, h, m, r) in &phase_rows {
        table.row(vec![
            t.to_string(),
            h.to_string(),
            m.to_string(),
            format!("{:.1}%", 100.0 * r),
        ]);
    }
    println!("\ncross-tenant cache reuse:\n{table}");

    let phases_json: Vec<String> = phase_rows
        .iter()
        .map(|&(t, h, m, r)| {
            format!(
                "      {{ \"tenants\": {t}, \"hits\": {h}, \"misses\": {m}, \"hit_rate\": {r:.4} }}"
            )
        })
        .collect();
    let meta = bench_meta_json(2);
    let json = format!(
        "{{\n  \"bench\": \"server load\",\n  {meta},\n  \"config\": {{\n    \"tenants\": {tenants},\n    \"sessions_per_tenant\": {sessions},\n    \"iterations_per_job\": {iterations},\n    \"max_concurrent_jobs\": {max_jobs}\n  }},\n  \"throughput\": {{\n    \"jobs\": {completed},\n    \"lost_jobs\": 0,\n    \"wall_s\": {wall_s:.3},\n    \"jobs_per_sec\": {jobs_per_sec:.2}\n  }},\n  \"inter_event_gap_ms\": {{\n    \"events\": {},\n    \"p50\": {gap_p50:.3},\n    \"p99\": {gap_p99:.3}\n  }},\n  \"submit_to_first_event_ms\": {{\n    \"jobs\": {},\n    \"p50\": {first_p50:.3},\n    \"p99\": {first_p99:.3}\n  }},\n  \"cache\": {{\n    \"process_hits\": {},\n    \"process_misses\": {},\n    \"hit_rate_by_tenant_count\": [\n{}\n    ],\n    \"strictly_increasing\": {strictly_increasing}\n  }},\n  \"journal\": {journal_json}\n}}\n",
        gaps.len(),
        firsts.len(),
        server_stats.cache_hits,
        server_stats.cache_misses,
        phases_json.join(",\n"),
    );
    let path = yoso_bench::results_dir().join(&out);
    std::fs::write(&path, json).map_err(|e| Error::InvalidConfig(format!("write {out}: {e}")))?;
    println!("written {}", path.display());
    Ok(())
}
