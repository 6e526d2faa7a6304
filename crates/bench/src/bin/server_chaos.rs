//! Network-chaos soak and kill-9 recovery drill for the serving stack.
//!
//! Proves the resilience contract end to end against a *real* daemon
//! process (not an in-process server):
//!
//! 1. **Network-fault soak** — a child daemon armed with a seeded
//!    `conn_drop` / `partial_write` / `stall` / `garbage_frame` plan
//!    serves a fleet of [`yoso_client::ResilientClient`] sessions.
//!    Every session must complete via auto-reconnect with its
//!    `search_iter` stream byte-identical to the in-process run of the
//!    same seed — zero lost, zero duplicated iterations.
//! 2. **Disarmed control** — the same fleet against a chaos-free child
//!    must also match the baselines (the soak's identity checks are
//!    meaningful because the clean run passes them too).
//! 3. **Kill-9 drill** — a journaling child is `SIGKILL`ed mid-run
//!    with the fleet's jobs active, relaunched on the same port and
//!    checkpoint root, and every job must still finish with a
//!    byte-identical stream, picked up from the write-ahead journal.
//!
//! Writes `BENCH_server_chaos.json` (reconnect counts, recovery time,
//! jobs recovered) into [`yoso_bench::results_dir`]. Any contract
//! violation exits nonzero — this is the CI `server-chaos` gate.
//!
//! Flags: [`yoso_bench::usage::SERVER_CHAOS`]. (It re-executes itself
//! with `--serve` as the child daemon.)

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use yoso_bench::{bench_meta_json, run_main, usage, Args, TempDir};
use yoso_chaos::{FaultKind, FaultPlan, FaultRule};
use yoso_client::{Client, ResilientClient, RetryPolicy};
use yoso_core::error::Error;
use yoso_core::evaluation::{calibrate_constraints, SurrogateEvaluator};
use yoso_core::reward::RewardConfig;
use yoso_core::search::SearchConfig;
use yoso_core::session::{SearchSession, Strategy};
use yoso_server::proto::{JobSpec, JobState};
use yoso_server::{Server, ServerConfig};
use yoso_trace::Trace;

fn reward() -> RewardConfig {
    let sk = yoso_arch::NetworkSkeleton::tiny();
    RewardConfig::balanced(calibrate_constraints(&sk, 50, 0, 50.0))
}

fn spec_for(
    tenant: &str,
    iterations: usize,
    seed: u64,
    checkpoint_every: Option<usize>,
) -> JobSpec {
    let mut spec = JobSpec::new(tenant, reward());
    spec.strategy = Strategy::Rl;
    spec.config = SearchConfig {
        iterations,
        rollouts_per_update: 3,
        seed,
        population: 10,
        tournament: 3,
    };
    spec.checkpoint_every = checkpoint_every;
    spec
}

/// The uninterrupted in-process `search_iter` stream for a spec — the
/// yardstick every served session is compared against byte-for-byte.
fn baseline_lines(spec: &JobSpec) -> Vec<String> {
    let mut spec = spec.clone();
    spec.checkpoint_every = None;
    let evaluator = SurrogateEvaluator::new(yoso_arch::NetworkSkeleton::tiny());
    let trace = Trace::memory();
    spec.apply(SearchSession::builder())
        .evaluator(&evaluator)
        .trace(trace.clone())
        .run()
        .expect("baseline run");
    search_iter(&trace.lines())
}

fn search_iter(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| l.starts_with("{\"event\":\"search_iter\""))
        .cloned()
        .collect()
}

/// Child-daemon mode: serve until a shutdown frame (or a SIGKILL from
/// the drill) arrives.
fn serve_mode(args: &Args) -> Result<(), Error> {
    let mut cfg = ServerConfig {
        addr: args.value("--addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        max_concurrent_jobs: args.usize("--max-jobs", 4),
        queue_capacity: 512,
        ..ServerConfig::default()
    };
    if let Some(root) = args.value("--root") {
        cfg.checkpoint_root = Some(root.into());
    }
    if let Some(path) = args.value("--chaos-plan") {
        let plan = FaultPlan::load(&path)
            .map_err(|e| Error::InvalidConfig(format!("--chaos-plan {path}: {e}")))?;
        yoso_chaos::install(&plan);
    }
    // A relaunch may race the killed incarnation's port release.
    let deadline = Instant::now() + Duration::from_secs(10);
    let server = loop {
        match Server::start(cfg.clone()) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                eprintln!("bind {}: {e}; retrying", cfg.addr);
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(Error::InvalidConfig(format!("bind {}: {e}", cfg.addr))),
        }
    };
    println!("listening on {}", server.addr());
    server.wait_for_shutdown_request();
    server.shutdown();
    Ok(())
}

/// A child process that is killed and reaped when dropped.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A `--serve` child daemon. Dropping it kills and reaps the child, so
/// no return path of the drill leaves a daemon running;
/// [`stop`](Daemon::stop) is the graceful path.
struct Daemon {
    child: KillOnDrop,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns this binary as a `--serve` child and parses the address it
    /// bound.
    fn spawn(extra: &[String]) -> Result<Daemon, Error> {
        let exe = std::env::current_exe()
            .map_err(|e| Error::InvalidConfig(format!("current_exe: {e}")))?;
        let mut child = KillOnDrop(
            Command::new(exe)
                .arg("--serve")
                .args(extra)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| Error::InvalidConfig(format!("spawn daemon: {e}")))?,
        );
        let stdout = child.0.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        for line in &mut lines {
            let line = line.map_err(|e| Error::InvalidConfig(format!("daemon stdout: {e}")))?;
            if let Some(addr) = line.strip_prefix("listening on ") {
                let addr = addr
                    .trim()
                    .parse()
                    .map_err(|e| Error::InvalidConfig(format!("daemon addr {addr}: {e}")))?;
                // Keep draining stdout so the child never blocks on a full
                // pipe.
                std::thread::spawn(move || for _ in lines {});
                return Ok(Daemon { child, addr });
            }
        }
        Err(Error::InvalidConfig(
            "daemon exited before printing its address".into(),
        ))
    }

    /// Asks the daemon to shut down over the wire and waits up to 15 s
    /// for it to exit; dropping the guard kills it if it has not.
    fn stop(mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown_server();
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            match self.child.0.try_wait() {
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                _ => return,
            }
        }
    }
}

struct SessionOutcome {
    tenant: String,
    matched: bool,
    reconnects: u64,
}

/// Drives one fleet of resilient sessions against `addr` and verifies
/// every stream byte-identical to its baseline. `specs` pairs each
/// session's spec with its expected `search_iter` stream.
fn drive_fleet(
    addr: SocketAddr,
    specs: &[(JobSpec, Vec<String>)],
) -> Result<Vec<SessionOutcome>, Error> {
    let mut handles = Vec::with_capacity(specs.len());
    for (spec, baseline) in specs {
        let (spec, baseline) = (spec.clone(), baseline.clone());
        let addr = addr.to_string();
        handles.push(std::thread::spawn(
            move || -> Result<SessionOutcome, String> {
                let mut rc = ResilientClient::new(
                    addr,
                    RetryPolicy {
                        max_retries: 40,
                        base_delay: Duration::from_millis(25),
                        max_delay: Duration::from_millis(500),
                        seed: spec.config.seed ^ 0xC0FFEE,
                    },
                );
                let job = rc.submit(&spec).map_err(|e| format!("submit: {e}"))?;
                let (lines, done) = rc.wait_done(job).map_err(|e| format!("wait_done: {e}"))?;
                if done.state != JobState::Completed {
                    return Err(format!(
                        "job {job} ended {} ({})",
                        done.state,
                        done.error.unwrap_or_default()
                    ));
                }
                Ok(SessionOutcome {
                    tenant: spec.tenant.clone(),
                    matched: search_iter(&lines) == baseline,
                    reconnects: rc.reconnects(),
                })
            },
        ));
    }
    let mut outcomes = Vec::with_capacity(handles.len());
    let mut failures = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(o)) => outcomes.push(o),
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push("session thread panicked".into()),
        }
    }
    if !failures.is_empty() {
        return Err(Error::InvalidConfig(format!(
            "{} of {} sessions lost: {}",
            failures.len(),
            specs.len(),
            failures.join("; ")
        )));
    }
    let diverged: Vec<&str> = outcomes
        .iter()
        .filter(|o| !o.matched)
        .map(|o| o.tenant.as_str())
        .collect();
    if !diverged.is_empty() {
        return Err(Error::InvalidConfig(format!(
            "streams diverged from baselines (lost or duplicated iterations): {diverged:?}"
        )));
    }
    Ok(outcomes)
}

fn main() {
    let args = Args::parse(usage::SERVER_CHAOS);
    if args.present("--serve") {
        run_main(|| serve_mode(&args));
    } else {
        run_main(|| real_main(&args));
    }
}

#[allow(clippy::too_many_lines)]
fn real_main(args: &Args) -> Result<(), Error> {
    let tenants = args.usize("--tenants", 4).max(1);
    let sessions = args.usize("--sessions", 2).max(1);
    let iterations = args.usize("--iterations", 14);
    let kill_iterations = args.usize("--kill-iterations", 40);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_server_chaos.json".into());
    args.configure_threads();

    // Declared before any daemon, so it is dropped (and removed) after
    // every daemon is killed, on every exit path.
    let scratch = TempDir::new("yoso_server_chaos")
        .map_err(|e| Error::InvalidConfig(format!("scratch dir: {e}")))?;

    // Baselines for every session, computed chaos-free in this process.
    println!("computing {} baselines...", tenants * sessions);
    let mut soak_specs = Vec::new();
    for t in 0..tenants {
        for s in 0..sessions {
            let spec = spec_for(
                &format!("soak-t{t}"),
                iterations,
                31_000 + (t * sessions + s) as u64,
                None,
            );
            let baseline = baseline_lines(&spec);
            soak_specs.push((spec, baseline));
        }
    }

    // Phase 1: network-fault soak. The child arms the plan; every
    // outbound frame may be dropped, truncated, stalled or preceded by
    // garbage, and the fleet must self-heal around all of it.
    println!("\n=== phase 1: network-fault soak ===");
    let mut plan = FaultPlan::new(4801);
    plan.rules.push(FaultRule::rate(FaultKind::ConnDrop, 0.03));
    plan.rules
        .push(FaultRule::rate(FaultKind::PartialWrite, 0.03));
    plan.rules
        .push(FaultRule::rate(FaultKind::GarbageFrame, 0.06));
    plan.rules
        .push(FaultRule::rate(FaultKind::Stall, 0.05).delay_ms(5));
    let plan_path = scratch.path().join("net_faults.plan");
    plan.save(&plan_path)
        .map_err(|e| Error::InvalidConfig(format!("write plan: {e}")))?;
    let daemon = Daemon::spawn(&[
        "--chaos-plan".into(),
        plan_path.display().to_string(),
        "--max-jobs".into(),
        "4".into(),
    ])?;
    let soak_start = Instant::now();
    let soak = drive_fleet(daemon.addr, &soak_specs)?;
    let soak_s = soak_start.elapsed().as_secs_f64();
    let soak_reconnects: u64 = soak.iter().map(|o| o.reconnects).sum();
    daemon.stop();
    println!(
        "  {} sessions byte-identical under chaos in {soak_s:.2}s ({soak_reconnects} reconnects)",
        soak.len()
    );

    // Phase 2: disarmed control — same fleet, chaos-free child.
    println!("\n=== phase 2: disarmed control ===");
    let daemon = Daemon::spawn(&["--max-jobs".into(), "4".into()])?;
    let clean_start = Instant::now();
    let clean = drive_fleet(daemon.addr, &soak_specs)?;
    let clean_s = clean_start.elapsed().as_secs_f64();
    let clean_reconnects: u64 = clean.iter().map(|o| o.reconnects).sum();
    daemon.stop();
    println!(
        "  {} sessions byte-identical clean in {clean_s:.2}s ({clean_reconnects} reconnects)",
        clean.len()
    );

    // Phase 3: kill-9 drill. Longer journaled jobs; the daemon dies
    // mid-run and a relaunch on the same port + root must recover every
    // job from the write-ahead journal.
    println!("\n=== phase 3: kill -9 recovery drill ===");
    let root = scratch.path().join("drill_root");
    std::fs::create_dir_all(&root).map_err(|e| Error::InvalidConfig(format!("drill root: {e}")))?;
    let mut drill_specs = Vec::new();
    for t in 0..tenants {
        let spec = spec_for(
            &format!("drill-t{t}"),
            kill_iterations,
            52_000 + t as u64,
            Some(5),
        );
        let baseline = baseline_lines(&spec);
        drill_specs.push((spec, baseline));
    }
    let daemon = Daemon::spawn(&[
        "--root".into(),
        root.display().to_string(),
        "--max-jobs".into(),
        "2".into(),
    ])?;
    let addr = daemon.addr;

    // The fleet runs in the background while this thread pulls the
    // trigger.
    let fleet_specs = drill_specs.clone();
    let fleet = std::thread::spawn(move || drive_fleet(addr, &fleet_specs));

    // Kill once jobs are demonstrably mid-flight.
    let armed_at = Instant::now();
    loop {
        if armed_at.elapsed() > Duration::from_secs(30) {
            break; // kill anyway; recovery handles any in-between state
        }
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(s) = c.stats() {
                if s.running > 0 {
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(500));
    drop(daemon); // SIGKILL, then reap
    println!("  daemon SIGKILLed mid-run; relaunching on {addr}");

    let relaunch = Instant::now();
    let daemon = Daemon::spawn(&[
        "--root".into(),
        root.display().to_string(),
        "--addr".into(),
        addr.to_string(),
        "--max-jobs".into(),
        "2".into(),
    ])?;
    let recovery_ms = relaunch.elapsed().as_secs_f64() * 1e3;
    if daemon.addr != addr {
        return Err(Error::InvalidConfig(format!(
            "relaunched daemon bound {}, expected {addr}",
            daemon.addr
        )));
    }
    let mut admin =
        Client::connect(addr).map_err(|e| Error::InvalidConfig(format!("admin reconnect: {e}")))?;
    let jobs_recovered = admin
        .stats()
        .map_err(|e| Error::InvalidConfig(format!("admin stats: {e}")))?
        .jobs_recovered;
    if jobs_recovered == 0 {
        return Err(Error::InvalidConfig(
            "relaunched daemon recovered no jobs from the journal".into(),
        ));
    }
    println!(
        "  relaunched in {recovery_ms:.0} ms; {jobs_recovered} job(s) recovered from the journal"
    );

    let drill = fleet
        .join()
        .map_err(|_| Error::InvalidConfig("fleet thread panicked".into()))??;
    let drill_reconnects: u64 = drill.iter().map(|o| o.reconnects).sum();
    if drill_reconnects == 0 {
        return Err(Error::InvalidConfig(
            "kill -9 drill finished without a single reconnect — the kill missed the run".into(),
        ));
    }
    println!(
        "  {} sessions byte-identical across the kill ({drill_reconnects} reconnects)",
        drill.len()
    );
    drop(admin);
    daemon.stop();

    let meta = bench_meta_json(2);
    let json = format!(
        "{{\n  \"bench\": \"server chaos soak\",\n  {meta},\n  \"config\": {{\n    \"tenants\": {tenants},\n    \"sessions_per_tenant\": {sessions},\n    \"iterations_per_job\": {iterations},\n    \"kill_drill_iterations\": {kill_iterations}\n  }},\n  \"network_soak\": {{\n    \"sessions\": {},\n    \"byte_identical\": true,\n    \"reconnects\": {soak_reconnects},\n    \"wall_s\": {soak_s:.3}\n  }},\n  \"disarmed_control\": {{\n    \"sessions\": {},\n    \"byte_identical\": true,\n    \"reconnects\": {clean_reconnects},\n    \"wall_s\": {clean_s:.3}\n  }},\n  \"kill9_drill\": {{\n    \"sessions\": {},\n    \"byte_identical\": true,\n    \"jobs_recovered\": {jobs_recovered},\n    \"reconnects\": {drill_reconnects},\n    \"relaunch_to_listening_ms\": {recovery_ms:.1}\n  }}\n}}\n",
        soak.len(),
        clean.len(),
        drill.len(),
    );
    let path = yoso_bench::results_dir().join(&out);
    std::fs::write(&path, json).map_err(|e| Error::InvalidConfig(format!("write {out}: {e}")))?;
    println!("\nwritten {}", path.display());
    Ok(())
}
