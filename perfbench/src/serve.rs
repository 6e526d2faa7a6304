//! The `serve` workload: the `yoso_serve` daemon at its defaults with its
//! write-ahead journal on, driven over loopback by two client connections
//! in a closed loop of streaming evolution jobs.

use crate::json::Json;
use crate::procfs::{vm_hwm_kib, ProcStat};
use crate::spans::SpanLog;
use crate::{pick, splitmix, Ctx, Report};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use yoso_arch::NetworkSkeleton;
use yoso_client::Client;
use yoso_core::evaluation::{calibrate_constraints, SurrogateEvaluator};
use yoso_core::reward::RewardConfig;
use yoso_core::search::SearchConfig;
use yoso_core::session::{SearchSession, Strategy};
use yoso_server::proto::{JobSpec, JobState, Reply};
use yoso_trace::Trace;

/// Jobs per second of `--seconds`, over both connections: on the
/// reference host (2 vCPU) the run then lasts about the requested time.
const JOBS_PER_S: f64 = 43.0;
/// Client connections, each a closed loop.
const CONNECTIONS: usize = 2;
/// Iterations per job; every job must stream exactly this many.
const ITERATIONS: usize = 200;
/// Served jobs re-run in-process by the correctness gate.
const RECHECKS: usize = 8;
/// How long the daemon gets to exit after a shutdown request.
const EXIT_WAIT: Duration = Duration::from_secs(60);

const SEARCH_ITER: &str = "{\"event\":\"search_iter\"";

/// A spawned daemon; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    root: PathBuf,
}

impl Daemon {
    /// Spawns the daemon with its journal under a fresh `root` and waits
    /// for its `listening on` line.
    fn spawn(bin: &Path, root: PathBuf) -> Result<(Daemon, String), String> {
        let _ = std::fs::remove_dir_all(&root);
        let mut child = Command::new(bin)
            .arg("--checkpoint-root")
            .arg(&root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            root,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon stdout: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon output {line:?}"))?
            .to_string();
        Ok((daemon, addr))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits for the daemon to exit after a shutdown request; `Ok(true)`
    /// when it exited with status 0.
    fn wait_exit(&mut self) -> Result<bool, String> {
        let deadline = Instant::now() + EXIT_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return Ok(status.success());
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Client-side record of one job.
#[derive(Debug, Default, Clone)]
struct JobRec {
    conn: usize,
    index: usize,
    job: u64,
    submit: Option<Instant>,
    ack: Option<Instant>,
    first: Option<Instant>,
    last: Option<Instant>,
    done: Option<Instant>,
    state: Option<JobState>,
    best_reward: Option<f64>,
    search_iters: u64,
    events: u64,
    frame_bytes: u64,
    error: Option<String>,
    /// Served `search_iter` lines, kept for jobs the gate re-runs.
    lines: Vec<String>,
}

fn spec_for(seed: u64, conn: usize, index: usize, reward: RewardConfig) -> JobSpec {
    let mut spec = JobSpec::new(format!("bench-{conn}"), reward);
    spec.strategy = Strategy::Evolution;
    spec.config = SearchConfig {
        iterations: ITERATIONS,
        seed: splitmix(seed ^ ((conn as u64) << 32) ^ index as u64),
        population: 20,
        tournament: 5,
        ..SearchConfig::default()
    };
    spec
}

/// Runs one connection's closed loop: submit, stream to `job_done`,
/// submit the next.
fn drive(
    client: &mut Client,
    conn: usize,
    specs: &[JobSpec],
    keep: &[usize],
    count_bytes: bool,
) -> Vec<JobRec> {
    let mut out = Vec::with_capacity(specs.len());
    for (index, spec) in specs.iter().enumerate() {
        let mut rec = JobRec {
            conn,
            index,
            submit: Some(Instant::now()),
            ..JobRec::default()
        };
        match client.submit(spec, true) {
            Ok(job) => {
                rec.ack = Some(Instant::now());
                rec.job = job;
                stream(client, &mut rec, keep.contains(&index), count_bytes);
            }
            Err(e) => rec.error = Some(format!("submit: {e}")),
        }
        let failed = rec.error.is_some();
        out.push(rec);
        if failed {
            break;
        }
    }
    out
}

fn stream(client: &mut Client, rec: &mut JobRec, keep: bool, count_bytes: bool) {
    loop {
        let frame = match client.next_event() {
            Ok(f) => f,
            Err(e) => {
                rec.error = Some(format!("stream: {e}"));
                return;
            }
        };
        let now = Instant::now();
        if count_bytes {
            rec.frame_bytes += frame.to_json().len() as u64 + 1;
        }
        match frame {
            Reply::Event { job, line, .. } if job == rec.job => {
                rec.events += 1;
                if line.starts_with(SEARCH_ITER) {
                    rec.search_iters += 1;
                    rec.first.get_or_insert(now);
                    rec.last = Some(now);
                    if keep {
                        rec.lines.push(line);
                    }
                }
            }
            Reply::Done(done) if done.job == rec.job => {
                rec.done = Some(now);
                rec.state = Some(done.state);
                rec.best_reward = done.best_reward;
                if count_bytes {
                    if let Some(front) = client.pareto_front(rec.job) {
                        let frame = Reply::ParetoFront(front.clone());
                        rec.frame_bytes += frame.to_json().len() as u64 + 1;
                    }
                }
                return;
            }
            other => {
                rec.error = Some(format!("unexpected frame {other:?}"));
                return;
            }
        }
    }
}

/// The two connections of a set-up daemon.
type Setup = (Daemon, Client, Client);

fn setup(ctx: &Ctx, bin: &Path) -> Result<Setup, String> {
    let root = ctx.work_dir.join(format!("journal-{}", std::process::id()));
    let (daemon, addr) = Daemon::spawn(bin, root)?;
    let c0 = Client::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
    let c1 = Client::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
    Ok((daemon, c0, c1))
}

/// The `serve` workload.
pub fn serve(ctx: &Ctx, report: &mut Report) {
    let Some(bin) = ctx.serve_bin.as_deref() else {
        return report.error("serve needs --serve-bin".into());
    };
    let tiny = NetworkSkeleton::tiny();
    let reward = RewardConfig::balanced(calibrate_constraints(&tiny, 300, ctx.seed, 40.0));
    let per_conn = ((JOBS_PER_S * ctx.seconds as f64) / CONNECTIONS as f64)
        .round()
        .max(1.0) as usize;
    let specs: Vec<Vec<JobSpec>> = (0..CONNECTIONS)
        .map(|c| {
            (0..per_conn)
                .map(|i| spec_for(ctx.seed, c, i, reward))
                .collect()
        })
        .collect();
    // The gate re-runs a seed-chosen sample of jobs in-process.
    let keep: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| pick(ctx.seed ^ c as u64, per_conn, RECHECKS / CONNECTIONS))
        .collect();

    let t0 = Instant::now();
    let set_up = setup(ctx, bin);
    report.setup_s = t0.elapsed().as_secs_f64();
    let (mut daemon, mut c0, mut c1) = match set_up {
        Ok(s) => s,
        Err(e) => return report.error(format!("setup: {e}")),
    };
    if ctx.setup_only {
        return shutdown(report, &mut daemon, &mut c0);
    }

    let pid = daemon.pid();
    let stats0 = c0.stats();
    let proc0 = ProcStat::read(&pid).unwrap_or_default();
    let count_bytes = ctx.traced();
    let origin = Instant::now();
    let (jobs0, jobs1) = std::thread::scope(|s| {
        let (specs1, keep1) = (&specs[1], &keep[1]);
        let other = s.spawn(move || drive(&mut c1, 1, specs1, keep1, count_bytes));
        let mine = drive(&mut c0, 0, &specs[0], &keep[0], count_bytes);
        (mine, other.join().expect("connection thread panicked"))
    });
    let proc1 = ProcStat::read(&pid).unwrap_or_default();
    let hwm = vm_hwm_kib(&pid).unwrap_or(0);
    let stats1 = c0.stats();
    let jobs: Vec<JobRec> = jobs0.into_iter().chain(jobs1).collect();

    let mut stats = Json::obj();
    match (&stats0, &stats1) {
        (Ok(a), Ok(b)) => {
            stats = stats
                .set("cache_hits", b.cache_hits.saturating_sub(a.cache_hits))
                .set(
                    "cache_misses",
                    b.cache_misses.saturating_sub(a.cache_misses),
                )
                .set(
                    "journal_fsyncs",
                    b.journal_fsyncs.saturating_sub(a.journal_fsyncs),
                );
        }
        _ => report.error("stats request failed".into()),
    }
    shutdown(report, &mut daemon, &mut c0);
    report.peak_rss_kib = hwm;

    // Correctness: every planned job completed with exactly ITERATIONS
    // search_iter events, and the sampled ones match an in-process run
    // byte for byte.
    let planned = (CONNECTIONS * per_conn) as u64;
    let ok = |j: &JobRec| {
        j.error.is_none()
            && j.state == Some(JobState::Completed)
            && j.search_iters == ITERATIONS as u64
    };
    let good = jobs.iter().filter(|j| ok(j)).count() as u64;
    report.attempted += planned;
    report.failed += planned.saturating_sub(good);
    for j in jobs.iter().filter(|j| !ok(j)) {
        report.error(format!(
            "job {} (conn {} #{}): state {:?}, {} search_iter events, error {:?}",
            j.job, j.conn, j.index, j.state, j.search_iters, j.error
        ));
    }
    let evaluator = SurrogateEvaluator::new(tiny);
    for j in jobs
        .iter()
        .filter(|j| keep[j.conn].contains(&j.index) && ok(j))
    {
        let trace = Trace::memory();
        let ran = specs[j.conn][j.index]
            .apply(SearchSession::builder())
            .evaluator(&evaluator)
            .trace(trace.clone())
            .run();
        let local: Vec<String> = trace
            .lines()
            .into_iter()
            .filter(|l| l.starts_with(SEARCH_ITER))
            .collect();
        if ran.is_err() || local != j.lines {
            report.error(format!(
                "job {} (conn {} #{}): served stream differs from the in-process run",
                j.job, j.conn, j.index
            ));
        }
    }
    report.best_reward = jobs
        .iter()
        .filter_map(|j| j.best_reward)
        .fold(f64::NAN, f64::max);

    let ns = |t: Option<Instant>| t.map(|t| duration_ns(origin, t));
    report.put("stats", stats);
    report.put("daemon_proc", proc1.since(&proc0).json());
    report.put(
        "jobs",
        Json::Arr(
            jobs.iter()
                .map(|j| {
                    Json::obj()
                        .set("conn", j.conn)
                        .set("job", j.job)
                        .set("submit_ns", ns(j.submit))
                        .set("ack_ns", ns(j.ack))
                        .set("first_ns", ns(j.first))
                        .set("last_ns", ns(j.last))
                        .set("done_ns", ns(j.done))
                        .set("search_iters", j.search_iters)
                        .set("events", j.events)
                        .set("frame_bytes", j.frame_bytes)
                })
                .collect(),
        ),
    );
    if let Some(log) = ctx.log.as_ref() {
        record_job_spans(log, &jobs);
    }
}

fn duration_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Asks the daemon to stop. A lost `shutting_down` reply is counted,
/// never retried; the daemon must still exit with status 0.
fn shutdown(report: &mut Report, daemon: &mut Daemon, client: &mut Client) {
    let lost = client.shutdown_server().is_err();
    report.put("shutdown_ack_lost", lost);
    match daemon.wait_exit() {
        Ok(true) => {}
        Ok(false) => report.error("daemon exited with a failure status".into()),
        Err(e) => report.error(e),
    }
}

/// Each job as a span with its four client-observed phases as children;
/// spans of one job share its id.
fn record_job_spans(log: &SpanLog, jobs: &[JobRec]) {
    for j in jobs {
        let (Some(s), Some(a), Some(f), Some(l), Some(d)) =
            (j.submit, j.ack, j.first, j.last, j.done)
        else {
            continue;
        };
        let job = log.push(
            "job",
            None,
            j.job,
            ITERATIONS as u64,
            log.ns_at(s),
            log.ns_at(d),
        );
        for (name, from, to) in [
            ("client.submit_ack", s, a),
            ("server.ack_to_first_result", a, f),
            ("server.stream", f, l),
            ("server.done_tail", l, d),
        ] {
            log.push(name, Some(job), j.job, 0, log.ns_at(from), log.ns_at(to));
        }
    }
}
