//! # yoso-server
//!
//! Co-design-as-a-service: a multi-tenant search daemon over
//! [`yoso_core::session::SearchSession`].
//!
//! The server listens on plain TCP and speaks the versioned framed-JSON
//! protocol defined in [`proto`] (one newline-terminated flat JSON
//! object per frame — no external async runtime, no serde on the wire).
//! Each accepted job runs as a `SearchSession` on a fixed pool of
//! runner threads; its structured trace stream is captured live through
//! a [`yoso_trace::Trace::forward`] sink and fanned out byte-identical
//! to every subscribed connection, so a served job's `search_iter`
//! JSONL is exactly what the same seed produces in-process.
//!
//! Multi-tenancy:
//!
//! * **Shared simulator cache** — all tenants hit the process-wide
//!   [`yoso_accel::cache`]; runner threads tag themselves with
//!   [`yoso_accel::cache::set_thread_tenant`] so per-tenant hit rates
//!   are accounted (`tenant_stats`), and a design point simulated for
//!   one tenant is a cache hit for every other.
//! * **Admission control** — at most `max_concurrent_jobs` run at
//!   once; up to `queue_capacity` more wait in a FIFO queue; beyond
//!   that submits are refused with
//!   [`proto::ErrorCode::AdmissionFull`] (backpressure, not
//!   buffering).
//! * **Fault isolation** — runner threads enter a per-tenant
//!   [`yoso_chaos`] scope ([`yoso_chaos::scope_for`] of the tenant
//!   name), so tenant-scoped fault rules hit only that tenant's jobs;
//!   each tenant's injected faults and quarantined candidates accrue
//!   to a ledger, and once a configured `tenant_fault_budget` is
//!   exhausted further submissions from that tenant are refused with
//!   [`proto::ErrorCode::FaultBudgetExhausted`].
//!
//! Serving resilience (DESIGN.md §13):
//!
//! * **Crash consistency** — with a `checkpoint_root` configured, every
//!   admission, trace line and terminal frame is appended to a
//!   checksummed write-ahead [`journal`]; a daemon killed with
//!   `SIGKILL` mid-run recovers *all* tenant jobs on restart
//!   (interrupted jobs auto-resume from their newest checkpoint and
//!   replay `search_iter` streams byte-identically; finished jobs come
//!   back fully replayable).
//! * **Connection hardening** — per-connection read/write deadlines,
//!   heartbeat `ping`/`pong` probes on idle connections, bounded
//!   per-subscriber write queues with slow-consumer eviction, and a
//!   graceful drain shutdown with a deadline (counters:
//!   `server.slow_client_evictions`, `server.heartbeats_missed`,
//!   `server.journal_fsyncs`, `server.drain_timeouts`).
//! * **Network chaos** — the outbound write path is instrumented with
//!   the `conn_drop` / `partial_write` / `stall` / `garbage_frame`
//!   fault kinds of [`yoso_chaos`], so a seeded plan can prove clients
//!   self-heal (see `yoso-client`'s `ResilientClient`).
//!
//! Suspend/resume rides on the session's crash-safe checkpoints
//! ([`yoso_persist`] snapshots): a `suspend` request raises the job's
//! cancel flag, the session stops at the next update boundary and
//! writes a suspend checkpoint, and a later `resume` — on this server
//! process *or a freshly restarted one* — replays bit-identically from
//! the `spec.json` + checkpoint persisted under
//! `checkpoint_root/<job>/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod proto;

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use proto::{ErrorCode, JobDone, JobSpec, JobState, JobStatus, Reply, Request, ServerStats};
use yoso_arch::NetworkSkeleton;
use yoso_chaos::FaultKind;
use yoso_core::error::Error as CoreError;
use yoso_core::evaluation::{Evaluator, SurrogateEvaluator};
use yoso_core::session::SearchSession;
use yoso_trace::Trace;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Runner threads — jobs executing simultaneously.
    pub max_concurrent_jobs: usize,
    /// Jobs allowed to wait beyond the running ones; submits past this
    /// are refused with [`ErrorCode::AdmissionFull`].
    pub queue_capacity: usize,
    /// Cumulative faults (injected + quarantined) a tenant may accrue
    /// before its submissions are refused. `None` disables the ledger
    /// check.
    pub tenant_fault_budget: Option<u64>,
    /// Directory for per-job persistence (`<root>/<job>/spec.json` +
    /// checkpoints) and the write-ahead job journal. `None` disables
    /// suspend-to-disk, across-restart resume and crash recovery.
    pub checkpoint_root: Option<PathBuf>,
    /// Skeleton for the server-side surrogate evaluator; must match
    /// the one an in-process run uses for byte-identical streams.
    pub skeleton: NetworkSkeleton,
    /// Per-connection socket read deadline; doubles as the heartbeat
    /// interval — an idle connection gets a `ping` probe each time the
    /// deadline elapses.
    pub read_timeout: Duration,
    /// Per-connection socket write deadline, so a stalled client can
    /// never pin the connection's writer thread.
    pub write_timeout: Duration,
    /// Consecutive unanswered heartbeat probes before the connection
    /// is declared dead and closed (`server.heartbeats_missed`).
    pub heartbeat_misses: u32,
    /// Bound on a connection's outbound frame queue; a subscriber that
    /// falls this far behind is evicted (`server.slow_client_evictions`)
    /// rather than buffered without bound.
    pub max_subscriber_queue: usize,
    /// How long [`Server::shutdown`] waits for runner threads to drain
    /// before journaling-and-abandoning their jobs
    /// (`server.drain_timeouts`).
    pub drain_timeout: Duration,
    /// Journal fsync cadence: flush to disk every this many appends
    /// (admissions and terminal records always sync). `0` syncs only
    /// at those boundaries.
    pub journal_fsync_every: u64,
    /// Replay the job journal at startup, restoring finished jobs'
    /// replayable logs and auto-resuming interrupted ones. Only
    /// meaningful with a `checkpoint_root`.
    pub recover_jobs: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_concurrent_jobs: 4,
            queue_capacity: 256,
            tenant_fault_budget: None,
            checkpoint_root: None,
            skeleton: NetworkSkeleton::tiny(),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            heartbeat_misses: 3,
            max_subscriber_queue: 4096,
            drain_timeout: Duration::from_secs(30),
            journal_fsync_every: 64,
            recover_jobs: true,
        }
    }
}

/// Resilience counters, mirrored into [`yoso_trace`] (`server.*`) and
/// the `server_stats` wire frame.
#[derive(Default)]
struct Counters {
    slow_client_evictions: AtomicU64,
    heartbeats_missed: AtomicU64,
    journal_fsyncs: AtomicU64,
    drain_timeouts: AtomicU64,
    jobs_recovered: AtomicU64,
}

/// Writer half of one client connection: a bounded frame queue drained
/// by a dedicated writer thread, so producers (runner threads pushing
/// job events) never block on a slow socket. A queue overflowing its
/// bound evicts the subscriber — memory stays bounded no matter how
/// stalled the client is. All outbound frames pass the network-chaos
/// injection sites.
struct ConnWriter {
    queue: Mutex<VecDeque<String>>,
    cv: Condvar,
    alive: AtomicBool,
    /// Set when the read loop ends: the writer thread drains what is
    /// queued, then exits.
    closing: AtomicBool,
    cap: usize,
    stream: TcpStream,
    counters: Arc<Counters>,
    /// Salt decorrelating this connection's chaos draws from other
    /// connections'.
    chaos_salt: u64,
}

impl ConnWriter {
    fn new(stream: TcpStream, cap: usize, counters: Arc<Counters>, chaos_salt: u64) -> Self {
        ConnWriter {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            alive: AtomicBool::new(true),
            closing: AtomicBool::new(false),
            cap: cap.max(1),
            stream,
            counters,
            chaos_salt,
        }
    }

    /// Enqueues one frame for the writer thread. Never blocks: if the
    /// queue is at capacity the connection is evicted instead.
    fn send(&self, frame: &str) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.cap {
            drop(q);
            self.counters
                .slow_client_evictions
                .fetch_add(1, Ordering::Relaxed);
            yoso_trace::counter_add("server.slow_client_evictions", 1);
            self.close();
            return;
        }
        // Room for the newline `write_frame` appends.
        let mut owned = String::with_capacity(frame.len() + 1);
        owned.push_str(frame);
        q.push_back(owned);
        drop(q);
        self.cv.notify_one();
    }

    /// Marks the connection for graceful teardown: queued frames are
    /// still written, then the writer thread exits. The flag is set under
    /// the queue lock, which the writer holds from its check to its wait,
    /// so the wake-up cannot fall between the two.
    fn finish(&self) {
        let q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        self.closing.store(true, Ordering::Relaxed);
        drop(q);
        self.cv.notify_all();
    }

    /// Hard-closes the connection: drops queued frames and shuts the
    /// socket down.
    fn close(&self) {
        self.alive.store(false, Ordering::Relaxed);
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.cv.notify_all();
        let _ = self.stream.shutdown(NetShutdown::Both);
    }

    /// The writer thread body: pops frames and writes them with the
    /// chaos injection sites applied.
    fn writer_loop(self: &Arc<Self>) {
        let mut frame_idx: u64 = 0;
        loop {
            let frame = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(f) = q.pop_front() {
                        break Some(f);
                    }
                    if self.closing.load(Ordering::Relaxed) || !self.alive.load(Ordering::Relaxed) {
                        break None;
                    }
                    q = self.cv.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some(frame) = frame else { return };
            if !self.write_frame(frame, frame_idx) {
                self.close();
                return;
            }
            frame_idx += 1;
        }
    }

    /// Writes one frame and its newline in one `write_all`, applying the
    /// network fault kinds when a chaos plan is armed. Returns false when
    /// the connection should die.
    fn write_frame(&self, mut frame: String, idx: u64) -> bool {
        let mut s = &self.stream;
        if yoso_chaos::armed() {
            if yoso_chaos::should_fault_indexed(FaultKind::ConnDrop, idx, 0, self.chaos_salt) {
                return false;
            }
            if yoso_chaos::should_fault_indexed(FaultKind::Stall, idx, 0, self.chaos_salt) {
                std::thread::sleep(yoso_chaos::delay_of(FaultKind::Stall));
            }
            if yoso_chaos::should_fault_indexed(FaultKind::GarbageFrame, idx, 0, self.chaos_salt)
                && writeln!(s, "\u{1}\u{2}!!not-a-frame!!{{{{").is_err()
            {
                return false;
            }
            if yoso_chaos::should_fault_indexed(FaultKind::PartialWrite, idx, 0, self.chaos_salt) {
                // Half a frame, no newline, then drop the connection —
                // the signature of a peer dying mid-write.
                let half = &frame.as_bytes()[..frame.len() / 2];
                let _ = s.write_all(half).and_then(|()| s.flush());
                return false;
            }
        }
        frame.push('\n');
        s.write_all(frame.as_bytes()).is_ok()
    }
}

/// One job's ordered event log plus its live subscribers. Replay and
/// attach happen under the same lock as appends, so a subscriber sees
/// every line exactly once, in order.
struct JobLog {
    job: u64,
    lines: Vec<String>,
    /// Live subscribers, each with the lowest `seq` it asked for.
    subs: Vec<(Arc<ConnWriter>, u64)>,
    /// Pre-serialized `pareto_front` frame for a completed run, sent
    /// right before the `job_done` frame and replayed on `subscribe`.
    pareto: Option<String>,
    done: Option<JobDone>,
}

impl JobLog {
    fn push(&mut self, line: &str) {
        let seq = self.lines.len() as u64;
        self.lines.push(line.to_string());
        if self.subs.is_empty() {
            return;
        }
        let frame = Reply::Event {
            job: self.job,
            seq,
            line: line.to_string(),
        }
        .to_json();
        self.subs.retain(|(s, _)| s.alive.load(Ordering::Relaxed));
        for (sub, _) in self.subs.iter().filter(|(_, from)| seq >= *from) {
            sub.send(&frame);
        }
    }

    fn finish(&mut self, pareto: Option<String>, done: JobDone) {
        let frame = Reply::Done(done.clone()).to_json();
        for (sub, _) in self.subs.drain(..) {
            if let Some(p) = &pareto {
                sub.send(p);
            }
            sub.send(&frame);
        }
        self.pareto = pareto;
        self.done = Some(done);
    }

    /// Replays the log from event sequence `from` (0 = everything),
    /// then attaches for live events (or the terminal frames, for a
    /// finished job). No event below `from` is sent, live or replayed —
    /// the idempotent-resume contract a reconnecting client relies on.
    fn attach_from(&mut self, sub: Arc<ConnWriter>, from: u64) {
        for (seq, line) in self.lines.iter().enumerate().skip(from as usize) {
            let frame = Reply::Event {
                job: self.job,
                seq: seq as u64,
                line: line.clone(),
            }
            .to_json();
            sub.send(&frame);
        }
        if let Some(done) = &self.done {
            if let Some(p) = &self.pareto {
                sub.send(p);
            }
            sub.send(&Reply::Done(done.clone()).to_json());
        } else {
            self.subs.push((sub, from));
        }
    }
}

struct Job {
    spec: JobSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
    iterations_done: Arc<AtomicU64>,
    best_reward: Option<f64>,
    error: Option<String>,
    checkpoint: Option<PathBuf>,
    log: Arc<Mutex<JobLog>>,
}

impl Job {
    fn new(id: u64, spec: JobSpec) -> Job {
        Job {
            spec,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            iterations_done: Arc::new(AtomicU64::new(0)),
            best_reward: None,
            error: None,
            checkpoint: None,
            log: Arc::new(Mutex::new(JobLog {
                job: id,
                lines: Vec::new(),
                subs: Vec::new(),
                pareto: None,
                done: None,
            })),
        }
    }

    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            job: id,
            tenant: self.spec.tenant.clone(),
            state: self.state,
            iterations_done: self.iterations_done.load(Ordering::Relaxed),
            iterations_total: self.spec.config.iterations as u64,
            best_reward: self.best_reward,
            error: self.error.clone(),
            checkpoint: self
                .checkpoint
                .as_ref()
                .map(|p| p.to_string_lossy().into_owned()),
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    jobs: Mutex<HashMap<u64, Job>>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    shutting_down: AtomicBool,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    tenant_faults: Mutex<HashMap<String, u64>>,
    conns: Mutex<Vec<Weak<ConnWriter>>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    journal: Option<Mutex<journal::Journal>>,
    counters: Arc<Counters>,
    conn_salt: AtomicU64,
}

impl Shared {
    /// The evaluator a job runs on. Admission asks a fresh one whether
    /// it can score a spec before anything is written.
    fn evaluator(&self) -> SurrogateEvaluator {
        SurrogateEvaluator::new(self.cfg.skeleton.clone())
    }

    fn job_dir(&self, id: u64) -> Option<PathBuf> {
        self.cfg
            .checkpoint_root
            .as_ref()
            .map(|root| root.join(id.to_string()))
    }

    fn charge_tenant(&self, tenant: &str, faults: u64) {
        if faults == 0 {
            return;
        }
        let mut ledger = self.tenant_faults.lock().unwrap_or_else(|e| e.into_inner());
        *ledger.entry(tenant.to_string()).or_insert(0) += faults;
    }

    /// Appends one record to the job journal (no-op without one).
    fn journal_append(&self, rec: &journal::Record) -> std::io::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
        if j.append(rec)? {
            self.counters.journal_fsyncs.fetch_add(1, Ordering::Relaxed);
            yoso_trace::counter_add("server.journal_fsyncs", 1);
        }
        Ok(())
    }
}

/// Parses the completed-iteration count out of a checkpoint file name
/// (`ckpt_<iteration:08>.snap`, the format of
/// [`yoso_core::checkpoint::checkpoint_file_name`]).
fn checkpoint_iteration(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("ckpt_")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

fn is_search_iter(line: &str) -> bool {
    line.starts_with("{\"event\":\"search_iter\"")
}

fn is_search_start(line: &str) -> bool {
    line.starts_with("{\"event\":\"search_start\"")
}

/// The prefix of a journaled line log covered by a checkpoint at `k`
/// completed iterations: everything up to (excluding) the `(k+1)`-th
/// `search_iter` line. The resumed session re-emits the remainder
/// byte-identically, so keeping more would duplicate events.
fn truncate_to_iterations(lines: &[String], k: u64) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = 0u64;
    for line in lines {
        if is_search_iter(line) {
            if seen == k {
                break;
            }
            seen += 1;
        }
        out.push(line.clone());
    }
    out
}

/// A running daemon. Dropping (or calling [`shutdown`](Server::shutdown))
/// stops accepting, cancels running jobs at their next checkpoint
/// boundary, and drains every thread (with a deadline on the runners).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl Server {
    /// Binds, replays the job journal (when persistence is configured),
    /// spawns the runner pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable, or a
    /// filesystem error from opening/compacting the journal. Damaged
    /// journal *contents* never fail startup — corrupt records and
    /// jobs are skipped, typed in the recovery counters.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let runner_count = cfg.max_concurrent_jobs.max(1);
        let counters = Arc::new(Counters::default());

        // Journal recovery, before anything can run: reconstruct jobs,
        // compact the journal, and queue interrupted jobs for resume.
        let mut restored: Vec<(u64, Job)> = Vec::new();
        let mut resume_queue: VecDeque<u64> = VecDeque::new();
        let mut max_restored_id = 0u64;
        let journal = match &cfg.checkpoint_root {
            Some(root) => {
                if cfg.recover_jobs {
                    let recovery = journal::recover(root)?;
                    let mut compacted: Vec<journal::RecoveredJob> = Vec::new();
                    for rec in recovery.jobs {
                        match restore_job(root, &rec) {
                            Some((job, auto_resume, kept)) => {
                                max_restored_id = max_restored_id.max(rec.job);
                                if auto_resume {
                                    resume_queue.push_back(rec.job);
                                }
                                compacted.push(journal::RecoveredJob { lines: kept, ..rec });
                                restored.push((rec.job, job));
                            }
                            None => {
                                // Unparseable spec or terminal frame:
                                // skip the job, drop it from the
                                // compacted journal.
                            }
                        }
                    }
                    counters
                        .jobs_recovered
                        .fetch_add(restored.len() as u64, Ordering::Relaxed);
                    yoso_trace::counter_add("server.jobs_recovered", restored.len() as u64);
                    Some(Mutex::new(journal::rewrite(
                        root,
                        &compacted,
                        cfg.journal_fsync_every,
                    )?))
                } else {
                    Some(Mutex::new(journal::Journal::open(
                        root,
                        cfg.journal_fsync_every,
                    )?))
                }
            }
            None => None,
        };

        let shared = Arc::new(Shared {
            cfg,
            jobs: Mutex::new(restored.into_iter().collect()),
            queue: Mutex::new(resume_queue),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(max_restored_id + 1),
            shutting_down: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            tenant_faults: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
            journal,
            counters,
            conn_salt: AtomicU64::new(0),
        });
        let runners = (0..runner_count)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("yoso-runner-{i}"))
                    .spawn(move || runner_loop(&shared))
                    .expect("spawn runner thread")
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("yoso-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawn accept thread")
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            runners,
            stopped: false,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until some client sends a `shutdown` request (the daemon
    /// binary's main-thread parking spot).
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops accepting, cancels running jobs (they suspend at the next
    /// boundary when persistence is on), closes client connections and
    /// drains every thread. Runner threads get `drain_timeout` to
    /// finish; one that overruns is journaled-and-abandoned
    /// (`server.drain_timeouts`) — its job is recoverable from the
    /// journal on the next start.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        {
            let jobs = self.shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            for job in jobs.values() {
                if job.state == JobState::Running {
                    job.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
        self.shared.queue_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Flush, then close: shutting a socket's read half ends its
        // handler's read loop, whose exit lets the writer thread write
        // what is queued (a `shutting_down` reply included) before the
        // handler shuts the socket. A connection still flushing at the
        // deadline is hard-closed, dropping the rest.
        let conns: Vec<Arc<ConnWriter>> = self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter_map(Weak::upgrade)
            .collect();
        for conn in &conns {
            let _ = conn.stream.shutdown(NetShutdown::Read);
        }
        let handlers = std::mem::take(
            &mut *self
                .shared
                .handlers
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        for h in &handlers {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for conn in &conns {
            conn.close();
        }
        for h in handlers {
            let _ = h.join();
        }
        // Drain the runners with a deadline instead of unbounded joins:
        // a job wedged past the deadline is abandoned — every line it
        // emitted is already journaled, so the next start recovers it.
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        for r in self.runners.drain(..) {
            while !r.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if r.is_finished() {
                let _ = r.join();
            } else {
                self.shared
                    .counters
                    .drain_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                yoso_trace::counter_add("server.drain_timeouts", 1);
            }
        }
        if let Some(journal) = &self.shared.journal {
            let _ = journal.lock().unwrap_or_else(|e| e.into_inner()).sync();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// Rebuilds one in-memory [`Job`] from a journal-recovered record.
/// Returns the job, whether it must be auto-resumed, and the (possibly
/// truncated) line log it was seeded with; `None` when the record is
/// unusable (unparseable spec/terminal frame).
fn restore_job(root: &Path, rec: &journal::RecoveredJob) -> Option<(Job, bool, Vec<String>)> {
    let spec = JobSpec::parse(rec.spec_json.trim()).ok()?;
    let id = rec.job;
    let dir = root.join(id.to_string());
    let mut job = Job::new(id, spec);

    let done = match &rec.done_json {
        Some(frame) => match Reply::parse(frame) {
            Ok(Reply::Done(done)) => Some(done),
            _ => return None,
        },
        None => None,
    };

    match done {
        Some(done) if done.state == JobState::Completed || done.state == JobState::Failed => {
            // Finished: restore the full replayable log and terminal
            // frames; nothing to run.
            job.state = done.state;
            job.best_reward = done.best_reward;
            job.error = done.error.clone();
            job.iterations_done
                .store(done.iterations, Ordering::Relaxed);
            let mut log = job.log.lock().unwrap_or_else(|e| e.into_inner());
            log.lines = rec.lines.clone();
            log.pareto = rec.pareto_json.clone();
            log.done = Some(done);
            drop(log);
            Some((job, false, rec.lines.clone()))
        }
        Some(done) => {
            // Suspended on purpose: restore as suspended, log truncated
            // to the checkpoint the suspend wrote; wait for `resume`.
            let checkpoint = yoso_core::checkpoint::latest_checkpoint(&dir)
                .ok()
                .flatten();
            let k = rec
                .durable
                .or_else(|| checkpoint.as_deref().and_then(checkpoint_iteration))
                .unwrap_or(done.iterations);
            let kept = truncate_to_iterations(&rec.lines, k);
            job.state = JobState::Suspended;
            job.checkpoint = checkpoint;
            job.iterations_done.store(
                kept.iter().filter(|l| is_search_iter(l)).count() as u64,
                Ordering::Relaxed,
            );
            job.log.lock().unwrap_or_else(|e| e.into_inner()).lines = kept.clone();
            Some((job, false, kept))
        }
        None => {
            // Interrupted mid-run (crash): seed the log with the prefix
            // the newest checkpoint covers and auto-resume; the session
            // re-emits the remainder byte-identically.
            let checkpoint = yoso_core::checkpoint::latest_checkpoint(&dir)
                .ok()
                .flatten();
            let k = checkpoint
                .as_deref()
                .and_then(checkpoint_iteration)
                .unwrap_or(0);
            let kept = truncate_to_iterations(&rec.lines, k);
            job.state = JobState::Queued;
            job.checkpoint = checkpoint;
            job.iterations_done.store(
                kept.iter().filter(|l| is_search_iter(l)).count() as u64,
                Ordering::Relaxed,
            );
            job.log.lock().unwrap_or_else(|e| e.into_inner()).lines = kept.clone();
            Some((job, true, kept))
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        prepare_accepted(&stream, &shared.cfg);
        let shared2 = shared.clone();
        let handle = std::thread::Builder::new()
            .name("yoso-conn".to_string())
            .spawn(move || handle_conn(&shared2, stream))
            .expect("spawn connection thread");
        shared
            .handlers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }
}

/// Socket set-up of an accepted connection, before the stream reaches
/// any thread. Deadlines: a half-open client can stall a read or write
/// for at most one timeout. No delay: each frame is already one write
/// (`ConnWriter::write_frame`), so Nagle's algorithm would only hold a
/// frame back until the client's delayed ACK (up to ~40 ms on Linux).
fn prepare_accepted(stream: &TcpStream, cfg: &ServerConfig) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);
}

/// One read attempt's outcome on a connection.
enum ReadOutcome {
    /// A complete line (without the newline).
    Line(String),
    /// The socket read deadline elapsed with no data.
    TimedOut,
    /// The line exceeded [`proto::MAX_FRAME_LEN`]; the overflow was
    /// discarded through the next newline.
    Oversized,
    /// EOF or a hard socket error.
    Closed,
}

/// Reads one newline-terminated frame with a hard length cap, so a
/// hostile peer cannot make the server buffer an unbounded line. `buf`
/// carries a partial line across read timeouts; `overflowed` remembers
/// that the line in progress already blew the cap (its bytes are being
/// discarded until the newline).
fn read_frame_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    overflowed: &mut bool,
) -> ReadOutcome {
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return ReadOutcome::Closed,
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return ReadOutcome::TimedOut;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Closed,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let over = *overflowed || buf.len() + nl > proto::MAX_FRAME_LEN;
                if !over {
                    buf.extend_from_slice(&chunk[..nl]);
                }
                reader.consume(nl + 1);
                *overflowed = false;
                if over {
                    buf.clear();
                    return ReadOutcome::Oversized;
                }
                let line = String::from_utf8_lossy(buf).into_owned();
                buf.clear();
                return ReadOutcome::Line(line);
            }
            None => {
                let n = chunk.len();
                if !*overflowed && buf.len() + n <= proto::MAX_FRAME_LEN {
                    buf.extend_from_slice(chunk);
                } else {
                    // Past the cap: drop bytes (bounded memory) until
                    // the newline shows up, then report the oversize.
                    *overflowed = true;
                    buf.clear();
                }
                reader.consume(n);
            }
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let salt = shared.conn_salt.fetch_add(1, Ordering::Relaxed);
    let writer = Arc::new(ConnWriter::new(
        write_half,
        shared.cfg.max_subscriber_queue,
        shared.counters.clone(),
        salt,
    ));
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::downgrade(&writer));
    let writer_thread = {
        let writer = writer.clone();
        std::thread::Builder::new()
            .name("yoso-conn-writer".to_string())
            .spawn(move || writer.writer_loop())
            .expect("spawn connection writer thread")
    };

    let mut reader = BufReader::new(stream);
    let mut partial = Vec::new();
    let mut overflowed = false;
    let mut misses: u32 = 0;
    loop {
        match read_frame_line(&mut reader, &mut partial, &mut overflowed) {
            ReadOutcome::Line(line) => {
                misses = 0;
                if line.trim().is_empty() {
                    continue;
                }
                let req = Request::parse(&line);
                if matches!(req, Ok(Request::Pong)) {
                    continue; // heartbeat answer; nothing to reply
                }
                let shutdown = matches!(req, Ok(Request::Shutdown));
                let reply = match req {
                    Ok(req) => handle_request(shared, &writer, req),
                    Err(e) => Reply::Error {
                        code: e.code,
                        message: e.message,
                    },
                };
                writer.send(&reply.to_json());
                if shutdown {
                    // Wake the main thread only once the reply is queued:
                    // `Server::shutdown` flushes queued frames, so the
                    // client always gets its `shutting_down`.
                    *shared
                        .shutdown_requested
                        .lock()
                        .unwrap_or_else(|e| e.into_inner()) = true;
                    shared.shutdown_cv.notify_all();
                }
            }
            ReadOutcome::TimedOut => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                misses += 1;
                if misses > shared.cfg.heartbeat_misses {
                    shared
                        .counters
                        .heartbeats_missed
                        .fetch_add(1, Ordering::Relaxed);
                    yoso_trace::counter_add("server.heartbeats_missed", 1);
                    break;
                }
                writer.send(&Reply::Ping.to_json());
            }
            ReadOutcome::Oversized => {
                writer.send(
                    &Reply::Error {
                        code: ErrorCode::MalformedFrame,
                        message: format!("frame exceeds {} byte cap", proto::MAX_FRAME_LEN),
                    }
                    .to_json(),
                );
            }
            ReadOutcome::Closed => break,
        }
        if !writer.alive.load(Ordering::Relaxed) {
            break;
        }
    }
    writer.finish();
    let _ = writer_thread.join();
    writer.close();
}

fn handle_request(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, req: Request) -> Reply {
    match req {
        Request::Submit { spec, stream } => submit(shared, writer, spec, stream),
        Request::Status { job } => with_job(shared, job, |id, j| Reply::Status(j.status(id))),
        Request::Suspend { job } => suspend(shared, job),
        Request::Resume { job, stream } => resume(shared, writer, job, stream),
        Request::Subscribe { job, from_seq } => {
            subscribe(shared, writer, job, from_seq.unwrap_or(0))
        }
        Request::Stats => Reply::Stats(stats(shared)),
        Request::Pong => Reply::Ping, // unreachable; pongs are consumed in handle_conn
        Request::Shutdown => {
            shared.shutting_down.store(true, Ordering::SeqCst);
            {
                let jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
                for job in jobs.values() {
                    if job.state == JobState::Running {
                        job.cancel.store(true, Ordering::SeqCst);
                    }
                }
            }
            shared.queue_cv.notify_all();
            Reply::ShuttingDown
        }
    }
}

fn error(code: ErrorCode, message: impl Into<String>) -> Reply {
    Reply::Error {
        code,
        message: message.into(),
    }
}

fn with_job(shared: &Shared, id: u64, f: impl FnOnce(u64, &Job) -> Reply) -> Reply {
    let jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
    match jobs.get(&id) {
        Some(job) => f(id, job),
        None => error(ErrorCode::UnknownJob, format!("no job {id}")),
    }
}

fn submit(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, spec: JobSpec, stream: bool) -> Reply {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return error(ErrorCode::ShuttingDown, "server is shutting down");
    }
    // The session builder makes the same check, but only once the job
    // runs: by then it would be journaled, acknowledged and queued.
    let evaluator = shared.evaluator();
    evaluator.set_scoring_precision(spec.scoring);
    if evaluator.scoring_precision() != spec.scoring {
        return error(
            ErrorCode::InvalidSpec,
            format!(
                "evaluator `{}` cannot score at {} precision",
                evaluator.name(),
                spec.scoring
            ),
        );
    }
    if let Some(budget) = shared.cfg.tenant_fault_budget {
        let ledger = shared
            .tenant_faults
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let spent = ledger.get(&spec.tenant).copied().unwrap_or(0);
        if spent >= budget {
            return error(
                ErrorCode::FaultBudgetExhausted,
                format!(
                    "tenant {:?} has accrued {spent} faults (budget {budget})",
                    spec.tenant
                ),
            );
        }
    }
    {
        let queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= shared.cfg.queue_capacity {
            return error(
                ErrorCode::AdmissionFull,
                format!("queue at capacity ({} pending)", queue.len()),
            );
        }
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    if let Some(dir) = shared.job_dir(id) {
        let persisted = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("spec.json"), format!("{}\n", spec.to_json())));
        if let Err(e) = persisted {
            return error(
                ErrorCode::Internal,
                format!("persist spec for job {id}: {e}"),
            );
        }
    }
    // Write-ahead: the admission is durable before the job exists, so
    // a crash at any later point recovers it.
    if let Err(e) = shared.journal_append(&journal::Record::Admit {
        job: id,
        spec_json: spec.to_json(),
    }) {
        return error(
            ErrorCode::Internal,
            format!("journal admit for job {id}: {e}"),
        );
    }
    let job = Job::new(id, spec);
    if stream {
        job.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .attach_from(writer.clone(), 0);
    }
    shared
        .jobs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, job);
    enqueue(shared, id);
    Reply::Submitted { job: id }
}

fn enqueue(shared: &Shared, id: u64) {
    shared
        .queue
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push_back(id);
    shared.queue_cv.notify_one();
}

fn suspend(shared: &Shared, id: u64) -> Reply {
    let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let Some(job) = jobs.get_mut(&id) else {
        return error(ErrorCode::UnknownJob, format!("no job {id}"));
    };
    match job.state {
        JobState::Running => {
            // The runner observes the flag at the next update boundary,
            // writes a suspend checkpoint and emits `job_done` with
            // state `suspended`.
            job.cancel.store(true, Ordering::SeqCst);
            Reply::Status(job.status(id))
        }
        JobState::Queued => {
            job.state = JobState::Suspended;
            drop(jobs);
            shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|&q| q != id);
            let _ = shared.journal_append(&journal::Record::Done {
                job: id,
                done_json: Reply::Done(JobDone {
                    job: id,
                    state: JobState::Suspended,
                    iterations: 0,
                    best_reward: None,
                    error: None,
                })
                .to_json(),
                pareto_json: None,
            });
            with_job(shared, id, |id, j| Reply::Status(j.status(id)))
        }
        other => error(
            ErrorCode::InvalidState,
            format!("job {id} is {other}, not running or queued"),
        ),
    }
}

fn resume(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, id: u64, stream: bool) -> Reply {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return error(ErrorCode::ShuttingDown, "server is shutting down");
    }
    let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(job) = jobs.get_mut(&id) {
        if job.state != JobState::Suspended {
            return error(
                ErrorCode::InvalidState,
                format!("job {id} is {}, not suspended", job.state),
            );
        }
        job.state = JobState::Queued;
        job.cancel.store(false, Ordering::SeqCst);
        let mut log = job.log.lock().unwrap_or_else(|e| e.into_inner());
        log.pareto = None;
        log.done = None;
        if stream {
            log.subs.push((writer.clone(), 0));
        }
        drop(log);
        let reply = Reply::Status(job.status(id));
        drop(jobs);
        let _ = shared.journal_append(&journal::Record::Resumed { job: id });
        enqueue(shared, id);
        return reply;
    }
    drop(jobs);
    // Not in the registry: resurrect a job persisted by a previous
    // server process from its on-disk spec + latest checkpoint.
    let Some(dir) = shared.job_dir(id) else {
        return error(ErrorCode::UnknownJob, format!("no job {id}"));
    };
    let spec_line = match std::fs::read_to_string(dir.join("spec.json")) {
        Ok(s) => s,
        Err(_) => {
            return error(
                ErrorCode::UnknownJob,
                format!("no job {id} (registry or disk)"),
            )
        }
    };
    let spec = match JobSpec::parse(spec_line.trim()) {
        Ok(s) => s,
        Err(e) => {
            return error(
                ErrorCode::Internal,
                format!("corrupt spec for job {id}: {e}"),
            )
        }
    };
    let checkpoint = match yoso_core::checkpoint::latest_checkpoint(&dir) {
        Ok(c) => c,
        Err(e) => {
            return error(
                ErrorCode::Internal,
                format!("scan checkpoints for job {id}: {e}"),
            )
        }
    };
    // Keep new ids clear of resurrected ones.
    shared.next_id.fetch_max(id + 1, Ordering::SeqCst);
    let _ = shared.journal_append(&journal::Record::Admit {
        job: id,
        spec_json: spec.to_json(),
    });
    let _ = shared.journal_append(&journal::Record::Resumed { job: id });
    let mut job = Job::new(id, spec);
    job.checkpoint = checkpoint;
    if stream {
        job.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .attach_from(writer.clone(), 0);
    }
    let reply = Reply::Status(job.status(id));
    shared
        .jobs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, job);
    enqueue(shared, id);
    reply
}

fn subscribe(shared: &Shared, writer: &Arc<ConnWriter>, id: u64, from_seq: u64) -> Reply {
    let jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let Some(job) = jobs.get(&id) else {
        return error(ErrorCode::UnknownJob, format!("no job {id}"));
    };
    // Replay + attach under the log lock: the reply frame is written
    // after the replayed frames, so the client sees replay, then the
    // status reply, then live events.
    job.log
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .attach_from(writer.clone(), from_seq);
    Reply::Status(job.status(id))
}

fn stats(shared: &Shared) -> ServerStats {
    let mut out = ServerStats::default();
    {
        let jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
        for job in jobs.values() {
            match job.state {
                JobState::Queued => out.queued += 1,
                JobState::Running => out.running += 1,
                JobState::Suspended => out.suspended += 1,
                JobState::Completed => out.completed += 1,
                JobState::Failed => out.failed += 1,
            }
        }
    }
    let cache = yoso_accel::cache::stats();
    out.cache_hits = cache.hits;
    out.cache_misses = cache.misses;
    out.cache_hit_rate = cache.hit_rate();
    out.tenants = yoso_accel::cache::tenant_stats().len() as u64;
    let c = &shared.counters;
    out.slow_client_evictions = c.slow_client_evictions.load(Ordering::Relaxed);
    out.heartbeats_missed = c.heartbeats_missed.load(Ordering::Relaxed);
    out.journal_fsyncs = c.journal_fsyncs.load(Ordering::Relaxed);
    out.drain_timeouts = c.drain_timeouts.load(Ordering::Relaxed);
    out.jobs_recovered = c.jobs_recovered.load(Ordering::Relaxed);
    out
}

/// Renders a completed outcome's non-dominated archive as the wire
/// [`proto::ParetoFront`], in the archive's canonical order. The
/// numeric fields cross the codec bit-exact, so comparing a served
/// front against the in-process `outcome.pareto()` is an `==` check.
pub fn pareto_front_of(job: u64, outcome: &yoso_core::search::SearchOutcome) -> proto::ParetoFront {
    proto::ParetoFront {
        job,
        entries: outcome
            .pareto()
            .iter()
            .map(|r| proto::ParetoEntry {
                iteration: r.iteration as u64,
                accuracy: r.eval.accuracy,
                latency_ms: r.eval.latency_ms,
                energy_mj: r.eval.energy_mj,
                reward: r.reward,
                hw: r.point.hw.to_string(),
            })
            .collect(),
    }
}

fn runner_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        run_job(shared, id);
    }
}

fn run_job(shared: &Arc<Shared>, id: u64) {
    let (spec, cancel, iterations_done, log, checkpoint) = {
        let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let Some(job) = jobs.get_mut(&id) else { return };
        if job.state != JobState::Queued {
            return; // suspended while queued; skip the stale queue entry
        }
        job.state = JobState::Running;
        (
            job.spec.clone(),
            job.cancel.clone(),
            job.iterations_done.clone(),
            job.log.clone(),
            job.checkpoint.clone(),
        )
    };

    // Tenant context for this run: cache accounting and chaos scoping
    // both key off thread-locals on the runner thread (evaluation is
    // serial on the session's thread, so every simulator lookup and
    // serial fault site lands here).
    let tenant_tag = yoso_accel::cache::tenant_tag(&spec.tenant);
    yoso_accel::cache::set_thread_tenant(Some(&tenant_tag));
    yoso_chaos::set_thread_scope(Some(yoso_chaos::scope_for(&spec.tenant)));

    let evaluator = shared.evaluator();
    // A run that continues its log's prefix keeps that prefix's
    // `search_start`: a second one would put every later line one seq
    // past where the uninterrupted run put it. It continues the prefix
    // when it resumes from a checkpoint (the log ends at that
    // checkpoint's iteration) or when the prefix logged no iteration
    // yet; a rerun after logged iterations (a suspend that wrote no
    // checkpoint) is a new run.
    let continues_log = {
        let lines = &log.lock().unwrap_or_else(|e| e.into_inner()).lines;
        !lines.is_empty() && (checkpoint.is_some() || !lines.iter().any(|l| is_search_iter(l)))
    };
    let trace = {
        let log = log.clone();
        let iterations_done = iterations_done.clone();
        let shared = shared.clone();
        Trace::forward(move |line: &str| {
            if continues_log && is_search_start(line) {
                return;
            }
            if is_search_iter(line) {
                iterations_done.fetch_add(1, Ordering::Relaxed);
            }
            // Journal first, then fan out: a line a subscriber saw is
            // always recoverable after a crash.
            let _ = shared.journal_append(&journal::Record::Line {
                job: id,
                line: line.to_string(),
            });
            log.lock().unwrap_or_else(|e| e.into_inner()).push(line);
        })
    };

    let result = (|| -> Result<yoso_core::search::SearchOutcome, CoreError> {
        let mut builder = match &checkpoint {
            Some(path) => SearchSession::resume_from(path)?,
            None => {
                let mut b = spec.apply(SearchSession::builder());
                if let Some(dir) = shared.job_dir(id) {
                    b = b.checkpoint_dir(dir);
                }
                b
            }
        };
        builder = builder
            .evaluator(&evaluator)
            .scoring_precision(spec.scoring)
            .trace(trace)
            .cancel_flag(cancel.clone());
        if let Some(f) = spec.fault_budget {
            builder = builder.fault_budget(f);
        }
        builder.run()
    })();

    yoso_accel::cache::set_thread_tenant(None);
    yoso_chaos::set_thread_scope(None);

    let (pareto, done) = {
        let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let Some(job) = jobs.get_mut(&id) else { return };
        match result {
            Ok(outcome) => {
                job.state = JobState::Completed;
                let best = if outcome.history.is_empty() {
                    None
                } else {
                    Some(outcome.best().reward)
                };
                job.best_reward = best;
                iterations_done.store(outcome.history.len() as u64, Ordering::Relaxed);
                shared.charge_tenant(&job.spec.tenant, outcome.quarantine.len() as u64);
                let pareto = Reply::ParetoFront(pareto_front_of(id, &outcome)).to_json();
                (
                    Some(pareto),
                    JobDone {
                        job: id,
                        state: JobState::Completed,
                        iterations: outcome.history.len() as u64,
                        best_reward: best,
                        error: None,
                    },
                )
            }
            Err(CoreError::Canceled {
                iterations,
                checkpoint,
            }) => {
                job.state = JobState::Suspended;
                job.checkpoint = checkpoint;
                let _ = shared.journal_append(&journal::Record::Durable {
                    job: id,
                    iteration: iterations as u64,
                });
                (
                    None,
                    JobDone {
                        job: id,
                        state: JobState::Suspended,
                        iterations: iterations as u64,
                        best_reward: None,
                        error: None,
                    },
                )
            }
            Err(e) => {
                if let CoreError::FaultBudgetExhausted { faults, .. } = &e {
                    shared.charge_tenant(&job.spec.tenant, *faults);
                }
                let msg = e.to_string();
                job.state = JobState::Failed;
                job.error = Some(msg.clone());
                (
                    None,
                    JobDone {
                        job: id,
                        state: JobState::Failed,
                        iterations: iterations_done.load(Ordering::Relaxed),
                        best_reward: None,
                        error: Some(msg),
                    },
                )
            }
        }
    };
    let _ = shared.journal_append(&journal::Record::Done {
        job: id,
        done_json: Reply::Done(done.clone()).to_json(),
        pareto_json: pareto.clone(),
    });
    log.lock()
        .unwrap_or_else(|e| e.into_inner())
        .finish(pareto, done);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An accepted socket leaves `accept_loop`'s set-up with no delay and
    /// both deadlines, before any thread reads or writes it.
    #[test]
    fn accepted_sockets_get_nodelay_and_deadlines() {
        let cfg = ServerConfig {
            read_timeout: Duration::from_millis(1_500),
            write_timeout: Duration::from_millis(2_500),
            ..ServerConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let _client = TcpStream::connect(listener.local_addr().expect("bound address"))
            .expect("connect to the listener");
        let (stream, _) = listener.accept().expect("accept the connection");
        prepare_accepted(&stream, &cfg);
        assert!(stream.nodelay().expect("read TCP_NODELAY"));
        assert_eq!(stream.read_timeout().unwrap(), Some(cfg.read_timeout));
        assert_eq!(stream.write_timeout().unwrap(), Some(cfg.write_timeout));
    }
}
