//! # yoso-client
//!
//! Blocking client for the [`yoso_server`] framed-JSON protocol: one
//! TCP connection, newline-delimited [`proto`](yoso_server::proto)
//! frames, no external runtime.
//!
//! The server may interleave stream frames (`job_event` /
//! `pareto_front` / `job_done`) with request replies on the same
//! connection; [`Client`] buffers them, so [`request`](Client::request)
//! always returns the actual reply and [`ResilientClient::wait_done`](Client::wait_done)
//! / [`next_event`](Client::next_event) drain the stream in order.
//! A completed job's non-dominated archive frame is stashed as it
//! passes by and read back with
//! [`pareto_front`](Client::pareto_front). Server heartbeat `ping`
//! frames are answered transparently inside the read loop, so an idle
//! [`ResilientClient::wait_done`](Client::wait_done) never trips the server's
//! missed-heartbeat eviction.
//!
//! For connections that must survive network faults and server
//! restarts, [`ResilientClient`] wraps a [`Client`] with jittered
//! exponential-backoff reconnection ([`RetryPolicy`]) and
//! resume-from-last-seen replay: on reconnect it re-subscribes with
//! the next event sequence it expects and drops any replayed
//! duplicates, so each job's collected line stream has zero lost and
//! zero duplicated events no matter how often the transport fails.
//!
//! ```no_run
//! use yoso_client::Client;
//! use yoso_server::proto::{JobSpec, Reply};
//! use yoso_core::reward::{Constraints, RewardConfig};
//! # fn main() -> Result<(), yoso_client::ClientError> {
//! let mut client = Client::connect("127.0.0.1:7777")?;
//! let spec = JobSpec::new("acme", RewardConfig::balanced(Constraints::paper()));
//! let job = client.submit(&spec, true)?;
//! let (lines, done) = client.wait_done(job)?;
//! println!("{} events, final state {}", lines.len(), done.state);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use yoso_server::proto::{
    ErrorCode, JobDone, JobStatus, ParetoFront, ProtoError, Reply, Request, ServerStats,
};

/// What can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, EOF mid-exchange).
    Io(std::io::Error),
    /// The server sent a frame this client cannot decode.
    Proto(ProtoError),
    /// The server refused the request with a typed error frame.
    Server {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            ClientError::Server { .. } => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl ClientError {
    /// The server-sent [`ErrorCode`], when this is a typed refusal.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Whether retrying the operation (after reconnecting) can
    /// plausibly succeed. Transport failures and undecodable frames
    /// are retryable — a fresh connection gets a clean stream — as is
    /// a typed [`ErrorCode::AdmissionFull`] refusal (backpressure,
    /// retry after a delay). Every other typed refusal is a fact about
    /// the request or the server's state that a retry cannot change.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Proto(_) => true,
            ClientError::Server { code, .. } => matches!(code, ErrorCode::AdmissionFull),
        }
    }

    fn unexpected(reply: &Reply) -> ClientError {
        ClientError::Proto(ProtoError {
            code: ErrorCode::MalformedFrame,
            message: format!("unexpected reply frame: {reply:?}"),
        })
    }
}

/// One blocking connection to a yoso-server daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pending: VecDeque<Reply>,
    /// Latest `pareto_front` frame seen per job, stashed as the frames
    /// stream by (they never enter `pending`).
    fronts: HashMap<u64, ParetoFront>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            pending: VecDeque::new(),
            fronts: HashMap::new(),
        })
    }

    /// Writes one request frame and its newline in one `write_all`: on
    /// this no-delay socket, two writes would be two segments.
    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let mut line = req.to_json();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Reply, ClientError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                continue;
            }
            match Reply::parse(trimmed)? {
                // Heartbeat probe: answer and keep reading. Every call
                // that reads frames stays heartbeat-transparent.
                Reply::Ping => self.send(&Request::Pong)?,
                reply => return Ok(reply),
            }
        }
    }

    /// Sends a request and returns its reply, buffering any stream
    /// frames that arrive in between. A typed `error` reply becomes
    /// [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Transport, decode, or server-refusal errors.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ClientError> {
        self.send(req)?;
        loop {
            match self.read_frame()? {
                frame @ (Reply::Event { .. } | Reply::Done(_)) => self.pending.push_back(frame),
                Reply::ParetoFront(f) => {
                    self.fronts.insert(f.job, f);
                }
                Reply::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                reply => return Ok(reply),
            }
        }
    }

    /// Submits a job; `stream` attaches this connection to its live
    /// event stream. Returns the job id.
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn submit(
        &mut self,
        spec: &yoso_server::proto::JobSpec,
        stream: bool,
    ) -> Result<u64, ClientError> {
        match self.request(&Request::Submit {
            spec: spec.clone(),
            stream,
        })? {
            Reply::Submitted { job } => Ok(job),
            other => Err(ClientError::unexpected(&other)),
        }
    }

    fn status_request(&mut self, req: Request) -> Result<JobStatus, ClientError> {
        match self.request(&req)? {
            Reply::Status(s) => Ok(s),
            other => Err(ClientError::unexpected(&other)),
        }
    }

    /// Queries a job's status.
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn status(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        self.status_request(Request::Status { job })
    }

    /// Asks a queued/running job to suspend; the ack carries the
    /// status at request time (watch the stream or poll for
    /// `suspended`).
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn suspend(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        self.status_request(Request::Suspend { job })
    }

    /// Re-enqueues a suspended job (including jobs persisted by a
    /// previous server process).
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn resume(&mut self, job: u64, stream: bool) -> Result<JobStatus, ClientError> {
        self.status_request(Request::Resume { job, stream })
    }

    /// Replays a job's event log into this connection's stream, then
    /// attaches for live events.
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn subscribe(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        self.status_request(Request::Subscribe {
            job,
            from_seq: None,
        })
    }

    /// Like [`subscribe`](Client::subscribe), but replays only events
    /// with sequence ≥ `from_seq` — the idempotent-resume primitive a
    /// reconnecting client uses to pick a stream back up without
    /// re-receiving what it already has.
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn subscribe_from(&mut self, job: u64, from_seq: u64) -> Result<JobStatus, ClientError> {
        self.status_request(Request::Subscribe {
            job,
            from_seq: Some(from_seq),
        })
    }

    /// Fetches aggregate server counters.
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(ClientError::unexpected(&other)),
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Err(ClientError::unexpected(&other)),
        }
    }

    /// Returns the next stream frame — [`Reply::Event`] or
    /// [`Reply::Done`] — from the buffer or the wire, blocking until
    /// one arrives.
    ///
    /// # Errors
    ///
    /// Transport/decode errors, or a non-stream frame arriving outside
    /// any request (a protocol violation).
    pub fn next_event(&mut self) -> Result<Reply, ClientError> {
        if let Some(frame) = self.pending.pop_front() {
            return Ok(frame);
        }
        loop {
            match self.read_frame()? {
                frame @ (Reply::Event { .. } | Reply::Done(_)) => return Ok(frame),
                Reply::ParetoFront(f) => {
                    self.fronts.insert(f.job, f);
                }
                other => return Err(ClientError::unexpected(&other)),
            }
        }
    }

    /// Collects one job's streamed trace lines until its `job_done`
    /// frame, returning `(lines, done)`. Frames belonging to other
    /// jobs stay buffered for later `wait_done`/`next_event` calls.
    /// Requires a live subscription (submit/resume with `stream`, or
    /// [`subscribe`](Client::subscribe)).
    ///
    /// # Errors
    ///
    /// As [`next_event`](Client::next_event).
    pub fn wait_done(&mut self, job: u64) -> Result<(Vec<String>, JobDone), ClientError> {
        let mut lines = Vec::new();
        // Drain matching frames already buffered, keeping the rest.
        let mut keep = VecDeque::with_capacity(self.pending.len());
        let mut done: Option<JobDone> = None;
        for frame in self.pending.drain(..) {
            if done.is_some() {
                keep.push_back(frame);
                continue;
            }
            match frame {
                Reply::Event { job: j, line, .. } if j == job => lines.push(line),
                Reply::Done(d) if d.job == job => done = Some(d),
                other => keep.push_back(other),
            }
        }
        self.pending = keep;
        if let Some(d) = done {
            return Ok((lines, d));
        }
        loop {
            match self.read_frame()? {
                Reply::Event { job: j, line, .. } if j == job => lines.push(line),
                Reply::Done(d) if d.job == job => return Ok((lines, d)),
                frame @ (Reply::Event { .. } | Reply::Done(_)) => self.pending.push_back(frame),
                Reply::ParetoFront(f) => {
                    self.fronts.insert(f.job, f);
                }
                other => return Err(ClientError::unexpected(&other)),
            }
        }
    }

    /// The latest streamed `pareto_front` frame for `job`, if one has
    /// arrived — the server emits it right before `job_done` on
    /// completed runs, and replays it on `subscribe`. Call after
    /// [`ResilientClient::wait_done`](Client::wait_done) reports `completed`.
    pub fn pareto_front(&self, job: u64) -> Option<&ParetoFront> {
        self.fronts.get(&job)
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.writer.peer_addr().ok())
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// Jittered exponential backoff for [`ResilientClient`]: attempt `n`
/// sleeps `base_delay * 2^n` (capped at `max_delay`), scaled by a
/// seeded jitter in `[0.5, 1.5)` so a fleet of reconnecting clients
/// does not stampede the daemon in lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive failed attempts before giving up (the original
    /// failure is returned).
    pub max_retries: u32,
    /// First-attempt backoff.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the jitter stream; same seed, same jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

/// SplitMix64 — the same tiny deterministic generator the chaos layer
/// draws from; here it only decorrelates backoff jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (0-based), advancing the
    /// jitter stream.
    fn backoff(&self, attempt: u32, jitter_state: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_delay);
        // Uniform jitter factor in [0.5, 1.5).
        let unit = (splitmix64(jitter_state) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + unit)
    }
}

/// A [`Client`] that survives dropped connections, garbage frames and
/// server restarts.
///
/// Tracks, per job, the next event sequence it expects; when the
/// transport fails mid-stream it reconnects under [`RetryPolicy`]
/// backoff, re-subscribes with
/// [`subscribe_from`](Client::subscribe_from) at that watermark, and
/// drops any replayed or re-emitted event below it. Because a
/// journal-recovered server re-emits the post-checkpoint suffix
/// byte-identically at the same sequence numbers, the collected stream
/// ends up with zero lost and zero duplicated lines even across a
/// `kill -9` + restart of the daemon.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    jitter: u64,
    client: Option<Client>,
    /// Per-job next expected event sequence (== lines collected).
    next_seq: HashMap<u64, u64>,
    /// Per-job lines collected so far (survives reconnects).
    collected: HashMap<u64, Vec<String>>,
    /// Terminal frames seen for jobs other than the one being awaited.
    finished: HashMap<u64, JobDone>,
    fronts: HashMap<u64, ParetoFront>,
    reconnects: u64,
}

impl ResilientClient {
    /// Creates the wrapper; the first connection is established lazily
    /// (and under retry) by the first operation.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> ResilientClient {
        ResilientClient {
            addr: addr.into(),
            policy,
            jitter: 0,
            client: None,
            next_seq: HashMap::new(),
            collected: HashMap::new(),
            finished: HashMap::new(),
            fronts: HashMap::new(),
            reconnects: 0,
        }
    }

    /// Times the transport was re-established after a failure.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn drop_conn(&mut self) {
        if self.client.take().is_some() {
            self.reconnects += 1;
        }
    }

    /// Returns a live connection, dialing under backoff if necessary.
    fn conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            if self.jitter == 0 {
                self.jitter = self.policy.seed;
            }
            let mut attempt = 0u32;
            loop {
                match Client::connect(&self.addr) {
                    Ok(c) => {
                        self.client = Some(c);
                        break;
                    }
                    Err(e) => {
                        if attempt >= self.policy.max_retries {
                            return Err(e);
                        }
                        std::thread::sleep(self.policy.backoff(attempt, &mut self.jitter));
                        attempt += 1;
                    }
                }
            }
        }
        Ok(self.client.as_mut().expect("connection just established"))
    }

    /// Runs one request under the retry policy, reconnecting between
    /// attempts on retryable failures.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            let result = self.conn().and_then(&mut op);
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < self.policy.max_retries => {
                    self.drop_conn();
                    std::thread::sleep(self.policy.backoff(attempt, &mut self.jitter));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits a job (no streaming attach — [`ResilientClient::wait_done`]
    /// (ResilientClient::wait_done) subscribes explicitly so the
    /// subscription can be re-established after a reconnect).
    ///
    /// Retried under the policy. Caveat: a retry after a reply lost
    /// in transit can leave an orphan duplicate job on the server; the
    /// id returned is always one this client observed, so tracked
    /// streams stay exact.
    ///
    /// # Errors
    ///
    /// The first non-retryable failure, or the last failure once
    /// retries are exhausted.
    pub fn submit(&mut self, spec: &yoso_server::proto::JobSpec) -> Result<u64, ClientError> {
        let spec = spec.clone();
        let job = self.with_retry(move |c| c.submit(&spec, false))?;
        self.next_seq.insert(job, 0);
        self.collected.insert(job, Vec::new());
        Ok(job)
    }

    /// Resumes a suspended job (including one persisted by a previous
    /// server process), retried under the policy.
    ///
    /// # Errors
    ///
    /// As [`submit`](ResilientClient::submit).
    pub fn resume(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        let status = self.with_retry(move |c| c.resume(job, false))?;
        self.next_seq.entry(job).or_insert(0);
        self.collected.entry(job).or_default();
        Ok(status)
    }

    /// Fetches server stats, retried under the policy.
    ///
    /// # Errors
    ///
    /// As [`submit`](ResilientClient::submit).
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.with_retry(|c| c.stats())
    }

    /// Streams `job` to completion, self-healing across transport
    /// failures: subscribes from the current watermark, accepts each
    /// event exactly once (replayed duplicates below the watermark are
    /// dropped), and on any retryable failure reconnects with backoff
    /// and re-subscribes from where it left off. Returns every line of
    /// the job's stream — including those collected on earlier calls
    /// or connections — and the terminal frame.
    ///
    /// # Errors
    ///
    /// A non-retryable failure, or the last failure once
    /// `max_retries` consecutive attempts burned without progress
    /// (progress resets the attempt counter).
    pub fn wait_done(&mut self, job: u64) -> Result<(Vec<String>, JobDone), ClientError> {
        self.next_seq.entry(job).or_insert(0);
        self.collected.entry(job).or_default();
        if let Some(done) = self.finished.get(&job).cloned() {
            return Ok((self.collected.get(&job).cloned().unwrap_or_default(), done));
        }
        let mut attempt = 0u32;
        loop {
            let from = *self.next_seq.get(&job).unwrap_or(&0);
            let result = self.stream_once(job, from);
            match result {
                Ok(Some(done)) => {
                    if let Some(front) = self
                        .client
                        .as_ref()
                        .and_then(|c| c.pareto_front(job))
                        .cloned()
                    {
                        self.fronts.insert(job, front);
                    }
                    self.finished.insert(job, done.clone());
                    return Ok((self.collected.get(&job).cloned().unwrap_or_default(), done));
                }
                Ok(None) => unreachable!("stream_once returns a done frame or an error"),
                Err(e) if e.is_retryable() => {
                    // Reset the attempt budget whenever the connection
                    // made forward progress before dying.
                    if *self.next_seq.get(&job).unwrap_or(&0) > from {
                        attempt = 0;
                    }
                    if attempt >= self.policy.max_retries {
                        return Err(e);
                    }
                    self.drop_conn();
                    std::thread::sleep(self.policy.backoff(attempt, &mut self.jitter));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One subscribe-and-drain attempt on the current connection.
    /// Returns the terminal frame, or an error when the transport or
    /// stream fails first.
    fn stream_once(&mut self, job: u64, from: u64) -> Result<Option<JobDone>, ClientError> {
        // Subscribe on the live connection from the watermark; the
        // reply confirms the job exists before we block on events.
        if let Err(e) = self.conn()?.subscribe_from(job, from) {
            // A finished job's replay arrives ahead of the reply, and
            // `request` buffers it. Keep what extends the watermark
            // before the connection goes, or a replay longer than the
            // link stays up between faults never makes progress.
            let buffered = self
                .client
                .as_mut()
                .map(|c| std::mem::take(&mut c.pending))
                .unwrap_or_default();
            for frame in buffered {
                match self.accept(job, frame) {
                    Ok(Some(done)) => return Ok(Some(done)),
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            return Err(e);
        }
        loop {
            let frame = self.conn()?.next_event()?;
            if let Some(done) = self.accept(job, frame)? {
                return Ok(Some(done));
            }
        }
    }

    /// Applies one stream frame to `job`'s watermark: accepts the event
    /// at the watermark, drops replayed duplicates below it and other
    /// jobs' events, and fails on a gap. Returns `job`'s terminal frame.
    fn accept(&mut self, job: u64, frame: Reply) -> Result<Option<JobDone>, ClientError> {
        match frame {
            Reply::Event { job: j, seq, line } => {
                if j != job {
                    return Ok(None); // other jobs' frames: not ours to track
                }
                let next = self.next_seq.entry(job).or_insert(0);
                if seq < *next {
                    return Ok(None); // replayed duplicate below the watermark
                }
                if seq > *next {
                    // A gap means the subscription missed events —
                    // resubscribe from the watermark.
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("event gap: expected seq {next}, got {seq}"),
                    )));
                }
                *next += 1;
                self.collected.entry(job).or_default().push(line);
                Ok(None)
            }
            Reply::Done(done) => {
                if done.job == job {
                    return Ok(Some(done));
                }
                self.finished.insert(done.job, done);
                Ok(None)
            }
            other => Err(ClientError::unexpected(&other)),
        }
    }

    /// The latest `pareto_front` frame captured for `job` (survives
    /// reconnects, unlike [`Client::pareto_front`]'s).
    pub fn pareto_front(&self, job: u64) -> Option<&ParetoFront> {
        self.fronts.get(&job)
    }
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("addr", &self.addr)
            .field("connected", &self.client.is_some())
            .field("reconnects", &self.reconnects)
            .field("jobs", &self.next_seq.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        let io = ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "reset",
        ));
        assert!(io.is_retryable());
        let proto = ClientError::Proto(ProtoError {
            code: ErrorCode::MalformedFrame,
            message: "garbage".into(),
        });
        assert!(proto.is_retryable());
        let full = ClientError::Server {
            code: ErrorCode::AdmissionFull,
            message: "queue full".into(),
        };
        assert!(full.is_retryable());
        for code in [
            ErrorCode::UnknownJob,
            ErrorCode::InvalidState,
            ErrorCode::FaultBudgetExhausted,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            let e = ClientError::Server {
                code,
                message: String::new(),
            };
            assert!(!e.is_retryable(), "{code} must be fatal");
        }
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            seed: 7,
        };
        let mut s1 = policy.seed;
        let mut s2 = policy.seed;
        let a: Vec<Duration> = (0..8).map(|i| policy.backoff(i, &mut s1)).collect();
        let b: Vec<Duration> = (0..8).map(|i| policy.backoff(i, &mut s2)).collect();
        assert_eq!(a, b, "same seed must give the same jitter sequence");
        for (i, d) in a.iter().enumerate() {
            let exp = policy
                .base_delay
                .saturating_mul(1 << i as u32)
                .min(policy.max_delay);
            assert!(
                *d >= exp.mul_f64(0.5) && *d < exp.mul_f64(1.5),
                "attempt {i}"
            );
        }
        // The cap binds from attempt 5 on (10ms * 32 > 200ms).
        assert!(a[7] < Duration::from_millis(300));
    }

    #[test]
    fn resilient_client_is_lazy_and_tracks_state() {
        let rc = ResilientClient::new("127.0.0.1:1", RetryPolicy::default());
        assert_eq!(rc.reconnects(), 0);
        assert!(rc.pareto_front(0).is_none());
        let dbg = format!("{rc:?}");
        assert!(dbg.contains("connected: false"), "{dbg}");
    }
}
