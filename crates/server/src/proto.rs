//! Versioned wire protocol for the yoso-server daemon.
//!
//! Every frame on the wire is one newline-terminated flat JSON object in
//! the [`yoso_trace::Event`] dialect: an `"event"` key naming the frame
//! kind, a `"v"` key carrying [`PROTO_VERSION`], and scalar fields. The
//! codec is hand-rolled (no serde on the wire) and round-trips exactly —
//! [`Request`] and [`Reply`] each expose `to_json` / `parse`.
//!
//! | direction | frames |
//! |---|---|
//! | client → server | `submit`, `status`, `suspend`, `resume`, `subscribe`, `stats`, `shutdown`, `pong` |
//! | server → client (reply) | `submitted`, `job_status`, `server_stats`, `shutting_down`, `error` |
//! | server → client (stream) | `job_event`, `pareto_front`, `job_done`, `ping` |
//!
//! Stream frames (`job_event` / `pareto_front` / `job_done`) may arrive
//! *between* a request and its reply on the same connection; clients
//! must buffer them ([`yoso-client`](../../yoso_client/index.html)
//! does). `pareto_front` is additive in protocol version 1: it carries
//! the completed job's non-dominated archive (one flat frame, numbered
//! per-entry scalar fields) immediately before `job_done`, and is
//! replayed by `subscribe`.
//!
//! A [`JobSpec`] is applied to a [`SearchSessionBuilder`] with
//! [`JobSpec::apply`], and round-trips losslessly through its own
//! standalone frame form ([`JobSpec::to_json`] / [`JobSpec::parse`]).

use yoso_core::evaluation::ScoringPrecision;
use yoso_core::reward::{Constraints, RewardConfig, RewardForm};
use yoso_core::search::SearchConfig;
use yoso_core::session::{SearchSessionBuilder, Strategy};
use yoso_trace::{Event, Value};

/// Wire protocol version carried in the `"v"` field of every frame.
///
/// The `ping`/`pong` heartbeat frames and the optional `from_seq` field
/// on `subscribe` are *additive* in version 1: peers that predate them
/// never see a `ping` unless they stall, and omitting `from_seq` keeps
/// the original replay-from-zero semantics.
pub const PROTO_VERSION: u64 = 1;

/// Hard cap on the byte length of a single wire frame. Longer lines are
/// rejected as [`ErrorCode::MalformedFrame`] before JSON parsing, so a
/// hostile or corrupted peer cannot make the decoder buffer unbounded
/// input.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Hard cap on the declared entry count of a `pareto_front` frame. The
/// decoder allocates from the *declared* count, so it must be bounded
/// before the allocation, not after.
pub const MAX_PARETO_ENTRIES: u64 = 65_536;

/// Typed error codes carried in `error` reply frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not parseable as a protocol request.
    MalformedFrame,
    /// The frame's `"v"` field does not match [`PROTO_VERSION`].
    UnsupportedVersion,
    /// A submit frame decoded but its job spec is invalid.
    InvalidSpec,
    /// The referenced job id is unknown (registry and disk).
    UnknownJob,
    /// The pending-job queue is at capacity; retry later.
    AdmissionFull,
    /// The tenant's cumulative fault budget is exhausted; its
    /// submissions are refused until the server restarts the ledger.
    FaultBudgetExhausted,
    /// The job is not in a state that allows the request (e.g.
    /// resuming a job that is not suspended).
    InvalidState,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// An internal server error; the message has details.
    Internal,
}

impl ErrorCode {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::InvalidSpec => "invalid_spec",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::AdmissionFull => "admission_full",
            ErrorCode::FaultBudgetExhausted => "fault_budget_exhausted",
            ErrorCode::InvalidState => "invalid_state",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "malformed_frame" => ErrorCode::MalformedFrame,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "invalid_spec" => ErrorCode::InvalidSpec,
            "unknown_job" => ErrorCode::UnknownJob,
            "admission_full" => ErrorCode::AdmissionFull,
            "fault_budget_exhausted" => ErrorCode::FaultBudgetExhausted,
            "invalid_state" => ErrorCode::InvalidState,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A protocol decode/encode failure, tagged with the [`ErrorCode`] a
/// server should reply with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What kind of failure this is.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn malformed(msg: impl Into<String>) -> Self {
        ProtoError {
            code: ErrorCode::MalformedFrame,
            message: msg.into(),
        }
    }

    fn invalid(msg: impl Into<String>) -> Self {
        ProtoError {
            code: ErrorCode::InvalidSpec,
            message: msg.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a runner slot.
    Queued,
    /// A runner thread is executing the search.
    Running,
    /// Stopped at a checkpoint boundary; resumable.
    Suspended,
    /// Finished successfully.
    Completed,
    /// Finished with an error.
    Failed,
}

impl JobState {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Suspended => "suspended",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "suspended" => JobState::Suspended,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything needed to run a search job on the server: the tenant it
/// bills to, the strategy/config/reward triple a
/// [`SearchSessionBuilder`] takes, and the optional session knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Tenant name; scopes cache accounting and fault budgets.
    pub tenant: String,
    /// Which search algorithm to run.
    pub strategy: Strategy,
    /// Iterations / rollouts / seed / population / tournament.
    pub config: SearchConfig,
    /// The multi-objective reward.
    pub reward: RewardConfig,
    /// HyperNet scoring precision.
    pub scoring: ScoringPrecision,
    /// Per-job injected-fault budget (graceful degradation).
    pub fault_budget: Option<u64>,
    /// Checkpoint cadence in iterations.
    pub checkpoint_every: Option<usize>,
}

impl JobSpec {
    /// A spec with the paper-default strategy/config and no optional
    /// knobs set.
    pub fn new(tenant: impl Into<String>, reward: RewardConfig) -> Self {
        JobSpec {
            tenant: tenant.into(),
            strategy: Strategy::default(),
            config: SearchConfig::default(),
            reward,
            scoring: ScoringPrecision::default(),
            fault_budget: None,
            checkpoint_every: None,
        }
    }

    /// Applies this spec to a session builder (everything except the
    /// evaluator, trace and cancel flag, which are process-local).
    #[must_use]
    pub fn apply<'a>(&self, builder: SearchSessionBuilder<'a>) -> SearchSessionBuilder<'a> {
        let mut b = builder
            .strategy(self.strategy)
            .config(self.config.clone())
            .reward(self.reward)
            .scoring_precision(self.scoring);
        if let Some(n) = self.checkpoint_every {
            b = b.checkpoint_every(n);
        }
        if let Some(f) = self.fault_budget {
            b = b.fault_budget(f);
        }
        b
    }

    /// Flattens the spec's fields into a frame under construction.
    fn write(&self, ev: Event) -> Event {
        let mut ev = ev
            .with_str("tenant", &self.tenant)
            .with_str("strategy", self.strategy.name())
            .with_u64("iterations", self.config.iterations as u64)
            .with_u64("rollouts", self.config.rollouts_per_update as u64)
            .with_u64("seed", self.config.seed)
            .with_u64("population", self.config.population as u64)
            .with_u64("tournament", self.config.tournament as u64)
            .with_f64("alpha1", self.reward.alpha1)
            .with_f64("omega1", self.reward.omega1)
            .with_f64("alpha2", self.reward.alpha2)
            .with_f64("omega2", self.reward.omega2)
            .with_f64("t_lat_ms", self.reward.constraints.t_lat_ms)
            .with_f64("t_eer_mj", self.reward.constraints.t_eer_mj)
            .with_str(
                "form",
                match self.reward.form {
                    RewardForm::WeightedProduct => "weighted_product",
                    RewardForm::Additive => "additive",
                },
            )
            .with_bool("hard_constraints", self.reward.hard_constraints)
            .with_bool("saturate", self.reward.saturate_below_threshold)
            .with_str("scoring", self.scoring.name());
        if let Some(f) = self.fault_budget {
            ev = ev.with_u64("fault_budget", f);
        }
        if let Some(n) = self.checkpoint_every {
            ev = ev.with_u64("checkpoint_every", n as u64);
        }
        ev
    }

    /// Reads a spec back out of a frame.
    fn read(ev: &Event) -> Result<JobSpec, ProtoError> {
        let tenant = get_str(ev, "tenant")?.to_string();
        if tenant.is_empty() {
            return Err(ProtoError::invalid("empty tenant name"));
        }
        let strategy_name = get_str(ev, "strategy")?;
        let strategy = Strategy::from_name(strategy_name)
            .ok_or_else(|| ProtoError::invalid(format!("unknown strategy {strategy_name:?}")))?;
        let config = SearchConfig {
            iterations: get_u64(ev, "iterations")? as usize,
            rollouts_per_update: get_u64(ev, "rollouts")? as usize,
            seed: get_u64(ev, "seed")?,
            population: get_u64(ev, "population")? as usize,
            tournament: get_u64(ev, "tournament")? as usize,
        };
        if config.iterations == 0 {
            return Err(ProtoError::invalid("iterations must be > 0"));
        }
        let form = match get_str(ev, "form")? {
            "weighted_product" => RewardForm::WeightedProduct,
            "additive" => RewardForm::Additive,
            other => {
                return Err(ProtoError::invalid(format!(
                    "unknown reward form {other:?}"
                )))
            }
        };
        let reward = RewardConfig {
            alpha1: get_f64(ev, "alpha1")?,
            omega1: get_f64(ev, "omega1")?,
            alpha2: get_f64(ev, "alpha2")?,
            omega2: get_f64(ev, "omega2")?,
            constraints: Constraints {
                t_lat_ms: get_f64(ev, "t_lat_ms")?,
                t_eer_mj: get_f64(ev, "t_eer_mj")?,
            },
            form,
            hard_constraints: get_bool(ev, "hard_constraints")?,
            saturate_below_threshold: get_bool(ev, "saturate")?,
        };
        let scoring_name = get_str(ev, "scoring")?;
        let scoring = ScoringPrecision::from_name(scoring_name)
            .ok_or_else(|| ProtoError::invalid(format!("unknown scoring {scoring_name:?}")))?;
        Ok(JobSpec {
            tenant,
            strategy,
            config,
            reward,
            scoring,
            fault_budget: ev.get_u64("fault_budget"),
            checkpoint_every: ev.get_u64("checkpoint_every").map(|n| n as usize),
        })
    }

    /// Serializes the spec as a standalone `job_spec` frame (used for
    /// the on-disk `spec.json` that survives server restarts).
    pub fn to_json(&self) -> String {
        self.write(versioned("job_spec")).to_json()
    }

    /// Parses a standalone `job_spec` frame.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on malformed JSON, a version mismatch, a
    /// wrong frame kind or invalid spec fields.
    pub fn parse(line: &str) -> Result<JobSpec, ProtoError> {
        let ev = parse_versioned(line)?;
        if ev.kind != "job_spec" {
            return Err(ProtoError::malformed(format!(
                "expected job_spec frame, got {:?}",
                ev.kind
            )));
        }
        JobSpec::read(&ev)
    }
}

/// A snapshot of one job's lifecycle, returned by `status`, `suspend`,
/// `resume` and `subscribe`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// `search_iter` events emitted so far.
    pub iterations_done: u64,
    /// Total iterations the spec asks for.
    pub iterations_total: u64,
    /// Best reward seen (completed jobs only).
    pub best_reward: Option<f64>,
    /// Failure message (failed jobs only).
    pub error: Option<String>,
    /// Latest checkpoint path (suspended jobs with persistence).
    pub checkpoint: Option<String>,
}

/// Terminal stream frame: how a job run ended.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDone {
    /// Which job finished.
    pub job: u64,
    /// `completed`, `suspended` or `failed`.
    pub state: JobState,
    /// Iterations in the history at the end of the run.
    pub iterations: u64,
    /// Best reward (completed jobs only).
    pub best_reward: Option<f64>,
    /// Failure message (failed jobs only).
    pub error: Option<String>,
}

/// One record of a job's non-dominated Pareto archive as it crosses
/// the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEntry {
    /// Search iteration that produced the record.
    pub iteration: u64,
    /// Predicted accuracy (maximized).
    pub accuracy: f64,
    /// Predicted latency in milliseconds (minimized).
    pub latency_ms: f64,
    /// Predicted energy in millijoules (minimized).
    pub energy_mj: f64,
    /// Scalar reward under the job's reward config.
    pub reward: f64,
    /// Rendered hardware configuration (`HwConfig` display form).
    pub hw: String,
}

/// Stream frame carrying a completed job's full non-dominated archive.
///
/// Emitted once per successful run, immediately before the `job_done`
/// frame, and replayed by `subscribe` after the `job_event` log. The
/// entries arrive in the archive's canonical order (ascending latency)
/// so the frame is bit-identical across server thread counts and
/// kill-and-resume.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront {
    /// Which job the archive belongs to.
    pub job: u64,
    /// Non-dominated records in canonical archive order.
    pub entries: Vec<ParetoEntry>,
}

/// Aggregate server counters returned by `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Jobs waiting for a runner.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs suspended at a checkpoint.
    pub suspended: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Process-wide simulator-cache hits.
    pub cache_hits: u64,
    /// Process-wide simulator-cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when no lookups yet.
    pub cache_hit_rate: f64,
    /// Distinct tenants seen by the cache accounting.
    pub tenants: u64,
    /// Subscribers evicted because their bounded write queue filled
    /// (additive in v1; absent means 0).
    pub slow_client_evictions: u64,
    /// Connections closed after missing consecutive heartbeat probes
    /// (additive in v1; absent means 0).
    pub heartbeats_missed: u64,
    /// `fsync` calls issued by the job journal (additive in v1; absent
    /// means 0).
    pub journal_fsyncs: u64,
    /// Shutdown drains that hit their deadline and journaled-and-
    /// abandoned a running job (additive in v1; absent means 0).
    pub drain_timeouts: u64,
    /// Jobs recovered from the journal at startup (additive in v1;
    /// absent means 0).
    pub jobs_recovered: u64,
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a new job; `stream` attaches this connection to the
    /// job's live event stream.
    Submit {
        /// What to run.
        spec: JobSpec,
        /// Stream `job_event` frames back on this connection.
        stream: bool,
    },
    /// Query one job's status.
    Status {
        /// Job id.
        job: u64,
    },
    /// Ask a queued/running job to suspend at the next checkpoint
    /// boundary.
    Suspend {
        /// Job id.
        job: u64,
    },
    /// Re-enqueue a suspended job (also resurrects jobs persisted by a
    /// previous server process from `spec.json` + checkpoints).
    Resume {
        /// Job id.
        job: u64,
        /// Stream `job_event` frames back on this connection.
        stream: bool,
    },
    /// Replay a job's event log, then attach for live events.
    Subscribe {
        /// Job id.
        job: u64,
        /// Replay starts at this 0-based event sequence number;
        /// `None` replays from the beginning (additive in v1 — how a
        /// reconnecting client resumes without duplicate events).
        from_seq: Option<u64>,
    },
    /// Fetch aggregate server counters.
    Stats,
    /// Ask the server to shut down.
    Shutdown,
    /// Heartbeat response to a server [`Reply::Ping`] (additive in
    /// v1). Carries no payload; receipt alone proves liveness.
    Pong,
}

impl Request {
    /// Serializes to one newline-free JSON frame.
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit { spec, stream } => spec
                .write(versioned("submit"))
                .with_bool("stream", *stream)
                .to_json(),
            Request::Status { job } => versioned("status").with_u64("job", *job).to_json(),
            Request::Suspend { job } => versioned("suspend").with_u64("job", *job).to_json(),
            Request::Resume { job, stream } => versioned("resume")
                .with_u64("job", *job)
                .with_bool("stream", *stream)
                .to_json(),
            Request::Subscribe { job, from_seq } => {
                let mut ev = versioned("subscribe").with_u64("job", *job);
                if let Some(seq) = from_seq {
                    ev = ev.with_u64("from_seq", *seq);
                }
                ev.to_json()
            }
            Request::Stats => versioned("stats").to_json(),
            Request::Shutdown => versioned("shutdown").to_json(),
            Request::Pong => versioned("pong").to_json(),
        }
    }

    /// Parses one frame.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::MalformedFrame`] for unparseable JSON or missing
    /// fields, [`ErrorCode::UnsupportedVersion`] for a `"v"` mismatch,
    /// [`ErrorCode::InvalidSpec`] for a submit frame with bad spec
    /// fields.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let ev = parse_versioned(line)?;
        Ok(match ev.kind.as_str() {
            "submit" => Request::Submit {
                spec: JobSpec::read(&ev)?,
                stream: get_bool(&ev, "stream")?,
            },
            "status" => Request::Status {
                job: get_u64(&ev, "job")?,
            },
            "suspend" => Request::Suspend {
                job: get_u64(&ev, "job")?,
            },
            "resume" => Request::Resume {
                job: get_u64(&ev, "job")?,
                stream: get_bool(&ev, "stream")?,
            },
            "subscribe" => Request::Subscribe {
                job: get_u64(&ev, "job")?,
                from_seq: ev.get_u64("from_seq"),
            },
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            "pong" => Request::Pong,
            other => {
                return Err(ProtoError::malformed(format!(
                    "unknown request kind {other:?}"
                )))
            }
        })
    }
}

/// A server → client frame (replies and stream events).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A submit was accepted.
    Submitted {
        /// Assigned job id.
        job: u64,
    },
    /// Reply to `status` / `suspend` / `resume` / `subscribe`.
    Status(JobStatus),
    /// Reply to `stats`.
    Stats(ServerStats),
    /// One live (or replayed) trace line from a job's stream. `line`
    /// is the raw `search_iter`-dialect JSONL line, byte-exact.
    Event {
        /// Which job emitted it.
        job: u64,
        /// 0-based position in the job's event log.
        seq: u64,
        /// The raw trace line.
        line: String,
    },
    /// A completed job's non-dominated archive, streamed right before
    /// [`Reply::Done`] and replayed by `subscribe`.
    ParetoFront(ParetoFront),
    /// Terminal stream frame for a job run.
    Done(JobDone),
    /// Reply to `shutdown`.
    ShuttingDown,
    /// Heartbeat probe sent when a connection has been idle past its
    /// read deadline (additive in v1); the client answers with
    /// [`Request::Pong`].
    Ping,
    /// Any request failure.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Reply {
    /// Serializes to one newline-free JSON frame.
    pub fn to_json(&self) -> String {
        match self {
            Reply::Submitted { job } => versioned("submitted").with_u64("job", *job).to_json(),
            Reply::Status(s) => {
                let mut ev = versioned("job_status")
                    .with_u64("job", s.job)
                    .with_str("tenant", &s.tenant)
                    .with_str("state", s.state.name())
                    .with_u64("iterations_done", s.iterations_done)
                    .with_u64("iterations_total", s.iterations_total);
                if let Some(r) = s.best_reward {
                    ev = ev.with_f64("best_reward", r);
                }
                if let Some(e) = &s.error {
                    ev = ev.with_str("error", e);
                }
                if let Some(c) = &s.checkpoint {
                    ev = ev.with_str("checkpoint", c);
                }
                ev.to_json()
            }
            Reply::Stats(s) => versioned("server_stats")
                .with_u64("queued", s.queued)
                .with_u64("running", s.running)
                .with_u64("suspended", s.suspended)
                .with_u64("completed", s.completed)
                .with_u64("failed", s.failed)
                .with_u64("cache_hits", s.cache_hits)
                .with_u64("cache_misses", s.cache_misses)
                .with_f64("cache_hit_rate", s.cache_hit_rate)
                .with_u64("tenants", s.tenants)
                .with_u64("slow_client_evictions", s.slow_client_evictions)
                .with_u64("heartbeats_missed", s.heartbeats_missed)
                .with_u64("journal_fsyncs", s.journal_fsyncs)
                .with_u64("drain_timeouts", s.drain_timeouts)
                .with_u64("jobs_recovered", s.jobs_recovered)
                .to_json(),
            Reply::Event { job, seq, line } => versioned("job_event")
                .with_u64("job", *job)
                .with_u64("seq", *seq)
                .with_str("line", line)
                .to_json(),
            Reply::ParetoFront(front) => {
                let mut ev = versioned("pareto_front")
                    .with_u64("job", front.job)
                    .with_u64("count", front.entries.len() as u64);
                for (i, e) in front.entries.iter().enumerate() {
                    ev = ev
                        .with_u64(format!("iter{i}"), e.iteration)
                        .with_f64(format!("acc{i}"), e.accuracy)
                        .with_f64(format!("lat{i}"), e.latency_ms)
                        .with_f64(format!("eer{i}"), e.energy_mj)
                        .with_f64(format!("rew{i}"), e.reward)
                        .with_str(format!("hw{i}"), &e.hw);
                }
                ev.to_json()
            }
            Reply::Done(d) => {
                let mut ev = versioned("job_done")
                    .with_u64("job", d.job)
                    .with_str("state", d.state.name())
                    .with_u64("iterations", d.iterations);
                if let Some(r) = d.best_reward {
                    ev = ev.with_f64("best_reward", r);
                }
                if let Some(e) = &d.error {
                    ev = ev.with_str("error", e);
                }
                ev.to_json()
            }
            Reply::ShuttingDown => versioned("shutting_down").to_json(),
            Reply::Ping => versioned("ping").to_json(),
            Reply::Error { code, message } => versioned("error")
                .with_str("code", code.name())
                .with_str("message", message)
                .to_json(),
        }
    }

    /// Parses one frame.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn parse(line: &str) -> Result<Reply, ProtoError> {
        let ev = parse_versioned(line)?;
        Ok(match ev.kind.as_str() {
            "submitted" => Reply::Submitted {
                job: get_u64(&ev, "job")?,
            },
            "job_status" => {
                let state_name = get_str(&ev, "state")?;
                Reply::Status(JobStatus {
                    job: get_u64(&ev, "job")?,
                    tenant: get_str(&ev, "tenant")?.to_string(),
                    state: JobState::from_name(state_name).ok_or_else(|| {
                        ProtoError::malformed(format!("unknown job state {state_name:?}"))
                    })?,
                    iterations_done: get_u64(&ev, "iterations_done")?,
                    iterations_total: get_u64(&ev, "iterations_total")?,
                    best_reward: ev.get_f64("best_reward"),
                    error: ev.get_str("error").map(str::to_string),
                    checkpoint: ev.get_str("checkpoint").map(str::to_string),
                })
            }
            "server_stats" => Reply::Stats(ServerStats {
                queued: get_u64(&ev, "queued")?,
                running: get_u64(&ev, "running")?,
                suspended: get_u64(&ev, "suspended")?,
                completed: get_u64(&ev, "completed")?,
                failed: get_u64(&ev, "failed")?,
                cache_hits: get_u64(&ev, "cache_hits")?,
                cache_misses: get_u64(&ev, "cache_misses")?,
                cache_hit_rate: get_f64(&ev, "cache_hit_rate")?,
                tenants: get_u64(&ev, "tenants")?,
                slow_client_evictions: ev.get_u64("slow_client_evictions").unwrap_or(0),
                heartbeats_missed: ev.get_u64("heartbeats_missed").unwrap_or(0),
                journal_fsyncs: ev.get_u64("journal_fsyncs").unwrap_or(0),
                drain_timeouts: ev.get_u64("drain_timeouts").unwrap_or(0),
                jobs_recovered: ev.get_u64("jobs_recovered").unwrap_or(0),
            }),
            "job_event" => Reply::Event {
                job: get_u64(&ev, "job")?,
                seq: get_u64(&ev, "seq")?,
                line: get_str(&ev, "line")?.to_string(),
            },
            "pareto_front" => {
                let count = get_u64(&ev, "count")?;
                // The allocation below trusts `count`; cap it first so a
                // hostile frame cannot request an absurd reservation.
                if count > MAX_PARETO_ENTRIES {
                    return Err(ProtoError::malformed(format!(
                        "pareto_front count {count} exceeds cap {MAX_PARETO_ENTRIES}"
                    )));
                }
                let mut entries = Vec::with_capacity(count as usize);
                for i in 0..count {
                    entries.push(ParetoEntry {
                        iteration: get_u64(&ev, &format!("iter{i}"))?,
                        accuracy: get_f64(&ev, &format!("acc{i}"))?,
                        latency_ms: get_f64(&ev, &format!("lat{i}"))?,
                        energy_mj: get_f64(&ev, &format!("eer{i}"))?,
                        reward: get_f64(&ev, &format!("rew{i}"))?,
                        hw: get_str(&ev, &format!("hw{i}"))?.to_string(),
                    });
                }
                Reply::ParetoFront(ParetoFront {
                    job: get_u64(&ev, "job")?,
                    entries,
                })
            }
            "job_done" => {
                let state_name = get_str(&ev, "state")?;
                Reply::Done(JobDone {
                    job: get_u64(&ev, "job")?,
                    state: JobState::from_name(state_name).ok_or_else(|| {
                        ProtoError::malformed(format!("unknown job state {state_name:?}"))
                    })?,
                    iterations: get_u64(&ev, "iterations")?,
                    best_reward: ev.get_f64("best_reward"),
                    error: ev.get_str("error").map(str::to_string),
                })
            }
            "shutting_down" => Reply::ShuttingDown,
            "ping" => Reply::Ping,
            "error" => {
                let code_name = get_str(&ev, "code")?;
                Reply::Error {
                    code: ErrorCode::from_name(code_name).ok_or_else(|| {
                        ProtoError::malformed(format!("unknown error code {code_name:?}"))
                    })?,
                    message: get_str(&ev, "message")?.to_string(),
                }
            }
            other => {
                return Err(ProtoError::malformed(format!(
                    "unknown reply kind {other:?}"
                )))
            }
        })
    }
}

fn versioned(kind: &str) -> Event {
    Event::new(kind).with_u64("v", PROTO_VERSION)
}

fn parse_versioned(line: &str) -> Result<Event, ProtoError> {
    if line.len() > MAX_FRAME_LEN {
        return Err(ProtoError::malformed(format!(
            "frame of {} bytes exceeds cap {MAX_FRAME_LEN}",
            line.len()
        )));
    }
    let ev = Event::parse(line).map_err(|e| ProtoError::malformed(e.to_string()))?;
    match ev.get_u64("v") {
        Some(PROTO_VERSION) => Ok(ev),
        Some(v) => Err(ProtoError {
            code: ErrorCode::UnsupportedVersion,
            message: format!("protocol version {v} (this server speaks {PROTO_VERSION})"),
        }),
        None => Err(ProtoError::malformed("missing \"v\" version field")),
    }
}

fn get_str<'e>(ev: &'e Event, name: &str) -> Result<&'e str, ProtoError> {
    ev.get_str(name)
        .ok_or_else(|| ProtoError::malformed(format!("missing string field {name:?}")))
}

fn get_u64(ev: &Event, name: &str) -> Result<u64, ProtoError> {
    ev.get_u64(name)
        .ok_or_else(|| ProtoError::malformed(format!("missing integer field {name:?}")))
}

fn get_f64(ev: &Event, name: &str) -> Result<f64, ProtoError> {
    ev.get_f64(name)
        .ok_or_else(|| ProtoError::malformed(format!("missing float field {name:?}")))
}

fn get_bool(ev: &Event, name: &str) -> Result<bool, ProtoError> {
    match ev.get(name) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(ProtoError::malformed(format!(
            "missing boolean field {name:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            tenant: "acme".to_string(),
            strategy: Strategy::Evolution,
            config: SearchConfig {
                iterations: 40,
                rollouts_per_update: 4,
                seed: 7,
                population: 12,
                tournament: 3,
            },
            reward: RewardConfig {
                alpha1: 0.25,
                omega1: -0.7,
                alpha2: 0.75,
                omega2: -0.07,
                constraints: Constraints {
                    t_lat_ms: 55.5,
                    t_eer_mj: 2.25,
                },
                form: RewardForm::Additive,
                hard_constraints: true,
                saturate_below_threshold: true,
            },
            scoring: ScoringPrecision::Int8,
            fault_budget: Some(9),
            checkpoint_every: Some(5),
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Submit {
                spec: sample_spec(),
                stream: true,
            },
            Request::Submit {
                spec: JobSpec::new("solo", RewardConfig::balanced(Constraints::paper())),
                stream: false,
            },
            Request::Status { job: 3 },
            Request::Suspend { job: 9 },
            Request::Resume {
                job: 9,
                stream: true,
            },
            Request::Subscribe {
                job: 1,
                from_seq: None,
            },
            Request::Subscribe {
                job: 1,
                from_seq: Some(42),
            },
            Request::Stats,
            Request::Shutdown,
            Request::Pong,
        ];
        for req in requests {
            let line = req.to_json();
            assert_eq!(Request::parse(&line).unwrap(), req, "frame: {line}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = vec![
            Reply::Submitted { job: 17 },
            Reply::Status(JobStatus {
                job: 17,
                tenant: "acme".to_string(),
                state: JobState::Suspended,
                iterations_done: 12,
                iterations_total: 40,
                best_reward: Some(1.25),
                error: None,
                checkpoint: Some("/tmp/jobs/17/ckpt_000012.snap".to_string()),
            }),
            Reply::Status(JobStatus {
                job: 2,
                tenant: "other".to_string(),
                state: JobState::Failed,
                iterations_done: 3,
                iterations_total: 10,
                best_reward: None,
                error: Some("fault budget exhausted: 4 faults > budget 3".to_string()),
                checkpoint: None,
            }),
            Reply::Stats(ServerStats {
                queued: 1,
                running: 2,
                suspended: 3,
                completed: 4,
                failed: 5,
                cache_hits: 100,
                cache_misses: 25,
                cache_hit_rate: 0.8,
                tenants: 8,
                slow_client_evictions: 2,
                heartbeats_missed: 1,
                journal_fsyncs: 37,
                drain_timeouts: 1,
                jobs_recovered: 3,
            }),
            Reply::Event {
                job: 17,
                seq: 4,
                line: "{\"event\":\"search_iter\",\"iter\":4,\"reward\":0.5}".to_string(),
            },
            Reply::ParetoFront(ParetoFront {
                job: 17,
                entries: vec![
                    ParetoEntry {
                        iteration: 3,
                        accuracy: 0.91,
                        latency_ms: 12.5,
                        energy_mj: 0.75,
                        reward: 1.375,
                        hw: "pes=64 gbuf_kb=128 rbuf_bytes=512".to_string(),
                    },
                    ParetoEntry {
                        iteration: 31,
                        accuracy: 0.94,
                        latency_ms: 19.25,
                        energy_mj: 1.5,
                        reward: 1.25,
                        hw: "pes=256 gbuf_kb=256 rbuf_bytes=1024".to_string(),
                    },
                ],
            }),
            Reply::ParetoFront(ParetoFront {
                job: 4,
                entries: Vec::new(),
            }),
            Reply::Done(JobDone {
                job: 17,
                state: JobState::Completed,
                iterations: 40,
                best_reward: Some(1.5),
                error: None,
            }),
            Reply::ShuttingDown,
            Reply::Ping,
            Reply::Error {
                code: ErrorCode::AdmissionFull,
                message: "queue at capacity (64 pending)".to_string(),
            },
        ];
        for reply in replies {
            let line = reply.to_json();
            assert_eq!(Reply::parse(&line).unwrap(), reply, "frame: {line}");
        }
    }

    #[test]
    fn event_line_payload_is_byte_exact_through_the_codec() {
        // A stream frame must deliver the inner trace line byte-for-byte
        // even when it contains quotes, backslashes and non-ASCII text.
        let inner = "{\"event\":\"search_iter\",\"iter\":0,\"note\":\"q\\\"uo\\\\te\u{00e9}\"}";
        let frame = Reply::Event {
            job: 1,
            seq: 0,
            line: inner.to_string(),
        }
        .to_json();
        match Reply::parse(&frame).unwrap() {
            Reply::Event { line, .. } => assert_eq!(line, inner),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn pareto_front_frame_is_bit_exact_through_the_codec() {
        // Archive objectives must survive the wire without rounding so
        // the served front can be compared `==` against the in-process
        // archive. Use values with awkward binary expansions.
        let front = ParetoFront {
            job: 9,
            entries: vec![ParetoEntry {
                iteration: u64::MAX >> 12,
                accuracy: 0.1 + 0.2,
                latency_ms: 1.0 / 3.0,
                energy_mj: 6.02214076e-23,
                reward: -1.7976931348623157e308,
                hw: "pes=8 gbuf_kb=16 rbuf_bytes=\"64\"".to_string(),
            }],
        };
        let line = Reply::ParetoFront(front.clone()).to_json();
        match Reply::parse(&line).unwrap() {
            Reply::ParetoFront(back) => {
                assert_eq!(back.job, front.job);
                assert_eq!(back.entries.len(), 1);
                let (a, b) = (&back.entries[0], &front.entries[0]);
                assert_eq!(a.iteration, b.iteration);
                assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
                assert_eq!(a.latency_ms.to_bits(), b.latency_ms.to_bits());
                assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
                assert_eq!(a.reward.to_bits(), b.reward.to_bits());
                assert_eq!(a.hw, b.hw);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn spec_round_trips_through_its_frame() {
        let spec = sample_spec();
        let line = spec.to_json();
        assert_eq!(JobSpec::parse(&line).unwrap(), spec);
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let line = Event::new("stats").with_u64("v", 99).to_json();
        let err = Request::parse(&line).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);

        let unversioned = Event::new("stats").to_json();
        let err = Request::parse(&unversioned).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedFrame);

        let err = Request::parse("not json at all").unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedFrame);
    }

    #[test]
    fn invalid_spec_fields_are_typed() {
        let mut spec = sample_spec();
        spec.config.iterations = 0;
        let line = Request::Submit {
            spec,
            stream: false,
        }
        .to_json();
        let err = Request::parse(&line).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidSpec);
    }

    #[test]
    fn stats_counter_fields_are_additive() {
        // A v1 frame from a peer that predates the resilience counters
        // must still parse, with the new counters defaulting to zero.
        let legacy = versioned("server_stats")
            .with_u64("queued", 1)
            .with_u64("running", 2)
            .with_u64("suspended", 0)
            .with_u64("completed", 3)
            .with_u64("failed", 0)
            .with_u64("cache_hits", 10)
            .with_u64("cache_misses", 5)
            .with_f64("cache_hit_rate", 0.666)
            .with_u64("tenants", 2)
            .to_json();
        match Reply::parse(&legacy).unwrap() {
            Reply::Stats(s) => {
                assert_eq!(s.queued, 1);
                assert_eq!(s.slow_client_evictions, 0);
                assert_eq!(s.heartbeats_missed, 0);
                assert_eq!(s.journal_fsyncs, 0);
                assert_eq!(s.drain_timeouts, 0);
                assert_eq!(s.jobs_recovered, 0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected_before_parsing() {
        let mut line = String::from("{\"event\":\"stats\",\"v\":1,\"pad\":\"");
        line.push_str(&"x".repeat(MAX_FRAME_LEN));
        line.push_str("\"}");
        let err = Request::parse(&line).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedFrame);
        assert!(err.message.contains("exceeds cap"), "{}", err.message);
    }

    #[test]
    fn pareto_count_is_capped_before_allocation() {
        // A hostile frame declaring u64::MAX entries must bounce with a
        // typed error instead of reserving memory for them.
        let line = versioned("pareto_front")
            .with_u64("job", 1)
            .with_u64("count", u64::MAX)
            .to_json();
        let err = Reply::parse(&line).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedFrame);
        assert!(err.message.contains("exceeds cap"), "{}", err.message);
    }

    #[test]
    fn names_round_trip() {
        for code in [
            ErrorCode::MalformedFrame,
            ErrorCode::UnsupportedVersion,
            ErrorCode::InvalidSpec,
            ErrorCode::UnknownJob,
            ErrorCode::AdmissionFull,
            ErrorCode::FaultBudgetExhausted,
            ErrorCode::InvalidState,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_name(code.name()), Some(code));
        }
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Suspended,
            JobState::Completed,
            JobState::Failed,
        ] {
            assert_eq!(JobState::from_name(state.name()), Some(state));
        }
    }
}
