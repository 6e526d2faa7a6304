//! Server lifecycle integration tests: the co-design-as-a-service
//! daemon end to end over real TCP.
//!
//! The central contract is determinism: a job served over the wire
//! must stream the *byte-identical* `search_iter` JSONL that the same
//! seed produces in-process, including across a
//! suspend → server-restart → resume cycle, and including when a
//! chaos plan is faulting a *different* tenant on the same server.

use std::sync::atomic::{AtomicU64, Ordering};

use yoso::core::checkpoint::checkpoint_file_name;
use yoso::prelude::*;
use yoso_server::proto::Request;

fn tiny_reward() -> RewardConfig {
    let sk = yoso::arch::NetworkSkeleton::tiny();
    RewardConfig::balanced(calibrate_constraints(&sk, 50, 0, 50.0))
}

fn spec(tenant: &str, iterations: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(tenant, tiny_reward());
    spec.config = yoso::core::SearchConfig {
        iterations,
        rollouts_per_update: 3,
        seed,
        population: 10,
        tournament: 3,
    };
    spec
}

/// The same search run in-process, returning its `search_iter` lines.
/// Checkpoint cadence never changes the trace, so it is dropped here
/// rather than wiring up a scratch directory.
fn in_process_lines(spec: &JobSpec) -> Vec<String> {
    let mut spec = spec.clone();
    spec.checkpoint_every = None;
    let evaluator = SurrogateEvaluator::new(yoso::arch::NetworkSkeleton::tiny());
    let trace = Trace::memory();
    spec.apply(SearchSession::builder())
        .evaluator(&evaluator)
        .trace(trace.clone())
        .run()
        .expect("in-process run");
    search_iter_lines(&trace.lines())
}

fn search_iter_lines(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| l.starts_with("{\"event\":\"search_iter\""))
        .cloned()
        .collect()
}

/// Fresh checkpoint root per test so parallel tests never collide.
fn temp_root(tag: &str) -> std::path::PathBuf {
    static SALT: AtomicU64 = AtomicU64::new(0);
    let n = SALT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("yoso_server_{tag}_{}_{n}", std::process::id()))
}

/// These tests share one process and chaos plans are global — an
/// unscoped network-fault plan armed by one test would corrupt another
/// test's wire traffic. Every test serializes on the chaos test lock
/// and clears any plan a panicked predecessor left armed.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = yoso::chaos::test_lock();
    yoso::chaos::disarm();
    guard
}

#[test]
fn served_stream_is_byte_identical_to_in_process_run() {
    let _guard = serial();
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let spec = spec("equiv", 9, 42);
    let job = client.submit(&spec, true).unwrap();
    let (lines, done) = client.wait_done(job).unwrap();
    assert_eq!(done.state, JobState::Completed);
    assert_eq!(done.iterations, 9);
    assert!(done.best_reward.is_some());

    let served = search_iter_lines(&lines);
    assert_eq!(served.len(), 9);
    assert_eq!(served, in_process_lines(&spec), "served stream diverged");

    // The replay path serves the same bytes again after completion.
    let mut late = Client::connect(server.addr()).unwrap();
    let status = late.subscribe(job).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.iterations_done, 9);
    let (replayed, done2) = late.wait_done(job).unwrap();
    assert_eq!(search_iter_lines(&replayed), served);
    assert_eq!(done2.state, JobState::Completed);

    server.shutdown();
}

#[test]
fn suspend_resume_across_server_restart_is_bit_identical() {
    let _guard = serial();
    let root = temp_root("resume");
    let cfg = ServerConfig {
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let spec = spec("suspender", 120, 7);
    let mut spec = spec;
    spec.checkpoint_every = Some(6);
    let job = client.submit(&spec, true).unwrap();

    // Let at least one iteration stream, then ask for suspension; the
    // session stops at its next controller-update boundary and writes
    // a suspend checkpoint.
    let first = client.next_event().unwrap();
    assert!(matches!(first, Reply::Event { .. }));
    client.suspend(job).unwrap();
    let (pre_raw, done) = client.wait_done(job).unwrap();
    assert_eq!(done.state, JobState::Suspended);
    let mut pre = search_iter_lines(&pre_raw);
    // One event was consumed by hand above.
    if let Reply::Event { line, .. } = first {
        if line.starts_with("{\"event\":\"search_iter\"") {
            pre.insert(0, line);
        }
    }
    assert!(
        !pre.is_empty() && pre.len() < 120,
        "suspend landed mid-run ({} iterations)",
        pre.len()
    );
    let status = client.status(job).unwrap();
    assert_eq!(status.state, JobState::Suspended);
    assert!(status.checkpoint.is_some(), "suspend wrote a checkpoint");
    drop(client);
    server.shutdown();

    // A brand-new server process state: resume purely from disk.
    let server2 = Server::start(ServerConfig {
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client2 = Client::connect(server2.addr()).unwrap();
    let status = client2.resume(job, true).unwrap();
    assert_eq!(status.job, job);
    assert_eq!(status.tenant, "suspender");
    let (post_raw, done2) = client2.wait_done(job).unwrap();
    assert_eq!(done2.state, JobState::Completed);
    assert_eq!(done2.iterations, 120);
    let post = search_iter_lines(&post_raw);

    let mut stitched = pre;
    stitched.extend(post);
    assert_eq!(
        stitched,
        in_process_lines(&spec),
        "suspend/restart/resume diverged from the uninterrupted run"
    );
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn served_pareto_front_matches_the_in_process_archive() {
    let _guard = serial();
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let spec = spec("multi", 12, 21);
    let job = client.submit(&spec, true).unwrap();
    let (_, done) = client.wait_done(job).unwrap();
    assert_eq!(done.state, JobState::Completed);

    // Same seed in-process: the served frame must carry exactly this
    // run's non-dominated archive, value-identical after the codec.
    let evaluator = SurrogateEvaluator::new(yoso::arch::NetworkSkeleton::tiny());
    let outcome = spec
        .apply(SearchSession::builder())
        .evaluator(&evaluator)
        .run()
        .expect("in-process run");
    let expected = yoso_server::pareto_front_of(job, &outcome);
    assert!(!expected.entries.is_empty());

    let served = client
        .pareto_front(job)
        .expect("pareto_front streamed before job_done");
    assert_eq!(*served, expected);

    // The replay path hands a late subscriber the identical frame.
    let mut late = Client::connect(server.addr()).unwrap();
    late.subscribe(job).unwrap();
    let (_, done2) = late.wait_done(job).unwrap();
    assert_eq!(done2.state, JobState::Completed);
    assert_eq!(late.pareto_front(job), Some(&expected));

    server.shutdown();
}

#[test]
fn rejection_paths_return_typed_error_codes() {
    let _guard = serial();
    let server = Server::start(ServerConfig {
        max_concurrent_jobs: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Unknown job.
    let err = client.status(9_999).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnknownJob));

    // Malformed frame and version mismatch, straight over the socket.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut reply = String::new();

        writeln!(raw, "this is not a frame").unwrap();
        reader.read_line(&mut reply).unwrap();
        match Reply::parse(reply.trim()).unwrap() {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
            other => panic!("expected error frame, got {other:?}"),
        }

        reply.clear();
        writeln!(raw, "{}", Event::new("stats").with_u64("v", 99).to_json()).unwrap();
        reader.read_line(&mut reply).unwrap();
        match Reply::parse(reply.trim()).unwrap() {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    // Saturate the single runner with a long job, then fill the
    // one-slot queue; the next submit must bounce with AdmissionFull.
    let blocker = client.submit(&spec("hog", 4_000, 1), false).unwrap();
    for _ in 0..1_000 {
        if client.status(blocker).unwrap().state == JobState::Running {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(client.status(blocker).unwrap().state, JobState::Running);
    let queued = client.submit(&spec("hog", 10, 2), false).unwrap();
    let err = client.submit(&spec("hog", 10, 3), false).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::AdmissionFull));

    // Resuming a job that is not suspended is a typed state error.
    let err = client.resume(blocker, false).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::InvalidState));
    let err = client.resume(queued, false).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::InvalidState));

    // After a shutdown request, submits are refused.
    client.request(&Request::Shutdown).unwrap();
    let err = client.submit(&spec("hog", 10, 4), false).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::ShuttingDown));

    server.shutdown();
}

/// A precision the daemon's evaluator cannot score is refused at
/// admission with `InvalidSpec`: no job is admitted, and nothing is
/// persisted or journaled for it.
#[test]
fn unscorable_precision_is_refused_before_admission() {
    let _guard = serial();
    let root = temp_root("unscorable");
    let server = Server::start(ServerConfig {
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut int8 = spec("quantized", 6, 5);
    int8.scoring = yoso::core::evaluation::ScoringPrecision::Int8;
    match client.submit(&int8, true) {
        Err(err) => assert_eq!(err.code(), Some(ErrorCode::InvalidSpec), "{err}"),
        Ok(job) => panic!("int8 job {job} was admitted by a surrogate-scoring daemon"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        [
            stats.queued,
            stats.running,
            stats.suspended,
            stats.completed,
            stats.failed
        ],
        [0; 5],
        "a refused job shows up in {stats:?}"
    );
    drop(client);
    server.shutdown();

    let job_dirs: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    assert!(job_dirs.is_empty(), "refused job persisted: {job_dirs:?}");
    let recovery = yoso_server::journal::recover(&root).unwrap();
    assert!(
        recovery.jobs.is_empty(),
        "refused job journaled: {:?}",
        recovery.jobs
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scoped_chaos_faults_one_tenant_and_spares_others() {
    let _guard = serial();
    // Baseline before arming chaos: what the clean tenant's stream
    // must keep looking like.
    let clean_spec = spec("bystander", 9, 99);
    let baseline = in_process_lines(&clean_spec);

    // Every reward for the victim tenant's scope goes NaN; nobody
    // else matches the scope, so no other thread can fault.
    let mut plan = FaultPlan::new(11);
    plan.rules
        .push(FaultRule::rate(FaultKind::NanReward, 1.0).scope(yoso::chaos::scope_for("victim")));
    yoso::chaos::install(&plan);

    let server = Server::start(ServerConfig {
        tenant_fault_budget: Some(1),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // The victim's job degrades gracefully until its per-job fault
    // budget trips, then the job fails with the typed core error.
    let mut victim = spec("victim", 30, 5);
    victim.fault_budget = Some(2);
    let job = client.submit(&victim, true).unwrap();
    let (_, done) = client.wait_done(job).unwrap();
    assert_eq!(done.state, JobState::Failed);
    let msg = done.error.expect("failed job carries its error");
    assert!(
        msg.contains("fault budget exhausted"),
        "unexpected failure: {msg}"
    );
    let status = client.status(job).unwrap();
    assert_eq!(status.state, JobState::Failed);

    // The tenant's ledger is now over the server-side budget: further
    // submissions from the same tenant bounce with a typed code.
    let err = client.submit(&victim, false).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::FaultBudgetExhausted));

    // A clean tenant on the same faulted server is untouched:
    // byte-identical to the chaos-free in-process baseline.
    let clean_job = client.submit(&clean_spec, true).unwrap();
    let (lines, clean_done) = client.wait_done(clean_job).unwrap();
    assert_eq!(clean_done.state, JobState::Completed);
    assert_eq!(search_iter_lines(&lines), baseline);

    server.shutdown();
    yoso::chaos::disarm();
}

/// Fabricates a crashed daemon's disk state for a 24-iteration RL job
/// `job` under `root`, as if the process died after streaming `crash_at`
/// iterations: runs the job's spec in-process with its checkpoint dir
/// (checkpoints every 6 iterations), keeps only the checkpoints written
/// before the crash and journals the job's lines up to the crash point.
/// Returns the uninterrupted run's lines and how many of them the
/// journal holds.
fn journal_crashed_job(
    root: &std::path::Path,
    journal: &mut Journal,
    job: u64,
    tenant: &str,
    crash_at: usize,
) -> (Vec<String>, usize) {
    let mut spec = spec(tenant, 24, 1234);
    spec.checkpoint_every = Some(6);
    let job_dir = root.join(job.to_string());
    std::fs::create_dir_all(&job_dir).unwrap();
    let evaluator = SurrogateEvaluator::new(yoso::arch::NetworkSkeleton::tiny());
    let trace = Trace::memory();
    spec.apply(SearchSession::builder())
        .evaluator(&evaluator)
        .checkpoint_dir(job_dir.clone())
        .trace(trace.clone())
        .run()
        .expect("seed run");
    let all_lines = trace.lines();
    for stale in (6..=24).step_by(6).filter(|&it| it > crash_at) {
        std::fs::remove_file(job_dir.join(checkpoint_file_name(stale))).unwrap();
    }
    std::fs::write(job_dir.join("spec.json"), format!("{}\n", spec.to_json())).unwrap();
    journal
        .append(&Record::Admit {
            job,
            spec_json: spec.to_json(),
        })
        .unwrap();
    let mut iters = 0;
    let mut journaled = 0;
    for line in &all_lines {
        if line.starts_with("{\"event\":\"search_iter\"") {
            iters += 1;
        }
        journal
            .append(&Record::Line {
                job,
                line: line.clone(),
            })
            .unwrap();
        journaled += 1;
        if iters == crash_at {
            break;
        }
    }
    (all_lines, journaled)
}

/// Crash recovery, end to end: a journal describing a job interrupted
/// mid-run (admitted, lines streamed, **no** terminal record — exactly
/// what a SIGKILL leaves behind) is replayed at startup, the job
/// auto-resumes from its newest checkpoint, and a client subscribing
/// to the recovered job collects the byte-identical `search_iter`
/// stream of an uninterrupted in-process run — zero lost, zero
/// duplicated iterations.
#[test]
fn journal_recovery_resumes_interrupted_jobs_byte_identically() {
    let _guard = serial();
    let root = temp_root("recover");
    let job_id = 1u64;

    let mut journal = Journal::open(&root, 0).unwrap();
    // Crash two iterations past the 12-iteration checkpoint.
    let (all_lines, _) = journal_crashed_job(&root, &mut journal, job_id, "phoenix", 14);
    journal.sync().unwrap();
    drop(journal);
    let full_stream = search_iter_lines(&all_lines);
    assert_eq!(full_stream.len(), 24);

    // Restart: recovery must re-admit the job, auto-resume it from the
    // iteration-12 checkpoint, and re-emit iterations 13.. exactly.
    let server = Server::start(ServerConfig {
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.subscribe(job_id).unwrap();
    let (lines, done) = client.wait_done(job_id).unwrap();
    assert_eq!(done.state, JobState::Completed);
    assert_eq!(done.iterations, 24);
    assert_eq!(
        search_iter_lines(&lines),
        full_stream,
        "recovered job's stream diverged from the uninterrupted run"
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_recovered, 1);

    // The journal was compacted + extended: a second restart restores
    // the job as completed, fully replayable, without re-running it.
    drop(client);
    server.shutdown();
    let server2 = Server::start(ServerConfig {
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client2 = Client::connect(server2.addr()).unwrap();
    let status = client2.subscribe(job_id).unwrap();
    assert_eq!(status.state, JobState::Completed);
    let (replayed, done2) = client2.wait_done(job_id).unwrap();
    assert_eq!(done2.state, JobState::Completed);
    assert_eq!(search_iter_lines(&replayed), full_stream);
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A recovered job's log continues with the uninterrupted run's seq
/// numbering, whether it resumes from a checkpoint (job 1) or restarts
/// because it crashed before its first one (job 2). A client that saw
/// the journaled lines before the crash resubscribes from their count
/// and, keeping each seq once as `ResilientClient` does, collects every
/// iteration exactly once.
#[test]
fn recovered_job_keeps_the_uninterrupted_seq_numbering() {
    let _guard = serial();
    let root = temp_root("watermark");
    let mut journal = Journal::open(&root, 0).unwrap();
    let crashed = [
        journal_crashed_job(&root, &mut journal, 1, "watermark", 14),
        journal_crashed_job(&root, &mut journal, 2, "watermark", 2),
    ];
    journal.sync().unwrap();
    drop(journal);

    let server = Server::start(ServerConfig {
        checkpoint_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    for (job, (all_lines, journaled)) in (1..).zip(crashed) {
        let mut client = Client::connect(server.addr()).unwrap();
        client.subscribe_from(job, journaled as u64).unwrap();
        // The watermark rule: accept the event at `next`, drop replays below.
        let mut collected = all_lines[..journaled].to_vec();
        let mut next = journaled as u64;
        loop {
            match client.next_event().unwrap() {
                Reply::Event { seq, line, .. } => {
                    if seq < next {
                        continue;
                    }
                    assert_eq!(seq, next, "job {job}: event gap");
                    collected.push(line);
                    next += 1;
                }
                Reply::Done(done) => {
                    assert_eq!(done.state, JobState::Completed);
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(
            search_iter_lines(&collected),
            search_iter_lines(&all_lines),
            "job {job}: resubscribing at the watermark lost or duplicated iterations"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A job suspended on a daemon with no checkpoint root has nothing to
/// continue from, so `resume` reruns it from iteration 0. The rerun is
/// a new run in the job's log and opens with its own `search_start`.
#[test]
fn resume_without_a_checkpoint_reruns_under_its_own_search_start() {
    let _guard = serial();
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let is_iter = |line: &str| line.starts_with("{\"event\":\"search_iter\"");
    let next_line = |client: &mut Client| match client.next_event().unwrap() {
        Reply::Event { line, .. } => line,
        other => panic!("unexpected frame {other:?}"),
    };

    let job = client.submit(&spec("rerun", 100_000, 17), true).unwrap();
    let first_iter = std::iter::repeat_with(|| next_line(&mut client))
        .find(|l| is_iter(l))
        .unwrap();
    client.suspend(job).unwrap();
    let (_, done) = client.wait_done(job).unwrap();
    assert_eq!(done.state, JobState::Suspended);
    assert!(client.status(job).unwrap().checkpoint.is_none());

    client.resume(job, true).unwrap();
    let opening = next_line(&mut client);
    assert!(
        opening.starts_with("{\"event\":\"search_start\"") && !opening.contains("resume_iteration"),
        "the rerun's stream opened with {opening}"
    );
    let rerun_iter = std::iter::repeat_with(|| next_line(&mut client))
        .find(|l| is_iter(l))
        .unwrap();
    assert_eq!(
        rerun_iter, first_iter,
        "the rerun starts over from iteration 0"
    );
    client.suspend(job).unwrap();
    client.wait_done(job).unwrap();

    let mut late = Client::connect(server.addr()).unwrap();
    late.subscribe(job).unwrap();
    let (log, _) = late.wait_done(job).unwrap();
    let starts = log
        .iter()
        .filter(|l| l.starts_with("{\"event\":\"search_start\""))
        .count();
    assert_eq!(starts, 2, "each run in the log opens with a search_start");
    server.shutdown();
}

/// A plain subscriber that asks for events from `from` before the job's
/// log reaches `from` gets its first event at exactly `from`.
#[test]
fn subscribe_from_ahead_of_the_log_starts_at_from() {
    let _guard = serial();
    let root = temp_root("floor");
    let mut journal = Journal::open(&root, 0).unwrap();
    // Job 1 holds the only runner, so the recovered job 2 is still
    // queued, its log short of `from`, when the client subscribes.
    journal
        .append(&Record::Admit {
            job: 1,
            spec_json: spec("blocker", 100_000, 5).to_json(),
        })
        .unwrap();
    let (all_lines, from) = journal_crashed_job(&root, &mut journal, 2, "floor", 14);
    journal.sync().unwrap();
    drop(journal);

    let server = Server::start(ServerConfig {
        checkpoint_root: Some(root.clone()),
        max_concurrent_jobs: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.subscribe_from(2, from as u64).unwrap();
    client.suspend(1).unwrap();
    let mut seqs = Vec::new();
    let mut lines = Vec::new();
    loop {
        match client.next_event().unwrap() {
            Reply::Event { seq, line, .. } => {
                seqs.push(seq);
                lines.push(line);
            }
            Reply::Done(done) => {
                assert_eq!(done.state, JobState::Completed);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(seqs.first(), Some(&(from as u64)), "first event seq");
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "seqs {seqs:?}");
    assert_eq!(
        search_iter_lines(&lines),
        search_iter_lines(&all_lines)[14..],
        "the stream from `from` diverged from the uninterrupted run"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A corrupted journal is a typed, recoverable condition: the damaged
/// job is skipped (not crashed on), intact jobs recover normally, and
/// the daemon starts.
#[test]
fn corrupt_journal_records_skip_the_job_not_the_server() {
    let _guard = serial();
    let root = temp_root("corrupt");
    std::fs::create_dir_all(&root).unwrap();
    let good = spec("survivor", 5, 77);
    let mut journal = Journal::open(&root, 0).unwrap();
    journal
        .append(&Record::Admit {
            job: 1,
            spec_json: good.to_json(),
        })
        .unwrap();
    journal
        .append(&Record::Admit {
            job: 2,
            spec_json: "{not json at all".to_string(),
        })
        .unwrap();
    journal.sync().unwrap();
    drop(journal);

    // Flip a byte inside the first record's payload: checksum mismatch
    // → the record is skipped and job 1 never admits; job 2's admit
    // decodes but its spec is unparseable → skipped at restore.
    let path = yoso_server::journal::journal_path(&root);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[16] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let recovery = yoso_server::journal::recover(&root).unwrap();
    assert_eq!(recovery.corrupt_records, 1, "typed corruption count");

    let server = Server::start(ServerConfig {
        checkpoint_root: Some(root.clone()),
        max_concurrent_jobs: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Neither damaged job exists; the server is healthy for new work.
    assert_eq!(
        client.status(1).unwrap_err().code(),
        Some(ErrorCode::UnknownJob)
    );
    assert_eq!(
        client.status(2).unwrap_err().code(),
        Some(ErrorCode::UnknownJob)
    );
    let job = client.submit(&good, true).unwrap();
    let (_, done) = client.wait_done(job).unwrap();
    assert_eq!(done.state, JobState::Completed);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A subscriber that cannot drain its stream is evicted once its
/// bounded write queue fills — memory stays bounded and the job (and
/// healthy subscribers) are unaffected. The writer thread is slowed
/// with a seeded `stall` chaos plan so the queue fills
/// deterministically.
#[test]
fn slow_subscribers_are_evicted_not_buffered_unboundedly() {
    let _guard = serial();
    let mut plan = FaultPlan::new(3);
    plan.rules
        .push(FaultRule::rate(FaultKind::Stall, 1.0).delay_ms(40));
    yoso::chaos::install(&plan);

    let server = Server::start(ServerConfig {
        max_subscriber_queue: 3,
        ..ServerConfig::default()
    })
    .unwrap();

    // Run the job to completion first (its ~hundred trace lines are
    // now all in the replay log), then subscribe from a raw socket
    // that never reads. Replay floods the 3-slot queue while the
    // chaos-stalled writer drains one frame per 40ms: eviction is
    // deterministic, not a race on socket buffers.
    let mut ctl = Client::connect(server.addr()).unwrap();
    let spec = spec("flood", 40, 13);
    let job = ctl.submit(&spec, false).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while ctl.status(job).unwrap().state != JobState::Completed {
        assert!(std::time::Instant::now() < deadline, "job never completed");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    writeln!(
        raw,
        "{}",
        Request::Subscribe {
            job,
            from_seq: None
        }
        .to_json()
    )
    .unwrap();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let stats = ctl.stats().unwrap();
        if stats.slow_client_evictions > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stalled subscriber was never evicted"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    yoso::chaos::disarm();

    // The job itself (and the control connection, whose queue never
    // grew past one frame) is untouched by the eviction.
    let status = ctl.status(job).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.iterations_done, 40);
    server.shutdown();
}

/// Silent connections get heartbeat probes and are closed after the
/// configured number of unanswered pings; a real [`Client`] answers
/// pings transparently and survives the same idle window.
#[test]
fn heartbeats_probe_then_close_silent_connections() {
    let _guard = serial();
    let server = Server::start(ServerConfig {
        read_timeout: std::time::Duration::from_millis(60),
        heartbeat_misses: 2,
        ..ServerConfig::default()
    })
    .unwrap();

    // A raw socket that never writes: it must see ping frames, then a
    // clean close once the miss budget is spent.
    {
        use std::io::{BufRead, BufReader};
        let raw = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut pings = 0;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // server closed us
                Ok(_) => {
                    if matches!(Reply::parse(line.trim()), Ok(Reply::Ping)) {
                        pings += 1;
                    }
                }
            }
        }
        assert!(pings >= 1, "silent connection never got a heartbeat probe");
    }

    // A real client blocked in `wait_done` across many heartbeat
    // windows answers the pings under the hood (the 3-miss budget is
    // ~180ms; the job runs far longer) and the connection survives.
    let mut client = Client::connect(server.addr()).unwrap();
    let started = std::time::Instant::now();
    let job = client.submit(&spec("alive", 2_000, 2), true).unwrap();
    let (_, done) = client.wait_done(job).unwrap();
    assert_eq!(done.state, JobState::Completed);
    assert!(
        started.elapsed() > std::time::Duration::from_millis(200),
        "job too fast to span a heartbeat miss window"
    );
    assert_eq!(client.status(job).unwrap().state, JobState::Completed);

    let mut poller = Client::connect(server.addr()).unwrap();
    assert!(
        poller.stats().unwrap().heartbeats_missed >= 1,
        "silent connection close was not counted"
    );
    server.shutdown();
}

/// A `ResilientClient` rides out a mid-stream network chaos plan —
/// connection drops, partial writes, garbage frames — and still
/// collects the byte-identical stream, with zero lost or duplicated
/// iterations.
#[test]
fn resilient_client_survives_network_chaos_byte_identically() {
    let _guard = serial();
    let spec = spec("healer", 30, 4242);
    let baseline = in_process_lines(&spec);

    let mut plan = FaultPlan::new(2024);
    plan.rules.push(FaultRule::rate(FaultKind::ConnDrop, 0.04));
    plan.rules
        .push(FaultRule::rate(FaultKind::PartialWrite, 0.04));
    plan.rules
        .push(FaultRule::rate(FaultKind::GarbageFrame, 0.08));
    yoso::chaos::install(&plan);

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut rc = ResilientClient::new(
        server.addr().to_string(),
        RetryPolicy {
            max_retries: 30,
            base_delay: std::time::Duration::from_millis(5),
            max_delay: std::time::Duration::from_millis(100),
            seed: 99,
        },
    );
    let job = rc.submit(&spec).unwrap();
    let (lines, done) = rc.wait_done(job).unwrap();
    yoso::chaos::disarm();

    assert_eq!(done.state, JobState::Completed);
    assert_eq!(
        search_iter_lines(&lines),
        baseline,
        "self-healed stream diverged (lost or duplicated events)"
    );
    server.shutdown();
}

/// A finished job's whole replay reaches a `ResilientClient` ahead of
/// the subscribe reply. When a network fault cuts the connection before
/// that reply, the replayed events already received must still count,
/// or a replay longer than the link survives between faults never
/// completes.
#[test]
fn resilient_client_keeps_replayed_events_of_a_finished_job() {
    let _guard = serial();
    let spec = spec("replayer", 30, 4242);
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut clean = Client::connect(server.addr()).unwrap();
    let job = clean.submit(&spec, true).unwrap();
    let (clean_lines, done) = clean.wait_done(job).unwrap();
    assert_eq!(done.state, JobState::Completed);

    let mut plan = FaultPlan::new(2024);
    plan.rules.push(FaultRule::rate(FaultKind::ConnDrop, 0.04));
    plan.rules
        .push(FaultRule::rate(FaultKind::PartialWrite, 0.04));
    plan.rules
        .push(FaultRule::rate(FaultKind::GarbageFrame, 0.08));
    yoso::chaos::install(&plan);
    let mut rc = ResilientClient::new(
        server.addr().to_string(),
        RetryPolicy {
            max_retries: 30,
            base_delay: std::time::Duration::from_millis(5),
            max_delay: std::time::Duration::from_millis(100),
            seed: 99,
        },
    );
    let collected = rc.wait_done(job);
    yoso::chaos::disarm();

    let (lines, done) = collected.unwrap();
    assert_eq!(done.state, JobState::Completed);
    assert_eq!(
        search_iter_lines(&lines),
        search_iter_lines(&clean_lines),
        "replayed stream diverged (lost or duplicated events)"
    );
    server.shutdown();
}

/// Stop sequences the lost-reply test repeats: a race that loses the
/// reply in a few percent of cycles fails this many almost surely.
const SHUTDOWN_CYCLES: usize = 300;

/// The daemon's stop sequence — a client's `shutdown`, then the main
/// thread's `wait_for_shutdown_request` and `shutdown` — always delivers
/// the `shutting_down` reply: it is queued before the main thread wakes,
/// and `shutdown` flushes queued frames before it closes a socket.
/// Repeated, since losing the reply is a race.
#[test]
fn shutdown_reply_survives_the_stop_sequence() {
    let _guard = serial();
    for cycle in 0..SHUTDOWN_CYCLES {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.addr();
        let client = std::thread::spawn(move || {
            let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
            admin.shutdown_server().map_err(|e| e.to_string())
        });
        server.wait_for_shutdown_request();
        server.shutdown();
        let reply = client.join().expect("client thread");
        assert_eq!(reply, Ok(()), "cycle {cycle} lost the shutting_down reply");
    }
}
