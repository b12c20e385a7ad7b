//! Integration tests for the durable multi-campaign job queue: two
//! campaigns submitted over the wire to one queue daemon, interleaved
//! across shared any-campaign workers talking through the deterministic
//! chaos proxy — and the per-job stores are byte-identical to clean
//! single-host runs.
//!
//! Also here: held claims. A claim that finds nothing to lease is held
//! open and answered by the next lease or by `Drained`, never by a `Wait`
//! while its hold window lasts.
//!
//! And the crash-recovery acceptance test. A `stabcon serve`
//! subprocess is `kill -9`'d mid-run; a restart with `--resume`
//! replays the `stabcon-jobs/1` journal, re-queues the interrupted jobs,
//! resumes their partial stores, and still converges to the exact
//! reference bytes.

mod common;

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{cleanup_daemon, reference_bytes, tmp, wait_for_lines, Raw};
use stabcon_exp::fabric::{
    cancel_job, job_store_path, query_status, run_worker_any, submit_campaign, ChaosProxy,
    ChaosSpec, Msg, QueueOutcome, QueueServeConfig, QueueServer, SpecDescriptor, WorkerConfig,
};
use stabcon_exp::store::Durability;
use stabcon_exp::telemetry::{check_telemetry, sink_path};
use stabcon_util::jsonl::{get, parse_flat, JsonScalar};

/// The two campaigns every test submits: different grids, names, seeds.
fn descriptors() -> [SpecDescriptor; 2] {
    [
        SpecDescriptor {
            preset: "smoke".into(),
            name: Some("qa".into()),
            trials: Some(6),
            seed: Some(0xA),
            ns: Some("64,96".into()),
        },
        SpecDescriptor {
            preset: "smoke".into(),
            name: Some("qb".into()),
            trials: Some(4),
            seed: Some(0xB),
            ns: Some("48".into()),
        },
    ]
}

/// Submit with a connect-retry budget — the daemon (or subprocess) may
/// still be binding its listener.
fn submit_with_retry(
    addr: &str,
    client: &str,
    desc: &SpecDescriptor,
) -> stabcon_exp::fabric::SubmitOutcome {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match submit_campaign(addr, client, desc) {
            Ok(outcome) => return outcome,
            Err(e) => {
                assert!(Instant::now() < deadline, "submit never succeeded: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// A daemon on a 4 s lease, so a held claim waits out the whole 1 s
/// retry window, with a halt flag so the test ends it without lingering.
fn held_claim_daemon(
    out: &Path,
    exit_when_idle: bool,
) -> (
    String,
    Arc<AtomicBool>,
    std::thread::JoinHandle<Result<QueueOutcome, String>>,
) {
    cleanup_daemon(out);
    let server = QueueServer::bind("127.0.0.1:0", out).expect("bind queue daemon");
    let addr = server.local_addr().expect("daemon addr").to_string();
    let halt = Arc::new(AtomicBool::new(false));
    let cfg = QueueServeConfig {
        lease: Duration::from_secs(4),
        exit_when_idle,
        shutdown: Some(Arc::clone(&halt)),
        ..QueueServeConfig::default()
    };
    let daemon = std::thread::spawn(move || server.run(&cfg));
    (addr, halt, daemon)
}

/// A claim sent to an empty queue is held, not answered `Wait`: the job a
/// second connection submits meanwhile comes back as the claim's lease.
#[test]
fn a_claim_on_an_empty_queue_is_answered_by_the_next_submission() {
    let out = tmp("held-lease");
    let (addr, halt, daemon) = held_claim_daemon(&out, false);
    let mut worker = Raw::handshake(&addr);
    worker.send(&Msg::Claim);
    let [da, _] = descriptors();
    let sub = submit_with_retry(&addr, "lab", &da);
    match worker.recv() {
        Msg::Lease2 { job, cell, .. } => {
            assert_eq!(job, sub.job, "the lease is the new job's");
            assert!(cell < sub.cells, "cell {cell} of {}", sub.cells);
        }
        other => panic!("the held claim must be answered by a lease, got {other:?}"),
    }
    drop(worker); // releases the lease, so the halt settles at once

    halt.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread").expect("outcome");
    assert!(outcome.halted);
    assert_eq!(outcome.running, 1, "the job stays parked for a --resume");
    cleanup_daemon(&out);
}

/// A claim held on an `--exit-when-idle` daemon hears `Drained` once the
/// queue goes idle: here the one job's cells are all leased, so the claim
/// is held, and then the job is cancelled.
#[test]
fn a_claim_held_on_an_idle_exit_when_idle_daemon_is_drained() {
    let out = tmp("held-drained");
    let (addr, halt, daemon) = held_claim_daemon(&out, true);
    let [_, db] = descriptors();
    let sub = submit_with_retry(&addr, "lab", &db);
    let mut holder = Raw::handshake(&addr);
    for _ in 0..sub.cells {
        holder.send(&Msg::Claim);
        assert!(matches!(holder.recv(), Msg::Lease2 { .. }), "a free cell");
    }
    let mut idle = Raw::handshake(&addr);
    idle.send(&Msg::Claim);
    assert_eq!(
        cancel_job(&addr, "lab", sub.job).expect("cancel"),
        "cancelled"
    );
    assert_eq!(idle.recv(), Msg::Drained, "the held claim hears Drained");
    drop((holder, idle));

    halt.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread").expect("outcome");
    assert_eq!((outcome.jobs, outcome.cancelled), (1, 1));
    cleanup_daemon(&out);
}

/// A halt answers a held claim `Drained`, and the daemon still exits.
#[test]
fn a_halt_answers_a_held_claim_drained() {
    let out = tmp("held-halt");
    let (addr, halt, daemon) = held_claim_daemon(&out, false);
    let mut idle = Raw::handshake(&addr);
    idle.send(&Msg::Claim);
    // Most likely parks the claim before the halt; a claim that comes
    // in after it hears Drained all the same.
    query_status(&addr, "probe", None).expect("status");
    halt.store(true, Ordering::SeqCst);
    assert_eq!(idle.recv(), Msg::Drained, "the held claim hears Drained");
    let outcome = daemon.join().expect("daemon thread").expect("outcome");
    assert!(outcome.halted);
    cleanup_daemon(&out);
}

/// Two campaigns over the wire, shared workers through the chaos proxy,
/// admission control and the live status plane exercised along the way —
/// and both job stores byte-identical to clean runs.
#[test]
fn two_campaigns_share_workers_and_stay_byte_identical() {
    let [da, db] = descriptors();
    let ref_a = reference_bytes(&da, "shared-ref-a");
    let ref_b = reference_bytes(&db, "shared-ref-b");

    let out = tmp("shared");
    cleanup_daemon(&out);

    let server = QueueServer::bind("127.0.0.1:0", &out).expect("bind queue daemon");
    let addr = server.local_addr().expect("daemon addr").to_string();
    let cfg = QueueServeConfig {
        lease: Duration::from_secs(2),
        durability: Durability::Cell,
        max_active: 2,
        quota: 2,
        exit_when_idle: true,
        ..QueueServeConfig::default()
    };
    let serve_thread = std::thread::spawn(move || server.run(&cfg));

    // Control plane, over the wire: two admissions for client 'lab'.
    let sub_a = submit_with_retry(&addr, "lab", &da);
    let sub_b = submit_with_retry(&addr, "lab", &db);
    assert_eq!((sub_a.job, sub_a.cells), (1, 4));
    assert_eq!((sub_b.job, sub_b.cells), (2, 2));

    // Admission control: 'lab' is at its quota of 2 live jobs.
    let third = SpecDescriptor {
        seed: Some(0xC),
        ..da.clone()
    };
    let err = submit_campaign(&addr, "lab", &third).expect_err("over quota");
    assert!(err.contains("over-quota"), "unexpected rejection: {err}");

    // Another client is admitted (queued behind max_active=2)... and then
    // cancelled, over the wire.
    let sub_c = submit_with_retry(&addr, "visitor", &third);
    assert_eq!(sub_c.job, 3);
    let status = query_status(&addr, "probe", None).expect("status");
    assert!(status.accepting);
    assert_eq!(status.jobs.len(), 3);
    assert_eq!(status.queued, 1, "job 3 waits behind max_active=2");
    assert_eq!(
        cancel_job(&addr, "visitor", 3).expect("cancel"),
        "cancelled"
    );
    let one = query_status(&addr, "probe", Some(3)).expect("status of job 3");
    assert_eq!(one.jobs.len(), 1);
    assert_eq!(one.jobs[0].state, "cancelled");

    // Data plane: two any-campaign workers, both through the chaos proxy,
    // with a deep retry budget — torn frames cost reconnects, never cells.
    let proxy =
        ChaosProxy::bind("127.0.0.1:0", &addr, ChaosSpec::mild(29)).expect("bind chaos proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr").to_string();
    let stop = proxy.stop_handle();
    let proxy_thread = std::thread::spawn(move || proxy.run());

    let drain = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = proxy_addr.clone();
            let drain = Arc::clone(&drain);
            std::thread::spawn(move || {
                run_worker_any(
                    &addr,
                    &WorkerConfig {
                        threads: 2,
                        name: format!("queue-worker-{i}"),
                        retries: 100,
                        backoff_ms: 20,
                        drain: Some(drain),
                        ..WorkerConfig::default()
                    },
                )
            })
        })
        .collect();

    let outcome = serve_thread
        .join()
        .expect("serve thread")
        .expect("queue outcome");
    drain.store(true, Ordering::SeqCst);
    for w in workers {
        let _ = w.join().expect("worker thread");
    }
    stop.store(true, Ordering::SeqCst);
    let _ = proxy_thread.join().expect("proxy thread");

    assert_eq!(outcome.jobs, 3);
    assert_eq!(outcome.done, 2);
    assert_eq!(outcome.cancelled, 1);
    assert!(!outcome.halted);
    assert_eq!(
        std::fs::read(job_store_path(&out, 1)).expect("job 1 store"),
        ref_a,
        "job 1 store differs from the clean single-host run"
    );
    assert_eq!(
        std::fs::read(job_store_path(&out, 2)).expect("job 2 store"),
        ref_b,
        "job 2 store differs from the clean single-host run"
    );
    cleanup_daemon(&out);
}

/// Two jobs through one daemon and two workers on a clean loopback: each
/// job's telemetry sink is schema-valid and profiles every cell of that
/// job — worker telemetry is filed under the job it was leased for.
#[test]
fn each_job_telemetry_sink_profiles_every_cell() {
    let [da, db] = descriptors();
    let ref_a = reference_bytes(&da, "sinks-ref-a");
    let ref_b = reference_bytes(&db, "sinks-ref-b");

    let out = tmp("sinks");
    cleanup_daemon(&out);
    let server = QueueServer::bind("127.0.0.1:0", &out).expect("bind queue daemon");
    let addr = server.local_addr().expect("daemon addr").to_string();
    let cfg = QueueServeConfig {
        max_active: 2,
        exit_when_idle: true,
        ..QueueServeConfig::default()
    };
    let serve_thread = std::thread::spawn(move || server.run(&cfg));
    let jobs = [
        submit_with_retry(&addr, "lab", &da),
        submit_with_retry(&addr, "lab", &db),
    ];
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                run_worker_any(
                    &addr,
                    &WorkerConfig {
                        name: format!("sink-worker-{i}"),
                        ..WorkerConfig::default()
                    },
                )
            })
        })
        .collect();
    let outcome = serve_thread
        .join()
        .expect("serve thread")
        .expect("queue outcome");
    for w in workers {
        w.join().expect("worker thread").expect("worker outcome");
    }
    assert_eq!(outcome.done, 2);

    for (sub, reference) in jobs.iter().zip([&ref_a, &ref_b]) {
        let store = job_store_path(&out, sub.job);
        assert_eq!(&std::fs::read(&store).expect("job store"), reference);
        let sink = sink_path(&store);
        let check =
            check_telemetry(&sink).unwrap_or_else(|e| panic!("job {} sink invalid: {e}", sub.job));
        assert!(check.cell_profiles >= sub.cells);
        let profiled: std::collections::BTreeSet<u64> = std::fs::read_to_string(&sink)
            .expect("read sink")
            .lines()
            .filter_map(|l| parse_flat(l).ok())
            .filter(|o| get(o, "record").and_then(JsonScalar::as_str) == Some("cell_profile"))
            .filter_map(|o| get(&o, "cell").and_then(JsonScalar::as_u64))
            .collect();
        assert_eq!(
            profiled,
            (0..sub.cells).collect(),
            "job {}: a cell_profile for every cell",
            sub.job
        );
    }
    cleanup_daemon(&out);
}

/// The crash-recovery acceptance test: a real queue-daemon subprocess is
/// `kill -9`'d mid-run while a worker talks to it through the chaos
/// proxy; a `--resume` restart on the same port replays the journal and
/// both campaigns still converge to the exact reference bytes.
#[test]
fn kill_dash_nine_queue_daemon_replays_journal_to_identical_stores() {
    let [da, db] = descriptors();
    let ref_a = reference_bytes(&da, "kill9q-ref-a");
    let ref_b = reference_bytes(&db, "kill9q-ref-b");

    let out = tmp("kill9q");
    cleanup_daemon(&out);

    // A free port the restart can re-bind (bind :0, read it back, release).
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe port")
        .local_addr()
        .expect("probe addr")
        .port();
    let addr = format!("127.0.0.1:{port}");

    // Phase 1: a real `stabcon serve` subprocess, per-cell fsync on both
    // the stores and the jobs journal.
    let mut child = Command::new(env!("CARGO_BIN_EXE_stabcon"))
        .args([
            "serve",
            "--out",
            out.to_str().expect("utf8 path"),
            "--listen",
            &addr,
            "--lease-secs",
            "2",
            "--durability",
            "cell",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn queue daemon subprocess");

    let sub_a = submit_with_retry(&addr, "lab", &da);
    let sub_b = submit_with_retry(&addr, "lab", &db);
    assert_eq!((sub_a.job, sub_b.job), (1, 2));

    // One any-campaign worker through the chaos proxy; it outlives the
    // daemon crash on its reconnect budget.
    let proxy =
        ChaosProxy::bind("127.0.0.1:0", &addr, ChaosSpec::mild(41)).expect("bind chaos proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr").to_string();
    let stop = proxy.stop_handle();
    let proxy_thread = std::thread::spawn(move || proxy.run());
    let drain = Arc::new(AtomicBool::new(false));
    let worker = {
        let addr = proxy_addr.clone();
        let drain = Arc::clone(&drain);
        std::thread::spawn(move || {
            run_worker_any(
                &addr,
                &WorkerConfig {
                    threads: 2,
                    name: "kill9q-worker".into(),
                    retries: 200,
                    backoff_ms: 50,
                    drain: Some(drain),
                    ..WorkerConfig::default()
                },
            )
        })
    };

    // Let the run get underway — at least one cell durably in job 1's
    // store — then kill -9: no flush, no goodbye, no journal finalizer.
    wait_for_lines(&job_store_path(&out, 1), 2, Duration::from_secs(60));
    child.kill().expect("kill -9 the daemon");
    let _ = child.wait();

    // Phase 2: restart on the same port with --resume (in-process, so the
    // test can join it): the journal replays, interrupted jobs re-queue
    // with their partial stores, and the worker's reconnect loop finds
    // the new daemon through the same proxy.
    let server = QueueServer::bind(&addr, &out).expect("rebind queue daemon");
    let cfg = QueueServeConfig {
        lease: Duration::from_secs(2),
        durability: Durability::Cell,
        resume: true,
        exit_when_idle: true,
        ..QueueServeConfig::default()
    };
    let serve_thread = std::thread::spawn(move || server.run(&cfg));
    let outcome = serve_thread
        .join()
        .expect("serve thread")
        .expect("resumed queue outcome");
    drain.store(true, Ordering::SeqCst);
    let _ = worker.join().expect("worker thread");
    stop.store(true, Ordering::SeqCst);
    let _ = proxy_thread.join().expect("proxy thread");

    assert_eq!(outcome.jobs, 2, "journal replay restores both admissions");
    assert_eq!(outcome.done, 2);
    assert_eq!(
        std::fs::read(job_store_path(&out, 1)).expect("job 1 store"),
        ref_a,
        "job 1: kill -9 + journal replay must still converge to the reference bytes"
    );
    assert_eq!(
        std::fs::read(job_store_path(&out, 2)).expect("job 2 store"),
        ref_b,
        "job 2: kill -9 + journal replay must still converge to the reference bytes"
    );
    cleanup_daemon(&out);
}
