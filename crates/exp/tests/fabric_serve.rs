//! Integration tests for the `stabcon serve` daemon's lease loop: a worker
//! that claims a cell and dies (disconnect) and one that claims a cell and
//! hangs (lease expiry) both have their cells re-claimed and re-run by a
//! healthy worker, a slow worker keeps its lease by heartbeating, and
//! duplicate results are deduplicated — and every assembled job store is
//! byte-identical to the single-host run, because re-runs from
//! deterministic seeds are exact.

mod common;

use std::path::Path;
use std::thread::JoinHandle;
use std::time::Duration;

use common::{cleanup_daemon, reference_bytes, reference_line, tmp, Raw};
use stabcon_exp::fabric::{
    job_store_path, run_worker_any, submit_campaign, Msg, QueueOutcome, QueueServeConfig,
    QueueServer, SpecDescriptor, WorkerConfig, FABRIC_SCHEMA,
};
use stabcon_exp::telemetry::{check_telemetry, sink_path};

/// 4 quick cells.
fn descriptor() -> SpecDescriptor {
    SpecDescriptor {
        preset: "smoke".into(),
        name: Some("serve-it".into()),
        trials: Some(4),
        seed: Some(0x5E4E),
        ns: Some("64,96".into()),
    }
}

/// Start a daemon that exits once its one job is done, and submit
/// [`descriptor`] to it — what `stabcon serve --preset …` does.
fn one_job_daemon(
    out: &Path,
    lease: Duration,
) -> (String, JoinHandle<Result<QueueOutcome, String>>) {
    cleanup_daemon(out);
    let server = QueueServer::bind("127.0.0.1:0", out).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let cfg = QueueServeConfig {
        lease,
        exit_when_idle: true,
        ..QueueServeConfig::default()
    };
    let daemon = std::thread::spawn(move || server.run(&cfg));
    let submitted = submit_campaign(&addr, "serve", &descriptor()).expect("startup submission");
    assert_eq!((submitted.job, submitted.cells), (1, 4));
    (addr, daemon)
}

#[test]
fn old_fabric_hellos_are_rejected_naming_the_current_schema() {
    let out = tmp("old-hello");
    cleanup_daemon(&out);
    let server = QueueServer::bind("127.0.0.1:0", &out).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let halt = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let cfg = QueueServeConfig {
        shutdown: Some(std::sync::Arc::clone(&halt)),
        ..QueueServeConfig::default()
    };
    let daemon = std::thread::spawn(move || server.run(&cfg));

    for old in [
        "stabcon-fabric/1",
        "stabcon-fabric/2",
        "stabcon-fabric/3",
        "stabcon-fabric/4",
        "stabcon-fabric/5",
        "stabcon-fabric/6",
        "stabcon-fabric/7",
    ] {
        let (_, reply) = Raw::hello(&addr, old);
        match reply {
            Msg::Reject { reason } => {
                assert!(reason.contains(FABRIC_SCHEMA), "{reason}");
                assert!(reason.contains(old), "{reason}");
            }
            other => panic!("a {old} hello must be rejected, got {other:?}"),
        }
    }

    halt.store(true, std::sync::atomic::Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread").expect("outcome");
    assert_eq!(outcome.workers_seen, 0, "a rejected hello is not a peer");
    cleanup_daemon(&out);
}

#[test]
fn serve_survives_killed_and_hung_workers() {
    let reference = reference_bytes(&descriptor(), "reference");
    let out = tmp("served");
    // Long enough that the healthy worker's lease/3 heartbeats keep ≥ 1 s
    // of slack on a stalled machine; the hung worker still has to wait it
    // out.
    let (addr, daemon) = one_job_daemon(&out, Duration::from_millis(1500));

    // A submission whose fingerprint disagrees with its descriptor is
    // rejected before it reaches the queue.
    let wrong_fingerprint = {
        let spec = SpecDescriptor {
            seed: Some(0xBAD),
            ..descriptor()
        }
        .build()
        .expect("builds");
        format!("{:016x}", spec.fingerprint())
    };
    let mut bad = Raw::handshake(&addr);
    bad.send(&Msg::Submit {
        client: "rogue".into(),
        spec: descriptor(),
        fingerprint: wrong_fingerprint,
    });
    match bad.recv() {
        Msg::Rejected { code, reason } => {
            assert_eq!(code, "bad-fingerprint");
            assert!(reason.contains("fingerprint"), "{reason}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    drop(bad);
    // A `/1` peer is turned away at the handshake and never counted.
    let (_, reply) = Raw::hello(&addr, "stabcon-fabric/1");
    assert!(matches!(reply, Msg::Reject { .. }), "{reply:?}");

    // Killed worker: claims a cell, then the host dies (connection drops).
    let (_, killed_cell) = {
        let mut raw = Raw::handshake(&addr);
        raw.claim_one()
        // raw dropped here — the daemon releases the lease immediately.
    };

    // Hung worker: claims a cell and goes silent without disconnecting;
    // only the lease expiry can reclaim this one.
    let mut hung = Raw::handshake(&addr);
    let (_, hung_cell) = hung.claim_one();

    // A healthy worker drains the job, re-running both lost cells.
    let outcome = run_worker_any(
        &addr,
        &WorkerConfig {
            threads: 2,
            name: "healthy".into(),
            ..WorkerConfig::default()
        },
    )
    .expect("healthy worker");
    assert_eq!(
        outcome.cells_run, 4,
        "the healthy worker re-runs the killed ({killed_cell}) and hung \
         ({hung_cell}) workers' cells"
    );

    let served = daemon
        .join()
        .expect("daemon thread")
        .expect("serve outcome");
    drop(hung);
    assert_eq!((served.jobs, served.done), (1, 1));
    assert_eq!(served.cells_ingested, 4);
    assert_eq!(
        served.workers_seen, 5,
        "submitter, rejected submitter, two rogues, healthy worker — not the /1 peer"
    );
    assert!(
        served.leases_reclaimed >= 2,
        "both lost leases reclaimed (got {})",
        served.leases_reclaimed
    );

    // The assembled store is byte-identical to the single-host run.
    let store = job_store_path(&out, 1);
    assert_eq!(
        std::fs::read(&store).expect("read served store"),
        reference,
        "serve-assembled store differs from the single-host store"
    );

    // The job's telemetry sink satisfies the telemetry schema, and every
    // line the healthy worker shipped landed in it.
    let check = check_telemetry(&sink_path(&store)).expect("valid job telemetry sink");
    assert!(check.cell_profiles >= 4, "one profile per ingested cell");
    assert_eq!(
        served.telemetry_dropped, 0,
        "a clean worker ships records only"
    );

    cleanup_daemon(&out);
}

#[test]
fn heartbeats_keep_a_slow_but_alive_worker_leased() {
    // A worker that takes 2× the lease to finish a cell keeps its lease by
    // heartbeating: the deadline sweep must distinguish slow from dead.
    let reference = reference_bytes(&descriptor(), "slow-reference");
    let out = tmp("slow-served");
    let lease = Duration::from_millis(1500);
    let renew_every = Duration::from_millis(100);
    let (addr, daemon) = one_job_daemon(&out, lease);

    // The slow worker: claims a cell, then "computes" for 2 lease
    // durations, renewing every 100 ms (≥ 1.4 s of slack per renewal) —
    // and finally ships the exact line an honest run produces.
    let mut slow = Raw::handshake(&addr);
    let (job, cell) = slow.claim_one();
    let hold = 2 * lease;
    let mut held = Duration::ZERO;
    while held < hold {
        std::thread::sleep(renew_every);
        held += renew_every;
        slow.send(&Msg::Renew2 { job, cell });
    }
    slow.send(&Msg::Result2 {
        job,
        cell,
        line: reference_line(&reference, cell),
        elapsed_secs: held.as_secs_f64(),
        trials: 4,
    });

    // A healthy worker drains the rest. If the sweep had reclaimed the
    // slow worker's cell, the healthy worker would have run 4 cells.
    let outcome = run_worker_any(&addr, &WorkerConfig::default()).expect("healthy worker");
    assert_eq!(outcome.cells_run, 3, "the slow worker's cell stayed leased");

    let served = daemon
        .join()
        .expect("daemon thread")
        .expect("serve outcome");
    drop(slow);
    assert_eq!(served.leases_reclaimed, 0, "nobody died, nobody expired");
    assert_eq!(
        served.telemetry_dropped, 0,
        "a clean worker ships records only"
    );
    assert!(
        served.leases_renewed >= 2,
        "heartbeats extended the lease (got {})",
        served.leases_renewed
    );
    assert_eq!(served.cells_ingested, 4);
    assert_eq!(
        std::fs::read(job_store_path(&out, 1)).expect("read served store"),
        reference,
        "slow-worker store differs from the single-host store"
    );

    cleanup_daemon(&out);
}

#[test]
fn duplicate_results_across_reconnects_are_deduped_exactly() {
    // A worker that ships the same completed cell three times — the
    // reconnect-resubmission pattern, amplified — lands exactly one store
    // line, and the dedupe counter reports the other two.
    let reference = reference_bytes(&descriptor(), "dup-reference");
    let out = tmp("dup-served");
    let (addr, daemon) = one_job_daemon(&out, Duration::from_millis(500));

    let mut raw = Raw::handshake(&addr);
    let (job, cell) = raw.claim_one();
    let result = Msg::Result2 {
        job,
        cell,
        line: reference_line(&reference, cell),
        elapsed_secs: 0.1,
        trials: 4,
    };
    for _ in 0..3 {
        raw.send(&result);
    }
    // A claim round-trip proves (by in-order processing on this
    // connection) all three copies were ingested before we assert.
    raw.send(&Msg::Claim);
    let _ = raw.recv();
    drop(raw); // releases whatever that claim leased

    let outcome = run_worker_any(&addr, &WorkerConfig::default()).expect("healthy worker");
    assert_eq!(outcome.cells_run, 3);

    let served = daemon
        .join()
        .expect("daemon thread")
        .expect("serve outcome");
    assert_eq!(served.results_deduped, 2, "three copies, one ingest");
    assert_eq!(served.cells_ingested, 4);
    assert_eq!(
        std::fs::read(job_store_path(&out, 1)).expect("read served store"),
        reference,
        "duplicated results corrupted the store"
    );

    cleanup_daemon(&out);
}
