//! Chaos integration for the fabric: a one-job serve daemon and two
//! workers talk through the deterministic chaos proxy — delayed flushes,
//! duplicated frames, torn writes, mid-frame disconnects — and the
//! assembled store is still byte-identical to the clean single-host run,
//! at every seed.
//!
//! Also here: the crash-safety acceptance test. A `stabcon serve --preset`
//! subprocess is `kill -9`'d mid-campaign, its job store's tail is
//! truncated mid-record (the torn write a crash can leave), and a restarted
//! daemon with `--resume` replays the journal, repairs the tail, leases
//! only the missing cells, and completes the campaign to the exact
//! reference bytes.

mod common;

use std::io::Write;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{cleanup_daemon, reference_bytes, reference_line, tmp, wait_for_lines, Raw};
use stabcon_exp::fabric::{
    job_store_path, run_worker_any, submit_campaign, ChaosProxy, ChaosSpec, Msg, QueueServeConfig,
    QueueServer, SpecDescriptor, WorkerConfig,
};
use stabcon_exp::store::Durability;
use stabcon_exp::telemetry::{check_telemetry, sink_path};

/// 4 quick cells.
fn descriptor() -> SpecDescriptor {
    SpecDescriptor {
        preset: "smoke".into(),
        name: Some("chaos-it".into()),
        trials: Some(4),
        seed: Some(0xC4A0),
        ns: Some("64,96".into()),
    }
}

/// Run one full campaign — a one-job daemon + 2 retrying workers — through
/// a chaos proxy seeded with `seed`, and return the assembled store bytes.
fn campaign_through_chaos(desc: &SpecDescriptor, seed: u64, tag: &str) -> Vec<u8> {
    let out = tmp(tag);
    cleanup_daemon(&out);

    let server = QueueServer::bind("127.0.0.1:0", &out).expect("bind serve");
    let serve_addr = server.local_addr().expect("serve addr").to_string();
    let serve_cfg = QueueServeConfig {
        // Generous against injected delays; heartbeats carry slow cells.
        lease: Duration::from_secs(2),
        durability: Durability::Cell,
        exit_when_idle: true,
        ..QueueServeConfig::default()
    };
    let serve_thread = std::thread::spawn(move || server.run(&serve_cfg));
    // The startup submission goes straight to the daemon, as the CLI's does.
    submit_campaign(&serve_addr, "serve", desc).expect("startup submission");

    let proxy = ChaosProxy::bind("127.0.0.1:0", &serve_addr, ChaosSpec::mild(seed))
        .expect("bind chaos proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr").to_string();
    let stop = proxy.stop_handle();
    let proxy_thread = std::thread::spawn(move || proxy.run());

    // Two workers, both through the proxy, both with a deep retry budget —
    // every mid-frame cut costs a reconnect, never the campaign. The drain
    // flag stops them promptly once the daemon has everything (a worker
    // mid-reconnect when the queue drains would otherwise spend its whole
    // retry budget against a gone daemon).
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
                        name: format!("chaos-worker-{i}"),
                        retries: 100,
                        backoff_ms: 20,
                        drain: Some(drain),
                        ..WorkerConfig::default()
                    },
                )
            })
        })
        .collect();

    let served = serve_thread
        .join()
        .expect("serve thread")
        .expect("serve outcome");
    assert_eq!((served.jobs, served.done), (1, 1));
    assert_eq!(served.cells_ingested, 4);

    // Workers may still be mid-retry against a gone daemon; their errors
    // are expected — the store is the contract.
    drain.store(true, Ordering::SeqCst);
    for w in workers {
        let _ = w.join().expect("worker thread");
    }
    stop.store(true, Ordering::SeqCst);
    let _ = proxy_thread.join().expect("proxy thread");

    let bytes = std::fs::read(job_store_path(&out, 1)).expect("read chaos store");
    cleanup_daemon(&out);
    bytes
}

#[test]
fn chaos_campaign_store_is_byte_identical_at_any_seed() {
    let desc = descriptor();
    let reference = reference_bytes(&desc, "chaos-reference");
    for seed in [11u64, 23, 37] {
        let bytes = campaign_through_chaos(&desc, seed, &format!("chaos-{seed}"));
        assert_eq!(
            bytes, reference,
            "chaos seed {seed}: store differs from the clean single-host run"
        );
    }
}

/// Run a `stabcon` subprocess to completion, killing it (and failing the
/// test) if it outlives `timeout`.
fn run_cli(args: &[&str], timeout: Duration) -> ExitStatus {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stabcon"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stabcon");
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("poll stabcon") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("stabcon {args:?} still running after {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A scripted worker: dial `addr` (retrying while the subprocess binds),
/// then claim `cells` cells and ship each one's reference line.
fn ship_reference_cells(addr: &str, reference: &[u8], cells: usize) {
    let mut raw = Raw::handshake(addr);
    let mut shipped = 0;
    while shipped < cells {
        raw.send(&Msg::Claim);
        match raw.recv() {
            // The startup submission may not have landed yet.
            Msg::Wait { retry_ms } => std::thread::sleep(Duration::from_millis(retry_ms)),
            Msg::Lease2 { job, cell, .. } => {
                raw.send(&Msg::Result2 {
                    job,
                    cell,
                    line: reference_line(reference, cell),
                    elapsed_secs: 0.01,
                    trials: 4,
                });
                shipped += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

#[test]
fn kill_dash_nine_server_resumes_from_a_truncated_tail() {
    // The descriptor's overrides are spelled as CLI flags below, so the
    // subprocess builds the same grid.
    let desc = SpecDescriptor {
        preset: "smoke".into(),
        name: Some("kill9".into()),
        trials: Some(4),
        seed: Some(0xFEED),
        ns: Some("64,96".into()),
    };
    let reference = reference_bytes(&desc, "kill9-reference");
    let total_cells = (String::from_utf8_lossy(&reference).lines().count() - 1) as u64;

    let out = tmp("kill9");
    cleanup_daemon(&out);
    let store = job_store_path(&out, 1);

    // A free port for the subprocess (bind :0, read it back, release it).
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe port")
        .local_addr()
        .expect("probe addr")
        .port();
    let addr = format!("127.0.0.1:{port}");

    // Phase 1: a real `stabcon serve --preset` subprocess with per-cell
    // fsync — a one-job queue daemon that submits its campaign itself.
    let spec_flags = [
        "--preset", "smoke", "--trials", "4", "--seed", "0xFEED", "--ns", "64,96", "--name",
        "kill9",
    ];
    let out_arg = out.to_str().expect("utf8 path");
    let mut serve_args = vec![
        "serve",
        "--out",
        out_arg,
        "--listen",
        &addr,
        "--lease-secs",
        "2",
        "--durability",
        "cell",
    ];
    serve_args.extend(spec_flags);
    let mut child = Command::new(env!("CARGO_BIN_EXE_stabcon"))
        .args(&serve_args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve subprocess");

    // A scripted worker lands exactly two cells, so the kill always falls
    // mid-campaign.
    ship_reference_cells(&addr, &reference, 2);
    wait_for_lines(&store, 3, Duration::from_secs(60)); // header + 2 cells

    // kill -9: no atexit, no flush, no goodbye, no journal finalizer.
    child.kill().expect("kill -9 the daemon");
    let _ = child.wait();

    // Simulate the torn tails a crash mid-append can leave: chop the last
    // store record off mid-line (every byte offset of the final record is
    // unit-tested in store.rs; here one representative cut proves the
    // end-to-end path), and leave half a record on the telemetry sink.
    let bytes = std::fs::read(&store).expect("read crashed store");
    assert!(bytes.len() > 5);
    std::fs::write(&store, &bytes[..bytes.len() - 5]).expect("tear the tail");
    let surviving = (bytes[..bytes.len() - 5]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        - 1) as u64;
    std::fs::OpenOptions::new()
        .append(true)
        .open(sink_path(&store))
        .expect("open job telemetry sink")
        .write_all(b"{\"record\": \"cell_pro")
        .expect("tear the sink");

    // Phase 2: restart with --resume (in-process this time): the journal
    // replays the running job, the torn tail is repaired on open, only the
    // missing cells are leased, and the campaign completes.
    let server = QueueServer::bind("127.0.0.1:0", &out).expect("rebind");
    let addr2 = server.local_addr().expect("addr").to_string();
    let serve_cfg = QueueServeConfig {
        lease: Duration::from_secs(2),
        resume: true,
        durability: Durability::Cell,
        exit_when_idle: true,
        ..QueueServeConfig::default()
    };
    let serve_thread = std::thread::spawn(move || server.run(&serve_cfg));
    let outcome = run_worker_any(
        &addr2,
        &WorkerConfig {
            threads: 2,
            name: "kill9-finisher".into(),
            ..WorkerConfig::default()
        },
    )
    .expect("finishing worker");
    let served = serve_thread
        .join()
        .expect("serve thread")
        .expect("resume outcome");

    assert_eq!(
        (served.jobs, served.done),
        (1, 1),
        "the journal restores the job"
    );
    assert!(
        served.cells_ingested < total_cells,
        "resume skips the surviving records ({} of {total_cells} ingested)",
        served.cells_ingested
    );
    assert_eq!(
        served.cells_ingested,
        total_cells - surviving,
        "the torn cell and the never-run cells are ingested, nothing else"
    );
    assert_eq!(
        outcome.cells_run, served.cells_ingested,
        "only the missing cells are leased"
    );
    assert_eq!(
        std::fs::read(&store).expect("read resumed store"),
        reference,
        "kill -9 + torn tail + resume must still converge to the reference bytes"
    );
    let check = check_telemetry(&sink_path(&store)).expect("resumed sink is schema-valid");
    assert_eq!(check.cell_profiles, outcome.cells_run);

    // A `serve --preset … --resume` whose journal already holds the job
    // submits nothing: the replayed job is done, so the daemon exits idle
    // without a second job.
    let mut resume_args = serve_args.clone();
    resume_args[4] = "127.0.0.1:0";
    resume_args.push("--resume");
    assert!(run_cli(&resume_args, Duration::from_secs(30)).success());
    assert!(
        !job_store_path(&out, 2).exists(),
        "no second job was submitted"
    );
    // Different spec flags against the same journal are refused.
    let mut other_args = resume_args.clone();
    let seed_at = other_args
        .iter()
        .position(|&a| a == "0xFEED")
        .expect("seed flag");
    other_args[seed_at] = "0xBAD";
    assert!(!run_cli(&other_args, Duration::from_secs(30)).success());
    assert_eq!(
        std::fs::read(&store).expect("read store"),
        reference,
        "re-running serve against a finished journal leaves the store alone"
    );

    cleanup_daemon(&out);
}
