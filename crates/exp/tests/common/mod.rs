//! Helpers the fabric integration tests share: scratch paths and their
//! cleanup, single-host reference stores, a raw frame-by-frame peer, and
//! polling a store for lines.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stabcon_exp::campaign::{run_campaign, RunConfig};
use stabcon_exp::fabric::{
    job_store_path, jobs_journal_path, write_frame, Msg, SpecDescriptor, FABRIC_SCHEMA,
};
use stabcon_exp::telemetry::{sink_path, timings_path};
use stabcon_util::jsonl::{get, parse_flat, JsonScalar};

/// A scratch path for `tag`, unique to this test process.
pub fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stabcon-fabric-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{}-{tag}.jsonl", std::process::id()))
}

/// Remove a single-host store and its timings sidecar.
pub fn cleanup(store: &Path) {
    std::fs::remove_file(store).ok();
    std::fs::remove_file(timings_path(store)).ok();
}

/// Remove a queue daemon's whole on-disk footprint: journal plus the
/// stores of jobs 1–4, their timings sidecars and telemetry sinks.
pub fn cleanup_daemon(out: &Path) {
    std::fs::remove_file(jobs_journal_path(out)).ok();
    for job in 1..=4 {
        let store = job_store_path(out, job);
        std::fs::remove_file(sink_path(&store)).ok();
        cleanup(&store);
    }
}

/// Clean single-host reference bytes for `desc`.
pub fn reference_bytes(desc: &SpecDescriptor, tag: &str) -> Vec<u8> {
    let path = tmp(tag);
    cleanup(&path);
    let spec = desc.build().expect("descriptor builds");
    run_campaign(&spec, &path, &RunConfig::default()).expect("single-host run");
    let bytes = std::fs::read(&path).expect("read reference");
    cleanup(&path);
    bytes
}

/// The canonical store cell line for `cell`, looked up in a finished
/// reference store by id — what an honest worker would ship.
pub fn reference_line(reference: &[u8], cell: u64) -> String {
    String::from_utf8_lossy(reference)
        .lines()
        .skip(1) // header
        .find(|l| {
            parse_flat(l)
                .ok()
                .and_then(|o| get(&o, "cell").and_then(JsonScalar::as_u64))
                == Some(cell)
        })
        .unwrap_or_else(|| panic!("reference store has no cell {cell}"))
        .to_string()
}

/// Poll until `path` has at least `lines` newline-terminated lines (or
/// panic after `timeout`).
pub fn wait_for_lines(path: &Path, lines: usize, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let have = std::fs::read(path)
            .map(|b| b.iter().filter(|&&c| c == b'\n').count())
            .unwrap_or(0);
        if have >= lines {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {lines} lines in {} (have {have})",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A raw `stabcon-fabric` peer that speaks frame by frame.
pub struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    /// Connect (retrying for up to 30 s while a daemon subprocess binds)
    /// and send a Hello with `schema`; return the connection and the
    /// daemon's reply.
    pub fn hello(addr: &str, schema: &str) -> (Self, Msg) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "daemon never listened: {e}");
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        };
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut raw = Self { stream, reader };
        raw.send(&Msg::Hello {
            schema: schema.into(),
            worker: "raw".into(),
        });
        let reply = raw.recv();
        (raw, reply)
    }

    /// Connect and complete the handshake.
    pub fn handshake(addr: &str) -> Self {
        match Self::hello(addr, FABRIC_SCHEMA) {
            (raw, Msg::Welcome { .. }) => raw,
            (_, other) => panic!("handshake failed: {other:?}"),
        }
    }

    pub fn send(&mut self, msg: &Msg) {
        write_frame(&mut self.stream, msg).expect("send frame");
    }

    pub fn recv(&mut self) -> Msg {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        Msg::decode(line.trim_end()).expect("decode reply")
    }

    /// Claim one cell and return its `(job, cell)` (the raw peer never
    /// runs it).
    pub fn claim_one(&mut self) -> (u64, u64) {
        self.send(&Msg::Claim);
        match self.recv() {
            Msg::Lease2 {
                job,
                cell,
                lease_ms,
                ..
            } => {
                assert!(lease_ms > 0);
                (job, cell)
            }
            other => panic!("expected a lease, got {other:?}"),
        }
    }
}
