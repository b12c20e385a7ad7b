//! One-shot control-plane clients for a `stabcon serve` daemon:
//! submit a campaign, query the live status plane, cancel a job. Each call
//! dials, speaks `stabcon-fabric/8`, and hangs up — no retry loop, because
//! a control action either happened or it didn't, and the caller (the CLI)
//! should report which.
//!
//! The determinism contract rides along on submission: the client builds
//! the campaign from the same [`SpecDescriptor`] it ships and sends its
//! grid fingerprint; the daemon rebuilds and compares before admitting, so
//! a version skew between client and daemon binaries is caught at submit
//! time — not after a store full of mismatched bytes.

use std::net::TcpStream;

use super::protocol::{dial, read_frame, write_frame, FrameLines, Msg, PeerError, SpecDescriptor};

/// One control connection, from handshake to drop.
struct Control {
    stream: TcpStream,
    lines: FrameLines,
}

impl Control {
    fn connect(addr: &str, client: &str) -> Result<Self, String> {
        let (stream, lines) = dial(addr, client).map_err(reason)?;
        Ok(Self { stream, lines })
    }

    fn send(&mut self, msg: &Msg) -> Result<(), String> {
        write_frame(&mut self.stream, msg).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Msg, String> {
        read_frame(&mut self.lines).map_err(reason)
    }
}

/// A control action has no retry loop: lost or refused, it failed.
fn reason(e: PeerError) -> String {
    match e {
        PeerError::Lost(r) | PeerError::Fatal(r) => r,
    }
}

/// What the daemon admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Queue-assigned job id (stable across daemon restarts — quote it to
    /// `stabcon status --job` / `stabcon cancel --job`).
    pub job: u64,
    /// Cells in the expanded grid.
    pub cells: u64,
    /// Daemon-side store path for the job.
    pub store: String,
}

/// One job's row in the status plane.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInfo {
    /// Queue-assigned job id.
    pub job: u64,
    /// Campaign name.
    pub name: String,
    /// Lifecycle state label (`queued` … `failed`).
    pub state: String,
    /// Submitting client.
    pub client: String,
    /// Total cells in the grid.
    pub cells: u64,
    /// Cells in the daemon's store (written prefix + parked).
    pub written: u64,
    /// Trials ingested so far.
    pub trials: u64,
    /// Seconds running (frozen at the terminal transition).
    pub elapsed_secs: f64,
}

impl JobInfo {
    /// Ingested trials per second of runtime (0 before the job starts).
    pub fn trials_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.trials as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// The daemon's queue summary plus the requested job rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueStatus {
    /// Whether new submissions are admitted (false while draining).
    pub accepting: bool,
    /// Jobs waiting for an activation slot.
    pub queued: u64,
    /// Jobs running.
    pub running: u64,
    /// Jobs fully written.
    pub done: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Per-job rows (all jobs, or the one requested).
    pub jobs: Vec<JobInfo>,
}

/// Submit `desc` to the daemon at `addr` as `client`. Builds the campaign
/// locally first — a descriptor that doesn't build never goes on the wire —
/// and sends the local grid fingerprint for the daemon to verify.
pub fn submit_campaign(
    addr: &str,
    client: &str,
    desc: &SpecDescriptor,
) -> Result<SubmitOutcome, String> {
    let spec = desc.build()?;
    let fingerprint = format!("{:016x}", spec.fingerprint());
    let mut control = Control::connect(addr, client)?;
    control.send(&Msg::Submit {
        client: client.into(),
        spec: desc.clone(),
        fingerprint,
    })?;
    let outcome = match control.recv()? {
        Msg::Accepted { job, cells, store } => Ok(SubmitOutcome { job, cells, store }),
        Msg::Rejected { code, reason } => Err(format!("submission rejected ({code}): {reason}")),
        other => Err(format!("unexpected reply {other:?}")),
    };
    let _ = control.send(&Msg::Goodbye);
    outcome
}

/// Query the daemon's status plane: the queue summary plus every job's row
/// (or just `job`'s, when set).
pub fn query_status(addr: &str, client: &str, job: Option<u64>) -> Result<QueueStatus, String> {
    let mut control = Control::connect(addr, client)?;
    control.send(&Msg::Status { job })?;
    let mut status = match control.recv()? {
        Msg::StatusReport {
            accepting,
            queued,
            running,
            done,
            cancelled,
            failed,
            jobs,
        } => {
            let mut status = QueueStatus {
                accepting,
                queued,
                running,
                done,
                cancelled,
                failed,
                jobs: Vec::with_capacity(jobs as usize),
            };
            for _ in 0..jobs {
                match control.recv()? {
                    Msg::JobStatus {
                        job,
                        name,
                        state,
                        client,
                        cells,
                        written,
                        trials,
                        elapsed_secs,
                    } => status.jobs.push(JobInfo {
                        job,
                        name,
                        state,
                        client,
                        cells,
                        written,
                        trials,
                        elapsed_secs,
                    }),
                    other => return Err(format!("unexpected status row {other:?}")),
                }
            }
            Ok(status)
        }
        Msg::Rejected { code, reason } => Err(format!("status rejected ({code}): {reason}")),
        other => Err(format!("unexpected reply {other:?}")),
    }?;
    let _ = control.send(&Msg::Goodbye);
    status.jobs.sort_by_key(|j| j.job);
    Ok(status)
}

/// Cancel `job` on the daemon at `addr`. Returns the resulting lifecycle
/// state label (always `cancelled` today).
pub fn cancel_job(addr: &str, client: &str, job: u64) -> Result<String, String> {
    let mut control = Control::connect(addr, client)?;
    control.send(&Msg::Cancel { job })?;
    let outcome = match control.recv()? {
        Msg::Cancelled { job: j, state } if j == job => Ok(state),
        Msg::Rejected { code, reason } => Err(format!("cancel rejected ({code}): {reason}")),
        other => Err(format!("unexpected reply {other:?}")),
    };
    let _ = control.send(&Msg::Goodbye);
    outcome
}
