//! The `stabcon work` side of the fabric: connect to a `stabcon serve`
//! daemon, claim cells from whatever campaigns it runs, run them on the
//! local thread pool, and stream results (and telemetry) back.
//!
//! Each [`Msg::Lease2`] names a job and carries its spec descriptor and
//! grid fingerprint. The worker expands the campaign **locally** (once per
//! job) and verifies the fingerprint before running a single trial — the
//! daemon never ships cell specs over the wire, only cell *ids*, so every
//! record the worker produces is the exact line a single-host run would
//! have written.
//!
//! ## WAN hardening
//!
//! The worker is built to survive a hostile network between it and the
//! daemon:
//!
//! * **Reconnect with backoff.** Any session-level failure — refused
//!   connect, mid-frame disconnect, torn or garbled reply — tears the
//!   session down and dials again, with capped exponential backoff and
//!   deterministic jitter (a [`hash3`] draw keyed by the worker name, so
//!   two workers restarting together don't thundering-herd the daemon).
//!   The consecutive-failure budget is [`WorkerConfig::retries`]; any
//!   successfully decoded daemon reply resets it.
//! * **Idempotent resubmission.** A completed cell's [`Msg::Result2`] is
//!   held until the daemon provably consumed it (a reply to a *later*
//!   frame on the same connection — TCP ordering — proves the bytes
//!   arrived). If the connection dies first, the next session resends the
//!   frame; the daemon dedupes, so the store is byte-identical either way.
//! * **Lease heartbeats.** While a cell runs, a background thread sends
//!   fire-and-forget [`Msg::Renew2`] frames every third of the lease, so a
//!   slow cell on a live worker never gets re-leased out from under it.
//! * **Graceful drain.** Once [`WorkerConfig::drain`] is set (the `stabcon
//!   work` binary sets it on SIGTERM), the worker finishes the cell in
//!   flight, ships its result, says [`Msg::Goodbye`], and exits cleanly
//!   instead of mid-frame. An idle worker is parked in a held claim (the
//!   daemon answers a [`Msg::Claim`] only once a cell frees up or the
//!   lease's retry window ends), so it drains within one hold window.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use stabcon_par::ThreadPool;
use stabcon_util::rng::hash3;

use crate::campaign::CampaignSpec;
use crate::cell::{chunk_for, run_cell_monitored, CellSpec};
use crate::store;
use crate::telemetry::CampaignTelemetry;

use super::protocol::{dial, read_frame, write_frame, FrameLines, Msg, PeerError, SpecDescriptor};

/// Worker knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Local worker threads for the shared pool.
    pub threads: usize,
    /// Display name sent in the handshake (shows up in the daemon's
    /// progress lines).
    pub name: String,
    /// Trials per scheduler chunk; `None` auto-tunes per cell.
    pub chunk: Option<u64>,
    /// Consecutive session failures (failed connects, dead handshakes,
    /// torn replies) tolerated before giving up. Any successfully decoded
    /// daemon reply resets the count.
    pub retries: u32,
    /// Base reconnect backoff in milliseconds; doubles per consecutive
    /// failure (capped at 64× and 30 s) with deterministic ±50% jitter.
    pub backoff_ms: u64,
    /// Graceful-drain flag: once set, the worker finishes the cell in
    /// flight, ships its result, sends [`Msg::Goodbye`], and returns. Each
    /// config has its own, so one worker drains without the others.
    pub drain: Option<Arc<AtomicBool>>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            threads: stabcon_par::default_threads(),
            name: "worker".into(),
            chunk: None,
            retries: 5,
            backoff_ms: 200,
            drain: None,
        }
    }
}

impl WorkerConfig {
    fn drain_requested(&self) -> bool {
        self.drain
            .as_ref()
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }
}

/// What a worker session ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Cells completed and shipped.
    pub cells_run: u64,
    /// Trials executed.
    pub trials_run: u64,
    /// Sessions re-established after a lost connection.
    pub reconnects: u64,
    /// The worker left because a drain was requested (SIGTERM or the
    /// [`WorkerConfig::drain`] flag), not because the queue drained.
    pub drained_early: bool,
}

/// Send one frame under the connection mutex it shares with the heartbeat
/// and the worker's telemetry sink, so frames never interleave.
fn send_locked(stream: &Arc<Mutex<TcpStream>>, msg: &Msg) -> std::io::Result<()> {
    let mut s = stream
        .lock()
        .map_err(|_| std::io::Error::other("connection poisoned"))?;
    write_frame(&mut *s, msg)
}

/// Reconnect backoff for consecutive failure number `attempt` (1-based):
/// `base · 2^min(attempt-1, 6)`, jittered to ±50% by a deterministic
/// [`hash3`] draw keyed on the worker name (distinct workers de-sync, the
/// same worker is reproducible), capped at 30 s.
fn backoff_delay(name_seed: u64, attempt: u32, base_ms: u64) -> Duration {
    let base = base_ms
        .max(1)
        .saturating_mul(1 << (attempt.saturating_sub(1)).min(6));
    let word = hash3(name_seed, 0xbac0ff, attempt as u64);
    let factor = 0.5 + (word >> 11) as f64 / (1u64 << 53) as f64; // [0.5, 1.5)
    Duration::from_millis(((base as f64 * factor) as u64).clamp(1, 30_000))
}

/// FNV-1a of the worker name: the jitter seed.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Sleep in slices of at most 25 ms so a drain request cuts the wait
/// short; the last slice ends at the deadline, not past it.
fn interruptible_sleep(total: Duration, cfg: &WorkerConfig) {
    let deadline = Instant::now() + total;
    while !cfg.drain_requested() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(25)));
    }
}

/// Why a session ended.
enum SessionEnd {
    /// The daemon reported the queue drained.
    QueueDrained,
    /// A drain was requested locally; Goodbye sent.
    DrainRequested,
}

/// Keeps [`Msg::Renew2`] heartbeats flowing for one leased cell; stops
/// (and joins) on drop, so a finished or failed cell never heartbeats a
/// lease it no longer wants. The thread waits on a channel between
/// renewals, so dropping the heartbeat wakes it at once.
struct Heartbeat {
    stop: mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(stream: Arc<Mutex<TcpStream>>, job: u64, cell: u64, lease_ms: u64) -> Self {
        let renew = Msg::Renew2 { job, cell };
        let (stop, stopped) = mpsc::channel::<()>();
        // A third of the lease keeps two renewals of headroom before the
        // deadline even if one frame is delayed.
        let interval = Duration::from_millis((lease_ms / 3).clamp(50, 5000));
        let handle = std::thread::spawn(move || {
            // Only a timeout renews: the stop message ends the thread.
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                // Fire-and-forget: a send failure means the session is
                // dying, which the main loop notices on its own.
                if send_locked(&stream, &renew).is_err() {
                    return;
                }
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One established, handshake-validated connection to the daemon.
/// [`PeerError::Lost`] tears it down and dials again;
/// [`PeerError::Fatal`] (a handshake reject, a grid fingerprint mismatch)
/// ends the worker.
struct Session {
    stream: Arc<Mutex<TcpStream>>,
    lines: FrameLines,
}

impl Session {
    /// Dial and handshake. Connect errors are session-level (the daemon may
    /// be restarting); a [`Msg::Reject`] is fatal.
    fn connect(addr: &str, name: &str) -> Result<Self, PeerError> {
        let (stream, lines) = dial(addr, name)?;
        Ok(Self {
            stream: Arc::new(Mutex::new(stream)),
            lines,
        })
    }

    fn recv(&mut self) -> Result<Msg, PeerError> {
        read_frame(&mut self.lines)
    }

    fn send(&self, msg: &Msg) -> Result<(), PeerError> {
        send_locked(&self.stream, msg).map_err(|e| PeerError::Lost(format!("send: {e}")))
    }
}

/// Run one leased cell of `job` and build its (unshipped)
/// [`Msg::Result2`]. Heartbeats flow for the whole computation.
fn run_leased_cell(
    session: &Session,
    pool: &ThreadPool,
    grid: &JobGrid,
    job: u64,
    cell: &CellSpec,
    lease_ms: u64,
    cfg: &WorkerConfig,
) -> Result<Msg, String> {
    let _heartbeat = Heartbeat::start(Arc::clone(&session.stream), job, cell.id, lease_ms);
    // Telemetry streams to the daemon, one `Telemetry` frame per record
    // (the job sink's header is the daemon's); progress printing stays off
    // (the daemon renders progress for the whole queue).
    let stream = Arc::clone(&session.stream);
    let mut tel = CampaignTelemetry::create_with_sink(
        &grid.spec.name,
        pool.threads().max(1),
        grid.cells.len() as u64,
        cell.trials,
        false,
        Some(Box::new(move |line: &str| {
            let _ = send_locked(&stream, &Msg::Telemetry { line: line.into() });
        })),
    )?;
    let chunk = cfg
        .chunk
        .unwrap_or_else(|| chunk_for(cell.trials, cfg.threads));
    let started = Instant::now();
    let agg = run_cell_monitored(pool, cell, chunk, Some(&mut tel));
    let elapsed_secs = started.elapsed().as_secs_f64();
    tel.end_cell(cell, agg.trials(), elapsed_secs);
    tel.finish();
    Ok(Msg::Result2 {
        job,
        cell: cell.id,
        line: store::cell_line(cell, &agg),
        elapsed_secs,
        trials: agg.trials(),
    })
}

/// The in-flight state that must survive a reconnect.
struct Progress {
    outcome: WorkerOutcome,
    /// A completed cell's Result2 frame not yet provably consumed by the
    /// daemon. Resent at the top of every new session (the daemon
    /// dedupes), cleared when a later frame on the same connection gets a
    /// reply.
    pending: Option<Msg>,
}

/// One job's locally built-and-verified grid, cached across leases so the
/// worker expands each campaign once.
struct JobGrid {
    spec: CampaignSpec,
    cells: Vec<CellSpec>,
}

/// Build (or fetch) the grid for a leased job, verifying that the locally
/// computed fingerprint matches the daemon's. A mismatch is fatal: the two
/// sides would write different bytes.
fn grid_for<'a>(
    grids: &'a mut HashMap<u64, JobGrid>,
    job: u64,
    desc: &SpecDescriptor,
    fingerprint: &str,
) -> Result<&'a JobGrid, PeerError> {
    match grids.entry(job) {
        std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
        std::collections::hash_map::Entry::Vacant(e) => {
            let spec = desc.build().map_err(|err| {
                PeerError::Fatal(format!("job {job}: descriptor does not build: {err}"))
            })?;
            let local = format!("{:016x}", spec.fingerprint());
            if local != fingerprint {
                return Err(PeerError::Fatal(format!(
                    "job {job}: daemon grid fingerprint {fingerprint} != local {local} — \
                     daemon and worker built different campaigns from the same descriptor"
                )));
            }
            let cells = spec.expand();
            Ok(e.insert(JobGrid { spec, cells }))
        }
    }
}

/// Drive one session until the queue drains, a drain is requested, or the
/// session is lost. Updates `progress` in place so nothing is lost on a
/// reconnect.
fn run_session_any(
    session: &mut Session,
    pool: &ThreadPool,
    grids: &mut HashMap<u64, JobGrid>,
    cfg: &WorkerConfig,
    progress: &mut Progress,
    attempts: &mut u32,
) -> Result<SessionEnd, PeerError> {
    // The handshake reply proved the daemon is talking to us.
    *attempts = 0;
    // Idempotent resubmission: if a result was completed but never provably
    // consumed, it goes out first. A followup reply on this connection
    // proves (by TCP ordering) the daemon read it; duplicates are deduped
    // daemon-side, so resending is always safe and never loses work.
    if let Some(result) = progress.pending.clone() {
        session.send(&result)?;
    }
    loop {
        if cfg.drain_requested() {
            // Best-effort goodbye; the session is ending either way.
            let _ = session.send(&Msg::Goodbye);
            return Ok(SessionEnd::DrainRequested);
        }
        session.send(&Msg::Claim)?;
        let reply = session.recv()?;
        // A decoded reply to a frame sent *after* the pending result means
        // the daemon consumed the result bytes: drop the copy.
        progress.pending = None;
        *attempts = 0;
        match reply {
            Msg::Lease2 {
                job,
                cell,
                lease_ms,
                spec,
                fingerprint,
            } => {
                let grid = grid_for(grids, job, &spec, &fingerprint)?;
                let cell = grid
                    .cells
                    .get(cell as usize)
                    .filter(|c| c.id == cell)
                    .ok_or_else(|| {
                        PeerError::Fatal(format!("job {job}: leased unknown cell {cell}"))
                    })?;
                let result = run_leased_cell(session, pool, grid, job, cell, lease_ms, cfg)
                    .map_err(PeerError::Fatal)?;
                if let Msg::Result2 { trials, .. } = &result {
                    progress.outcome.trials_run += trials;
                }
                progress.outcome.cells_run += 1;
                // The cell is done: remember the frame *before* trying to
                // ship it, so a send failure reships it next session.
                progress.pending = Some(result.clone());
                session.send(&result)?;
            }
            // A held claim that ran out its window: claim again now.
            Msg::Wait { retry_ms: 0 } => {}
            Msg::Wait { retry_ms } => {
                interruptible_sleep(Duration::from_millis(retry_ms.clamp(10, 5000)), cfg);
            }
            Msg::Drained => return Ok(SessionEnd::QueueDrained),
            Msg::Reject { reason } => return Err(PeerError::Fatal(format!("rejected: {reason}"))),
            other => {
                return Err(PeerError::Lost(format!(
                    "unexpected daemon message {other:?}"
                )))
            }
        }
    }
}

/// Connect to a `stabcon serve` daemon at `addr` and work on *whatever
/// campaigns it has*: each [`Msg::Lease2`] ships its job's spec
/// descriptor, which the worker builds and fingerprint-verifies locally
/// before running a single trial. Runs until the daemon reports the queue
/// drained (or a graceful drain is requested).
///
/// Session failures — refused connects, dropped connections, torn frames —
/// are retried with capped exponential backoff up to
/// [`WorkerConfig::retries`] consecutive times; completed-but-unshipped
/// results survive the reconnect and are resubmitted idempotently.
pub fn run_worker_any(addr: &str, cfg: &WorkerConfig) -> Result<WorkerOutcome, String> {
    let seed = name_seed(&cfg.name);
    let pool = ThreadPool::new(cfg.threads);
    let mut grids: HashMap<u64, JobGrid> = HashMap::new();
    let mut progress = Progress {
        outcome: WorkerOutcome {
            cells_run: 0,
            trials_run: 0,
            reconnects: 0,
            drained_early: false,
        },
        pending: None,
    };
    let mut attempts: u32 = 0;
    let mut sessions_seen: u64 = 0;
    loop {
        if cfg.drain_requested() {
            progress.outcome.drained_early = true;
            return Ok(progress.outcome);
        }
        let ended = Session::connect(addr, &cfg.name).and_then(|mut session| {
            sessions_seen += 1;
            if sessions_seen > 1 {
                progress.outcome.reconnects += 1;
            }
            run_session_any(
                &mut session,
                &pool,
                &mut grids,
                cfg,
                &mut progress,
                &mut attempts,
            )
        });
        let lost = match ended {
            Ok(SessionEnd::QueueDrained) => return Ok(progress.outcome),
            Ok(SessionEnd::DrainRequested) => {
                progress.outcome.drained_early = true;
                return Ok(progress.outcome);
            }
            Err(PeerError::Fatal(msg)) => return Err(format!("work: {msg}")),
            Err(PeerError::Lost(msg)) => msg,
        };
        attempts += 1;
        if attempts > cfg.retries {
            return Err(format!(
                "work: {addr}: gave up after {attempts} consecutive session failures \
                 (last: {lost}) — raise --retries/--backoff-ms for flakier links"
            ));
        }
        let delay = backoff_delay(seed, attempts, cfg.backoff_ms);
        eprintln!(
            "work: session with {addr} lost (attempt {attempts}/{}): {lost} — retrying in {}ms",
            cfg.retries,
            delay.as_millis()
        );
        interruptible_sleep(delay, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_jittered_and_caps() {
        let seed = name_seed("host-1");
        let base = backoff_delay(seed, 1, 200);
        assert!(
            base >= Duration::from_millis(100) && base < Duration::from_millis(300),
            "attempt 1 near the base: {base:?}"
        );
        // Deterministic: the same (name, attempt) always draws the same
        // delay; a different worker name draws a different one.
        assert_eq!(backoff_delay(seed, 1, 200), base);
        assert_ne!(backoff_delay(name_seed("host-2"), 1, 200), base);
        // Roughly doubles per attempt...
        let later = backoff_delay(seed, 4, 200);
        assert!(later > base, "attempt 4 ({later:?}) > attempt 1 ({base:?})");
        // ...but the exponent stops at 2^6 and the delay at 30 s.
        for attempt in [7, 10, 100, u32::MAX] {
            assert!(backoff_delay(seed, attempt, 200) <= Duration::from_secs(30));
        }
        assert_eq!(
            backoff_delay(seed, 20, 200),
            backoff_delay(seed, 20, 200),
            "cap region still deterministic"
        );
    }

    #[test]
    fn a_heartbeat_dropped_before_its_interval_sends_nothing() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut daemon_side, _) = listener.accept().expect("accept");
        let stream = Arc::new(Mutex::new(client));
        // A 15 s lease renews every 5 s; the drop comes long before that.
        drop(Heartbeat::start(Arc::clone(&stream), 1, 0, 15_000));
        // The heartbeat thread is joined, so this is the last handle:
        // dropping it closes the connection and the read below ends.
        drop(stream);
        let mut sent = Vec::new();
        std::io::Read::read_to_end(&mut daemon_side, &mut sent).expect("read to EOF");
        assert!(
            sent.is_empty(),
            "no Renew2 before the first interval: {:?}",
            String::from_utf8_lossy(&sent)
        );
    }

    #[test]
    fn drain_flag_is_per_config_or_global() {
        let flag = Arc::new(AtomicBool::new(false));
        let cfg = WorkerConfig {
            drain: Some(Arc::clone(&flag)),
            ..WorkerConfig::default()
        };
        assert!(!cfg.drain_requested());
        flag.store(true, Ordering::SeqCst);
        assert!(cfg.drain_requested());
        // The injected flag does not leak into other configs.
        assert!(!WorkerConfig::default().drain_requested());
    }
}
