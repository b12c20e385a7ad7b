//! The `stabcon serve` daemon: a durable multi-campaign job queue that
//! leases cells to connecting workers, re-claims leases whose worker died,
//! and assembles each job's canonical store. A single-campaign `stabcon
//! serve --preset X` is this daemon with one job submitted at startup.
//!
//! Every cell line is a pure function of its spec, so a dead host costs
//! nothing but wall clock: its leased cells return to the pending set (on
//! disconnect immediately, on a hang when the lease expires) and the re-run
//! by another worker produces the identical bytes. A *slow* worker is not a
//! dead one: [`Msg::Renew2`] heartbeats push the lease deadline out while
//! the cell runs, so only workers that stop heartbeating lose their lease.
//! Duplicate results — the original worker limping back (possibly over a
//! fresh connection) after its result was already ingested — are
//! deduplicated; first ingest wins and is exact, and the dedupe count is
//! reported in the [`QueueOutcome`].
//!
//! All lease deadlines are [`Instant`]s — the OS **monotonic** clock — so a
//! wall-clock step (NTP correction, manual `date`, DST) can never
//! mass-expire live leases or stretch them indefinitely.
//!
//! The lease/park/flush decisions are not made here: they are
//! [`JobQueue`]'s, one pure state machine over every job and its cells,
//! with no sockets and no files. This module keeps the I/O around it — the
//! listener and connection threads that translate wire frames into queue
//! transitions under one lock, the held-claim wait, and the journal and
//! store writers that make each transition durable.
//!
//! Results are parked and flushed to the job's store as a contiguous prefix
//! in cell-index order (the same discipline as the in-order merger of
//! `crate::cell::CellStream`), so a completed job store is byte-identical to the
//! single-host `stabcon campaign run` store. Each store handle is a
//! [`store::StoreWriter`], so `--durability {none,cell}` applies the
//! same fsync policy here as in the single-host runner, and a `kill -9`'d
//! daemon restarted with `--resume` replays its journal, repairs any torn
//! store tail on open, and finishes every interrupted job.
//!
//! Work is pushed, not polled. A [`Msg::Claim`] that finds nothing to
//! lease is held: its connection thread waits on the daemon's one
//! `Condvar` and claims again whenever a frame, a disconnect or the 25 ms
//! housekeeping tick may have changed the queue, answering with the
//! lease or [`Msg::Drained`] at once, or with `Wait { retry_ms: 0 }` when
//! the lease's retry window (`lease/4`, 50–1000 ms) runs out. Connections
//! are taken by a thread blocked in `accept()`, so a submit or status
//! request is answered without waiting for the tick.
//!
//! Worker telemetry frames ([`Msg::Telemetry`]) land in a per-job sink,
//! `<job store>.telemetry.jsonl`, filed under the job of the last lease the
//! connection was dealt — but only lines that fully validate as
//! `stabcon-telemetry/1` records. A worker ships records only, never a
//! header; header lines and torn or malformed lines are dropped and
//! counted, so a hostile or desynced worker can never corrupt a sink, and
//! a clean run drops nothing.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stabcon_util::jsonl::{get, parse_flat, JsonScalar};

use crate::store::{self, Durability, StoreWriter};
use crate::telemetry;

use super::protocol::{write_frame, Msg, SpecDescriptor, FABRIC_SCHEMA};
use super::queue::{
    job_store_path, jobs_journal_path, open_journal, Ingest, Job, JobQueue, JobState, JournalEvent,
    Parked, QueueConfig,
};

/// Daemon knobs.
#[derive(Clone)]
pub struct QueueServeConfig {
    /// How long a worker may sit on a leased cell without heartbeating
    /// before the daemon hands the cell to someone else ([`Msg::Renew2`]
    /// extends the deadline by this much each time).
    pub lease: Duration,
    /// Print per-lease and per-flush progress lines (accept / reject /
    /// expire / done events are always logged).
    pub progress: bool,
    /// Replay an existing jobs journal instead of refusing it.
    pub resume: bool,
    /// Fsync policy for the journal and every per-job store.
    pub durability: Durability,
    /// Campaigns running concurrently (rest wait in FIFO order).
    pub max_active: usize,
    /// Live jobs one client may hold (admission control).
    pub quota: usize,
    /// Exit once the queue holds at least one job and all are terminal
    /// (batch drains: `--resume --exit-when-idle` finishes parked work).
    pub exit_when_idle: bool,
    /// SIGTERM hook: when the flag flips, stop dealing leases, refuse
    /// submissions, wait for in-flight leases to settle, and exit with the
    /// queue parked durably in the journal.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl Default for QueueServeConfig {
    fn default() -> Self {
        Self {
            lease: Duration::from_secs(60),
            progress: false,
            resume: false,
            durability: Durability::None,
            max_active: 4,
            quota: 4,
            exit_when_idle: false,
            shutdown: None,
        }
    }
}

/// What a daemon run left behind. The cell and lease counters sum over
/// every job this invocation ran.
#[derive(Debug, Clone)]
pub struct QueueOutcome {
    /// Jobs the queue has ever seen (including replayed records).
    pub jobs: u64,
    /// Jobs still queued at exit (parked for the next `--resume`).
    pub queued: u64,
    /// Jobs still running at exit (parked likewise).
    pub running: u64,
    /// Jobs fully written to their stores.
    pub done: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Jobs that failed to activate.
    pub failed: u64,
    /// Connections whose handshake succeeded (workers and clients).
    pub workers_seen: u64,
    /// Cells ingested from workers by this invocation.
    pub cells_ingested: u64,
    /// Leases returned to the pending set (worker died or hung past the
    /// lease deadline).
    pub leases_reclaimed: u64,
    /// Lease heartbeats honored (deadline extensions).
    pub leases_renewed: u64,
    /// Duplicate result frames ignored (reconnect resubmissions and re-runs
    /// of reclaimed leases; first ingest wins).
    pub results_deduped: u64,
    /// Result frames rejected: the store line names another cell, or the
    /// cell is out of the job's range. Zero on a clean run.
    pub results_rejected: u64,
    /// Result frames for unknown or no longer running jobs (a cancelled
    /// job's in-flight cells), ignored.
    pub results_ignored: u64,
    /// Telemetry lines dropped: failed `stabcon-telemetry/1` record
    /// validation (torn frames, header lines, malformed workers), or
    /// arrived for a job with no open sink. Zero on a clean run.
    pub telemetry_dropped: u64,
    /// Connections that announced a graceful drain ([`Msg::Goodbye`]).
    pub goodbyes: u64,
    /// Whether the daemon exited on the shutdown flag (vs idle).
    pub halted: bool,
    /// The jobs journal path.
    pub journal_path: PathBuf,
}

/// Per-active-job logs: the store plus its timings sidecar and telemetry
/// sink.
struct JobIo {
    store: StoreWriter,
    timings: StoreWriter,
    telemetry: StoreWriter,
}

/// Everything the daemon's connections share: the pure [`JobQueue`] plus the
/// journal and per-job store handles it drives.
struct QShared {
    queue: JobQueue,
    stores: BTreeMap<u64, JobIo>,
    journal: StoreWriter,
    out: PathBuf,
    durability: Durability,
    progress: bool,
    workers_seen: u64,
    telemetry_dropped: u64,
    goodbyes: u64,
    /// Claims held open right now. The daemon exits only once this is 0,
    /// a tick after it woke them, so every parked worker hears its
    /// `Drained` first.
    held_claims: u64,
}

/// The state every connection shares, and the signal its held claims wait
/// on. `changed` is notified whenever a claim may get a new answer: after
/// each frame that can change the queue, after each disconnect, and on
/// each housekeeping tick (lease expiry, activation, halt, closing
/// admission).
struct Daemon {
    state: Mutex<QShared>,
    changed: Condvar,
}

/// A job's display name: the built spec's name, else what the descriptor
/// would call it.
fn job_name(job: &Job) -> String {
    job.spec
        .as_ref()
        .map(|s| s.name.clone())
        .or_else(|| job.descriptor.name.clone())
        .unwrap_or_else(|| job.descriptor.preset.clone())
}

impl QShared {
    fn journal_event(&mut self, ev: &JournalEvent) -> Result<(), String> {
        self.journal
            .append(&ev.to_line())
            .map_err(|e| format!("jobs journal append: {e}"))
    }

    /// Fill free activation slots from the FIFO head. An activation
    /// failure fails that job and moves on — one bad store never wedges
    /// the queue.
    fn activate_ready(&mut self, now: Instant) {
        while let Some(id) = self.queue.next_activation() {
            if let Err(e) = self.activate(id, now) {
                eprintln!("serve: job {id} failed — {e}");
                self.queue.fail(id, now);
                if let Err(e) = self.journal_event(&JournalEvent::State {
                    job: id,
                    state: JobState::Failed,
                }) {
                    eprintln!("serve: job {id} failure not journaled — {e}");
                }
            }
        }
    }

    /// Activate one queued job: journal the transition *first* (so a crash
    /// between journal and store open replays as a resumable Running job,
    /// and [`store::open_for_append`] creates the missing store fresh),
    /// then open its store/timings and hand the done-set to the queue.
    fn activate(&mut self, id: u64, now: Instant) -> Result<(), String> {
        let (header, campaign, resume) = {
            let job = self
                .queue
                .job(id)
                .ok_or_else(|| format!("unknown job {id}"))?;
            let spec = job
                .spec
                .as_ref()
                .ok_or_else(|| "descriptor no longer builds".to_string())?;
            (spec.header(), spec.name.clone(), job.resume_store)
        };
        self.journal_event(&JournalEvent::State {
            job: id,
            state: JobState::Running,
        })?;
        let path = job_store_path(&self.out, id);
        let (store, done) = store::open_for_append(&path, &header, resume, self.durability)?;
        let timings = telemetry::open_timings(&path, resume)?;
        let done_len = done.len();
        let trials_planned = (header.cells - done_len as u64) * header.trials;
        let sink_header = telemetry::telemetry_header(&campaign, 0, header.cells, trials_planned);
        let telemetry = telemetry::open_sink(&telemetry::sink_path(&path), &sink_header, resume)?;
        self.stores.insert(
            id,
            JobIo {
                store,
                timings,
                telemetry,
            },
        );
        self.queue.start(id, done, now)?;
        eprintln!(
            "serve: job {id} running — store {} ({done_len}/{} cells already present)",
            path.display(),
            header.cells
        );
        // A resumed store that was already complete flips straight to Done.
        self.flush_job(id, now)
    }

    /// Ingest one result frame for one job; flush if it parked.
    fn ingest_result(
        &mut self,
        job: u64,
        cell: u64,
        line: String,
        elapsed_secs: f64,
        trials: u64,
        now: Instant,
    ) -> Result<(), String> {
        let id_ok = parse_flat(&line)
            .ok()
            .and_then(|obj| get(&obj, "cell").and_then(JsonScalar::as_u64))
            == Some(cell);
        let parked = Parked {
            line,
            trials,
            elapsed_secs,
        };
        if self.queue.ingest(job, cell, parked, id_ok) == Ingest::Parked {
            self.flush_job(job, now)?;
        }
        Ok(())
    }

    /// File one worker-shipped telemetry line in `job`'s sink. Only lines
    /// that fully validate as telemetry records land; header lines, torn
    /// or malformed lines, and lines for a job with no open sink are
    /// dropped and counted, so a sink always stays schema-valid.
    fn ingest_telemetry(&mut self, job: Option<u64>, line: &str) {
        let landed = match job.and_then(|id| self.stores.get_mut(&id)) {
            Some(io) if telemetry::validate_record_line(line).is_ok() => {
                io.telemetry.append(line).is_ok()
            }
            _ => false,
        };
        if !landed {
            self.telemetry_dropped += 1;
        }
    }

    /// Flush one job's parked results that extend its store's contiguous
    /// prefix; journal + close the store when the final flush finishes it.
    fn flush_job(&mut self, id: u64, now: Instant) -> Result<(), String> {
        if !self.stores.contains_key(&id) {
            return Ok(());
        }
        let mut flushed = 0u64;
        while let Some((cell, r)) = self.queue.pop_flushable(id, now) {
            let io = self.stores.get_mut(&id).expect("checked above");
            io.store
                .append(&r.line)
                .map_err(|e| format!("job {id}: append cell {cell}: {e}"))?;
            telemetry::append_timing(&mut io.timings, cell, r.trials, r.elapsed_secs)?;
            flushed += 1;
        }
        if flushed > 0 && self.progress {
            if let Some(job) = self.queue.job(id) {
                eprintln!(
                    "serve: job {id} flushed {flushed} cells ({}/{})",
                    job.written(),
                    job.cells_total
                );
            }
        }
        self.finalize_done(id, now)
    }

    /// If `id` just drained to [`JobState::Done`], journal it, sync and
    /// close its store, and log the completion.
    fn finalize_done(&mut self, id: u64, now: Instant) -> Result<(), String> {
        let Some(job) = self.queue.job(id) else {
            return Ok(());
        };
        if job.state != JobState::Done {
            return Ok(());
        }
        let total = job.cells_total;
        let elapsed = job.elapsed_secs(now);
        if let Some(mut io) = self.stores.remove(&id) {
            io.store
                .finish()
                .map_err(|e| format!("job {id}: sync store on finish: {e}"))?;
            self.journal_event(&JournalEvent::State {
                job: id,
                state: JobState::Done,
            })?;
            eprintln!("serve: job {id} done — {total} cells in {elapsed:.1}s");
        }
        Ok(())
    }

    /// Admit (or refuse) one submission: journal *before* acknowledging,
    /// so every `Accepted` the client ever sees survives a daemon crash.
    fn handle_submit(
        &mut self,
        client: &str,
        spec: &SpecDescriptor,
        fingerprint: &str,
        now: Instant,
    ) -> Msg {
        match self.queue.submit(client, spec, fingerprint) {
            Ok((id, cells)) => {
                let fp = self.queue.job(id).expect("just admitted").fingerprint;
                let ev = JournalEvent::Submit {
                    job: id,
                    client: client.into(),
                    spec: spec.clone(),
                    fingerprint: fp,
                    cells,
                };
                if let Err(e) = self.journal_event(&ev) {
                    self.queue.fail(id, now);
                    eprintln!("serve: job {id} rejected for '{client}': internal — {e}");
                    return Msg::Rejected {
                        code: "internal".into(),
                        reason: e,
                    };
                }
                let store = job_store_path(&self.out, id).display().to_string();
                eprintln!(
                    "serve: job {id} accepted from '{client}' ({cells} cells) — store {store}"
                );
                self.activate_ready(now);
                Msg::Accepted {
                    job: id,
                    cells,
                    store,
                }
            }
            Err(rej) => {
                eprintln!(
                    "serve: submit rejected for '{client}': {} — {}",
                    rej.code, rej.reason
                );
                rej.to_msg()
            }
        }
    }

    /// Cancel a job: journal the transition, close its store (the partial
    /// file stays on disk), free the activation slot.
    fn handle_cancel(&mut self, job: u64, now: Instant) -> Msg {
        match self.queue.cancel(job, now) {
            Ok(state) => {
                if let Err(e) = self.journal_event(&JournalEvent::State { job, state }) {
                    eprintln!("serve: job {job} cancel not journaled — {e}");
                }
                if let Some(mut io) = self.stores.remove(&job) {
                    let _ = io.store.finish();
                }
                eprintln!("serve: job {job} cancelled — partial store kept on disk");
                self.activate_ready(now);
                Msg::Cancelled {
                    job,
                    state: state.label().into(),
                }
            }
            Err(rej) => {
                eprintln!(
                    "serve: cancel job {job} rejected: {} — {}",
                    rej.code, rej.reason
                );
                rej.to_msg()
            }
        }
    }

    /// The status plane: one [`Msg::StatusReport`] followed by exactly
    /// `jobs` × [`Msg::JobStatus`] frames (all jobs, or the one requested).
    fn status_frames(&self, job: Option<u64>, now: Instant) -> Vec<Msg> {
        let selected: Vec<&Job> = match job {
            Some(id) => match self.queue.job(id) {
                Some(j) => vec![j],
                None => {
                    return vec![Msg::Rejected {
                        code: "unknown-job".into(),
                        reason: format!("no job {id} in the queue"),
                    }]
                }
            },
            None => self.queue.jobs().collect(),
        };
        let c = self.queue.counts();
        let mut frames = vec![Msg::StatusReport {
            accepting: self.queue.accepting(),
            queued: c.queued,
            running: c.running,
            done: c.done,
            cancelled: c.cancelled,
            failed: c.failed,
            jobs: selected.len() as u64,
        }];
        for j in selected {
            frames.push(Msg::JobStatus {
                job: j.id,
                name: job_name(j),
                state: j.state.label().into(),
                client: j.client.clone(),
                cells: j.cells_total,
                written: j.written(),
                trials: j.trials_ingested,
                elapsed_secs: j.elapsed_secs(now),
            });
        }
        frames
    }

    /// Sync everything on the way out and summarize the queue.
    fn outcome(&mut self, halted: bool) -> Result<QueueOutcome, String> {
        for (id, io) in self.stores.iter_mut() {
            io.store
                .finish()
                .map_err(|e| format!("job {id}: sync store on exit: {e}"))?;
        }
        self.journal
            .finish()
            .map_err(|e| format!("sync jobs journal on exit: {e}"))?;
        let (q, c) = (&self.queue, self.queue.counts());
        Ok(QueueOutcome {
            jobs: q.jobs().count() as u64,
            queued: c.queued,
            running: c.running,
            done: c.done,
            cancelled: c.cancelled,
            failed: c.failed,
            workers_seen: self.workers_seen,
            cells_ingested: q.cells_ingested,
            leases_reclaimed: q.leases_reclaimed,
            leases_renewed: q.leases_renewed,
            results_deduped: q.results_deduped,
            results_rejected: q.results_rejected,
            results_ignored: q.results_ignored,
            telemetry_dropped: self.telemetry_dropped,
            goodbyes: self.goodbyes,
            halted,
            journal_path: jobs_journal_path(&self.out),
        })
    }
}

/// A bound (but not yet running) daemon.
pub struct QueueServer {
    listener: TcpListener,
    out: PathBuf,
}

impl QueueServer {
    /// Bind the daemon on `addr`. `out` is the store *prefix*: job `N`'s
    /// store lands at `<out>.job-N.jsonl`, the journal at
    /// `<out>.jobs.jsonl`.
    pub fn bind(addr: &str, out: &Path) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("serve: bind {addr}: {e}"))?;
        Ok(Self {
            listener,
            out: out.to_path_buf(),
        })
    }

    /// The bound address (resolves a `:0` port).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("serve: local_addr: {e}"))
    }

    /// Run the daemon: open (or replay) the journal, then accept
    /// submissions, lease cells, and flush stores until the shutdown flag
    /// flips (drain leases, park the queue, exit) or — with
    /// `exit_when_idle` — until every job the queue has seen is terminal.
    ///
    /// One thread blocks in `accept()` and gives each connection a thread
    /// of its own; this one keeps house every 25 ms. On return the acceptor
    /// is joined and the listener closed.
    pub fn run(self, cfg: &QueueServeConfig) -> Result<QueueOutcome, String> {
        let journal_path = jobs_journal_path(&self.out);
        let (journal, events) = open_journal(&journal_path, cfg.resume, cfg.durability)?;
        let mut queue = JobQueue::new(QueueConfig {
            max_active: cfg.max_active,
            quota: cfg.quota,
            lease: cfg.lease,
        });
        queue.replay(&events)?;
        if !events.is_empty() {
            let c = queue.counts();
            eprintln!(
                "serve: journal replayed — {} jobs ({} queued, {} done, {} cancelled, {} failed)",
                queue.jobs().count(),
                c.queued,
                c.done,
                c.cancelled,
                c.failed
            );
        }
        let daemon = Arc::new(Daemon {
            state: Mutex::new(QShared {
                queue,
                stores: BTreeMap::new(),
                journal,
                out: self.out.clone(),
                durability: cfg.durability,
                progress: cfg.progress,
                workers_seen: 0,
                telemetry_dropped: 0,
                goodbyes: 0,
                held_claims: 0,
            }),
            changed: Condvar::new(),
        });
        {
            let mut q = daemon.state.lock().map_err(|_| "serve: state poisoned")?;
            q.activate_ready(Instant::now());
        }

        let wake = local_dial_addr(self.local_addr()?);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (listener, daemon, stop) = (self.listener, Arc::clone(&daemon), Arc::clone(&stop));
            std::thread::spawn(move || accept_loop(&listener, &daemon, &stop))
        };
        let outcome = keep_house(&daemon, cfg, &acceptor);
        stop.store(true, Ordering::SeqCst);
        if !acceptor.is_finished() {
            // The acceptor is blocked in accept(): one connection of our
            // own wakes it to see the stop flag.
            TcpStream::connect(wake)
                .map_err(|e| format!("serve: wake the acceptor at {wake}: {e}"))?;
        }
        acceptor
            .join()
            .map_err(|_| "serve: acceptor panicked".to_string())??;
        outcome
    }
}

/// The address a peer on this host dials to reach a listener bound at
/// `addr`: `addr` itself, with an unspecified IP replaced by its family's
/// loopback.
pub fn local_dial_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Block in `accept()` and hand each connection its own thread, until a
/// connection arrives with `stop` set (the daemon's own wake-up call).
fn accept_loop(
    listener: &TcpListener,
    daemon: &Arc<Daemon>,
    stop: &AtomicBool,
) -> Result<(), String> {
    let mut conn_id = 0u64;
    loop {
        let (stream, _) = listener
            .accept()
            .map_err(|e| format!("serve: accept: {e}"))?;
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Frames are small request/reply lines: send each now.
        let _ = stream.set_nodelay(true);
        conn_id += 1;
        let conn = conn_id;
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || handle_queue_conn(stream, conn, &daemon));
    }
}

/// The daemon's 25 ms housekeeping: expire leases, activate queued jobs,
/// honour a halt, and decide when to exit. Each tick wakes every held
/// claim to claim again.
fn keep_house(
    daemon: &Daemon,
    cfg: &QueueServeConfig,
    acceptor: &JoinHandle<Result<(), String>>,
) -> Result<QueueOutcome, String> {
    // Exit-when-idle linger. A held claim hears Drained as soon as
    // admission closes; the linger is for workers between frames (one
    // still running a cancelled job's cell, or a peer sleeping out a
    // nonzero Wait), so they too claim once more and hear Drained instead
    // of finding a dead socket and burning their retry budget.
    let retry_ms = (cfg.lease.as_millis() as u64 / 4).clamp(50, 1000);
    let grace = Duration::from_millis(retry_ms * 2 + 200);
    let mut idle_since: Option<Instant> = None;
    loop {
        if acceptor.is_finished() {
            return Err("serve: the acceptor stopped".into());
        }
        {
            let mut q = daemon.state.lock().map_err(|_| "serve: state poisoned")?;
            let now = Instant::now();
            for (job, cell) in q.queue.sweep_expired(now) {
                eprintln!("serve: job {job} cell {cell} lease expired — reclaimed");
            }
            q.activate_ready(now);
            let halt_requested = cfg
                .shutdown
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed));
            if halt_requested && !q.queue.halted() {
                q.queue.halt();
                eprintln!(
                    "serve: halt requested — draining leases, parking queue, \
                     refusing submissions"
                );
            }
            if q.queue.halted() && q.queue.leases_settled() && q.held_claims == 0 {
                return q.outcome(true);
            }
            if cfg.exit_when_idle && q.queue.jobs().next().is_some() && q.queue.idle() {
                match idle_since {
                    None => {
                        // Stop accepting so claims answer Drained, and
                        // linger so connected workers hear it.
                        q.queue.set_accepting(false);
                        idle_since = Some(now);
                        eprintln!("serve: queue idle — draining workers before exit");
                    }
                    Some(since) if now.duration_since(since) >= grace && q.held_claims == 0 => {
                        return q.outcome(false);
                    }
                    Some(_) => {}
                }
            }
        }
        daemon.changed.notify_all();
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Answer one claim, holding it while there is nothing to lease: as long
/// as [`JobQueue::claim`] says [`Msg::Wait`] and the peer stays `quiet`,
/// wait on `changed` and claim again on each wake, until a lease or
/// [`Msg::Drained`] comes back. When the `Wait`'s retry window runs out,
/// or the peer sends another frame (a duplicated claim, say, whose
/// worker goes on to ship a result), answer `Wait { retry_ms: 0 }`:
/// "claim again now". `None` if the state is poisoned.
fn hold_claim<'a>(
    daemon: &'a Daemon,
    mut q: MutexGuard<'a, QShared>,
    conn: u64,
    now: Instant,
    quiet: impl Fn() -> bool,
) -> Option<(MutexGuard<'a, QShared>, Msg)> {
    let reply = q.queue.claim(conn, now);
    let Msg::Wait { retry_ms } = reply else {
        return Some((q, reply));
    };
    let deadline = now + Duration::from_millis(retry_ms);
    q.held_claims += 1;
    let reply = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || !quiet() {
            break Msg::Wait { retry_ms: 0 };
        }
        q = daemon.changed.wait_timeout(q, left).ok()?.0;
        let reply = q.queue.claim(conn, Instant::now());
        if !matches!(reply, Msg::Wait { .. }) {
            break reply;
        }
    };
    q.held_claims -= 1;
    Some((q, reply))
}

/// Read the next frame line into `line`, newline stripped; `false` at EOF
/// or on a read error.
fn next_frame(reader: &mut BufReader<TcpStream>, line: &mut String) -> bool {
    line.clear();
    if !matches!(reader.read_line(line), Ok(n) if n > 0) {
        return false;
    }
    if line.ends_with('\n') {
        line.pop();
        if line.ends_with('\r') {
            line.pop();
        }
    }
    true
}

/// Whether the peer has sent nothing since its last frame: no bytes in
/// the read buffer and none waiting on the socket (a closed socket is not
/// quiet either).
fn peer_quiet(reader: &BufReader<TcpStream>) -> bool {
    if !reader.buffer().is_empty() {
        return false;
    }
    let socket = reader.get_ref();
    if socket.set_nonblocking(true).is_err() {
        return false;
    }
    let waiting = socket.peek(&mut [0u8; 1]);
    let _ = socket.set_nonblocking(false);
    matches!(waiting, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock)
}

/// One connection, from handshake to disconnect. Only `stabcon-fabric/8`
/// hellos are welcomed; the connection may then mix control frames
/// (submit, status, cancel) with the claim/lease/result loop.
fn handle_queue_conn(mut stream: TcpStream, conn: u64, daemon: &Daemon) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    let mut line = String::new();

    if !next_frame(&mut reader, &mut line) {
        return;
    }
    let greeting = match Msg::decode(&line) {
        Ok(Msg::Hello { schema, worker }) if schema == FABRIC_SCHEMA => Ok(worker),
        Ok(Msg::Hello { schema, .. }) => Err(format!(
            "protocol version '{schema}' is not supported; this daemon speaks \
             '{FABRIC_SCHEMA}'"
        )),
        _ => Err("expected hello".to_string()),
    };
    let worker_name = match greeting {
        Ok(worker) => worker,
        Err(reason) => {
            let _ = write_frame(&mut stream, &Msg::Reject { reason });
            return;
        }
    };

    let welcome = {
        let Ok(mut q) = daemon.state.lock() else {
            return;
        };
        q.workers_seen += 1;
        Msg::Welcome {
            campaign: "queue".into(),
            cells: q.queue.jobs().filter(|j| !j.state.terminal()).count() as u64,
        }
    };
    if write_frame(&mut stream, &welcome).is_err() {
        return;
    }

    // Telemetry frames carry no job tag: they file under the job of the
    // last lease dealt on this connection (a worker streams a cell's
    // telemetry between its Lease2 and its Result2).
    let mut leased_job: Option<u64> = None;
    while next_frame(&mut reader, &mut line) {
        let Ok(msg) = Msg::decode(&line) else { break }; // desynced: drop
        let now = Instant::now();
        // Heartbeats and telemetry stream in while a cell runs and never
        // free a cell: only the other frames wake held claims.
        let wakes = !matches!(msg, Msg::Renew2 { .. } | Msg::Telemetry { .. });
        let (replies, quit) = {
            let Ok(mut q) = daemon.state.lock() else {
                break;
            };
            match msg {
                Msg::Claim => {
                    let Some((guard, reply)) =
                        hold_claim(daemon, q, conn, now, || peer_quiet(&reader))
                    else {
                        break;
                    };
                    q = guard;
                    if let Msg::Lease2 { job, cell, .. } = &reply {
                        leased_job = Some(*job);
                        if q.progress {
                            eprintln!("serve: job {job} cell {cell} leased to '{worker_name}'");
                        }
                    }
                    (vec![reply], false)
                }
                Msg::Renew2 { job, cell } => {
                    q.queue.renew(conn, job, cell, now);
                    (vec![], false)
                }
                Msg::Result2 {
                    job,
                    cell,
                    line,
                    elapsed_secs,
                    trials,
                } => {
                    let quit = match q.ingest_result(job, cell, line, elapsed_secs, trials, now) {
                        Ok(()) => false,
                        Err(e) => {
                            eprintln!("serve: job {job} flush failed — {e}");
                            true // store write failed; stall visibly
                        }
                    };
                    q.activate_ready(now); // a finished job frees a slot
                    (vec![], quit)
                }
                Msg::Telemetry { line } => {
                    q.ingest_telemetry(leased_job, &line);
                    (vec![], false)
                }
                Msg::Submit {
                    client,
                    spec,
                    fingerprint,
                } => (
                    vec![q.handle_submit(&client, &spec, &fingerprint, now)],
                    false,
                ),
                Msg::Status { job } => (q.status_frames(job, now), false),
                Msg::Cancel { job } => (vec![q.handle_cancel(job, now)], false),
                Msg::Goodbye => {
                    q.goodbyes += 1;
                    if q.progress {
                        eprintln!("serve: '{worker_name}' drained gracefully");
                    }
                    (vec![], true)
                }
                // Anything else — the retired `/1` Lease/Result/Renew frames
                // included — is a protocol violation.
                _ => (vec![], true),
            }
        };
        if wakes {
            daemon.changed.notify_all();
        }
        let mut dead = false;
        for reply in &replies {
            let drained = matches!(reply, Msg::Drained);
            if write_frame(&mut stream, reply).is_err() || drained {
                dead = true;
                break;
            }
        }
        if dead || quit {
            break;
        }
    }

    // Disconnect (or violation, or goodbye): whatever this connection held
    // goes back to its jobs' pending sets.
    if let Ok(mut q) = daemon.state.lock() {
        q.queue.release_conn(conn);
    }
    daemon.changed.notify_all();
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// A one-job queue, running, over a `total`-cell grid with a 500 ms
    /// lease: the daemon's lease contract without a socket. A journal
    /// record fixes the grid size without expanding a preset.
    fn one_job(total: u64) -> JobQueue {
        let mut q = JobQueue::new(QueueConfig {
            lease: Duration::from_millis(500),
            ..QueueConfig::default()
        });
        let spec = SpecDescriptor {
            preset: "smoke".into(),
            ..SpecDescriptor::default()
        };
        q.replay(&[JournalEvent::Submit {
            job: 1,
            client: "t".into(),
            spec,
            fingerprint: 0,
            cells: total,
        }])
        .expect("replay");
        q.start(1, BTreeSet::new(), Instant::now()).expect("start");
        q
    }

    /// Claim one cell for `conn`; panics unless a lease comes back.
    fn lease(q: &mut JobQueue, conn: u64, now: Instant) -> u64 {
        match q.claim(conn, now) {
            Msg::Lease2 { job: 1, cell, .. } => cell,
            other => panic!("expected a lease of job 1, got {other:?}"),
        }
    }

    fn parked(cell: u64) -> Parked {
        Parked {
            line: format!("{{\"kind\": \"cell\", \"cell\": {cell}}}"),
            trials: 4,
            elapsed_secs: 0.5,
        }
    }

    #[test]
    fn a_wildcard_listener_is_dialled_on_its_familys_loopback() {
        let addr = |s: &str| s.parse::<SocketAddr>().expect("socket address");
        assert_eq!(
            local_dial_addr(addr("0.0.0.0:7677")),
            addr("127.0.0.1:7677")
        );
        assert_eq!(local_dial_addr(addr("[::]:7677")), addr("[::1]:7677"));
        assert_eq!(local_dial_addr(addr("10.1.2.3:9")), addr("10.1.2.3:9"));
    }

    #[test]
    fn renew_extends_only_the_holders_lease() {
        let mut q = one_job(2);
        let t0 = Instant::now();
        let cell = lease(&mut q, 1, t0);
        // Without a heartbeat the lease expires...
        let after = t0 + Duration::from_millis(600);
        // ...but a renewal from the holder moves the deadline.
        q.renew(1, 1, cell, t0 + Duration::from_millis(400));
        q.sweep_expired(after);
        assert_eq!(q.leases_reclaimed, 0, "heartbeat kept the lease alive");
        assert_eq!(q.leases_renewed, 1);
        // A renewal from a *different* connection is ignored.
        q.renew(2, 1, cell, after + Duration::from_secs(10));
        assert_eq!(q.leases_renewed, 1);
        // Silence past the renewed deadline expires it.
        assert_eq!(q.sweep_expired(t0 + Duration::from_secs(2)), [(1, cell)]);
        assert_eq!(q.leases_reclaimed, 1);
        q.check_invariants().expect("invariants");
    }

    #[test]
    fn expiry_is_monotonic_deadline_based() {
        // Deadlines are Instants: sweeping with a `now` *before* the
        // deadline never expires, at/after always does — there is no
        // wall-clock involvement to step.
        let mut q = one_job(1);
        let t0 = Instant::now();
        lease(&mut q, 1, t0);
        q.sweep_expired(t0 + Duration::from_millis(499));
        assert_eq!(q.leases_reclaimed, 0);
        q.sweep_expired(t0 + Duration::from_millis(500));
        assert_eq!(q.leases_reclaimed, 1);
        q.check_invariants().expect("invariants");
    }

    #[test]
    fn duplicate_results_across_reconnects_are_counted_once_each() {
        let mut q = one_job(2);
        let t0 = Instant::now();
        let cell = lease(&mut q, 1, t0);
        assert_eq!(q.ingest(1, cell, parked(cell), true), Ingest::Parked);
        // The same worker resubmits after a reconnect (conn 2), twice.
        assert_eq!(q.ingest(1, cell, parked(cell), true), Ingest::Duplicate);
        assert_eq!(q.ingest(1, cell, parked(cell), true), Ingest::Duplicate);
        assert_eq!(q.results_deduped, 2);
        assert_eq!(q.cells_ingested, 1);
        // Flush, then a late re-run of the written cell arrives: still dup.
        let flushed = q.pop_flushable(1, t0).expect("flushable");
        assert_eq!(flushed.0, cell);
        assert_eq!(q.ingest(1, cell, parked(cell), true), Ingest::Duplicate);
        assert_eq!(q.results_deduped, 3);
        q.check_invariants().expect("invariants");
    }

    #[test]
    fn mismatched_or_out_of_range_results_are_rejected() {
        let mut q = one_job(2);
        let t0 = Instant::now();
        let cell = lease(&mut q, 1, t0);
        assert_eq!(q.ingest(1, cell, parked(cell), false), Ingest::Rejected);
        assert_eq!(q.results_rejected, 1);
        q.check_invariants().expect("rejected cell back to pending");
        // Out-of-range cell id: dropped without poisoning the sets.
        assert_eq!(q.ingest(1, 99, parked(99), true), Ingest::Rejected);
        assert_eq!(q.results_rejected, 2);
        q.check_invariants().expect("invariants");
        // A result for a job the queue never saw is ignored, not rejected.
        assert_eq!(q.ingest(7, 0, parked(0), true), Ingest::Duplicate);
        assert_eq!(q.results_ignored, 1);

        // Both counts reach the daemon's exit summary.
        let dir = std::env::temp_dir().join("stabcon-serve-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let out = dir.join(format!("{}-outcome.jsonl", std::process::id()));
        std::fs::remove_file(jobs_journal_path(&out)).ok();
        let (journal, _) =
            open_journal(&jobs_journal_path(&out), false, Durability::None).expect("journal");
        let mut shared = QShared {
            queue: q,
            stores: BTreeMap::new(),
            journal,
            out: out.clone(),
            durability: Durability::None,
            progress: false,
            workers_seen: 0,
            telemetry_dropped: 0,
            goodbyes: 0,
            held_claims: 0,
        };
        let outcome = shared.outcome(false).expect("outcome");
        assert_eq!(outcome.results_rejected, 2);
        assert_eq!(outcome.results_ignored, 1);
        std::fs::remove_file(jobs_journal_path(&out)).ok();
    }

    #[test]
    fn flush_emits_a_contiguous_prefix_in_order() {
        let mut q = one_job(3);
        let t0 = Instant::now();
        for conn in 1..=3 {
            lease(&mut q, conn, t0);
        }
        let pop = |q: &mut JobQueue| q.pop_flushable(1, t0).map(|(c, _)| c);
        // Results arrive out of order: 2, 0, 1.
        q.ingest(1, 2, parked(2), true);
        assert_eq!(pop(&mut q), None, "cell 0 missing: no flush yet");
        q.ingest(1, 0, parked(0), true);
        assert_eq!(pop(&mut q), Some(0));
        assert_eq!(pop(&mut q), None, "cell 1 missing");
        q.ingest(1, 1, parked(1), true);
        assert_eq!(pop(&mut q), Some(1));
        assert_eq!(pop(&mut q), Some(2));
        assert_eq!(pop(&mut q), None);
        assert_eq!(q.job(1).expect("job 1").state, JobState::Done);
        q.check_invariants().expect("invariants");
    }
}
