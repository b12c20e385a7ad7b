//! The daemon's multi-campaign job queue: one pure state machine over
//! submitted campaigns and their cells, plus the durable journal that
//! makes it crash-safe.
//!
//! [`JobQueue`] has no sockets and no files. Each submitted campaign is a
//! [`Job`] walking the lifecycle
//!
//! ```text
//! Queued → Running → Done
//!    │        │
//!    └────────┴────→ Cancelled        (client asked)
//!    └─────────────→ Failed           (store I/O on activation)
//! ```
//!
//! Admission is FIFO with a per-client quota on live (non-terminal) jobs;
//! activation is FIFO up to `max_active` concurrently running campaigns;
//! cell leases are dealt round-robin across running jobs so shared workers
//! interleave campaigns instead of head-of-line blocking on the oldest
//! one. A job is Running from activation until the flush that writes its
//! last cell makes it Done.
//!
//! Inside a running job every cell is in exactly one place: pending (nobody
//! works on it), leased (to a connection, until a monotonic deadline),
//! parked (ingested, waiting for its turn in canonical order) or written.
//! The queue moves cells between those sets directly: claims lease the
//! lowest pending cell, heartbeats move deadlines, disconnects and expiries
//! return leases to pending, results park (first ingest wins; duplicates
//! and mismatched ids are counted), and flushes pop the contiguous prefix.
//! The daemon-wide counters live on the queue, once. Cancellation from any
//! non-terminal state drops the job's leases; results for a cancelled job
//! are ignored idempotently, and its partial store stays on disk.
//!
//! ## The journal (`stabcon-jobs/1`)
//!
//! Every admission and every lifecycle transition is one appended JSONL
//! line in `<out>.jobs.jsonl`, fsynced per the store's [`Durability`]
//! policy. The journal is append-only and replayed on `--resume`: folding
//! the events reconstructs every job's descriptor and last state, jobs
//! that were running are re-activated against their (torn-tail-repaired)
//! per-campaign stores, and the daemon converges to the same bytes the
//! uncrashed daemon would have written. The journal is one of the
//! crate's append-only logs ([`crate::store`]): the store's one reader
//! replays it and the store's one opener truncates its torn tail.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stabcon_util::jsonl::{get, parse_flat, JsonObj, JsonScalar};

use crate::campaign::CampaignSpec;
use crate::presets::{preset, PRESET_NAMES};
use crate::store::{open_log, scan_log, Durability, Log, StoreWriter};

use super::protocol::{Msg, SpecDescriptor};

/// Jobs-journal schema identifier (line 0 of `<out>.jobs.jsonl`).
pub const JOBS_SCHEMA: &str = "stabcon-jobs/1";

impl SpecDescriptor {
    /// Build the concrete [`CampaignSpec`] this descriptor names: the
    /// preset, with the CLI-shaped overrides applied on top. Both sides of
    /// the wire run this — the fingerprint comparison catches any drift.
    pub fn build(&self) -> Result<CampaignSpec, String> {
        let mut spec = preset(&self.preset).ok_or_else(|| {
            format!(
                "unknown preset '{}' (expected one of {})",
                self.preset,
                PRESET_NAMES.join(", ")
            )
        })?;
        if let Some(t) = self.trials {
            spec.trials = t;
        }
        if let Some(s) = self.seed {
            spec.seed = s;
        }
        if let Some(ns) = &self.ns {
            spec.ns = parse_ns(ns)?;
        }
        if let Some(name) = &self.name {
            spec.name = name.clone();
        }
        Ok(spec)
    }
}

/// Parse the CLI's comma-separated population list (`"64,96"`, hex with
/// `0x` allowed) — the wire keeps it as a string so every side parses it
/// through this one function. A population of 0 is refused here, before
/// any cell is expanded.
pub fn parse_ns(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|tok| {
            let tok = tok.trim();
            let (digits, radix) = match tok.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (tok, 10),
            };
            match usize::from_str_radix(digits, radix) {
                Ok(0) => Err("ns: a population must be positive".to_string()),
                Ok(n) => Ok(n),
                Err(e) => Err(format!("ns: bad number '{tok}': {e}")),
            }
        })
        .collect()
}

/// Per-job store path: `<out>.job-<id>.jsonl`, next to the journal.
pub fn job_store_path(out: &Path, job: u64) -> PathBuf {
    let mut name = out
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".job-{job}.jsonl"));
    out.with_file_name(name)
}

/// Journal path for a queue rooted at `out`: `<out>.jobs.jsonl`.
pub fn jobs_journal_path(out: &Path) -> PathBuf {
    let mut name = out
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".jobs.jsonl");
    out.with_file_name(name)
}

/// One campaign's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and journaled; waiting for an activation slot.
    Queued,
    /// Activated: store open, cells being leased out, results flushed.
    Running,
    /// Every cell flushed to the job's store.
    Done,
    /// Cancelled by a client before completion (partial store kept).
    Cancelled,
    /// Activation failed (store I/O) or the descriptor no longer builds
    /// (preset table drift across a daemon upgrade).
    Failed,
}

impl JobState {
    /// Wire/journal label.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parse a journal/wire label.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "cancelled" => Ok(JobState::Cancelled),
            "failed" => Ok(JobState::Failed),
            other => Err(format!("jobs: unknown state '{other}'")),
        }
    }

    /// Terminal states never transition again.
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// One ingested-but-not-yet-flushed result.
#[derive(Debug, Clone, PartialEq)]
pub struct Parked {
    /// The raw store cell line.
    pub line: String,
    /// Trials the cell ran (timings sidecar).
    pub trials: u64,
    /// Worker-reported wall clock (timings sidecar).
    pub elapsed_secs: f64,
}

/// What [`JobQueue::ingest`] did with a result frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Fresh result, parked for in-order flushing.
    Parked,
    /// The cell was already parked or written, or the job is not running;
    /// frame ignored and counted.
    Duplicate,
    /// The embedded line's cell id disagreed with the frame's — buggy or
    /// hostile worker; record dropped, cell back to pending.
    Rejected,
}

/// Where each cell of an activated job is. Empty until activation.
#[derive(Debug, Default, PartialEq)]
struct Cells {
    /// Cells nobody is working on.
    pending: BTreeSet<u64>,
    /// Leased cells: id → (connection, monotonic deadline).
    leases: BTreeMap<u64, (u64, Instant)>,
    /// Ingested results waiting for their turn in canonical order.
    parked: BTreeMap<u64, Parked>,
    /// Cells already flushed to the store file.
    written: BTreeSet<u64>,
    /// Smallest id that might still need writing (flush cursor).
    cursor: u64,
}

/// One submitted campaign in the queue.
#[derive(Debug)]
pub struct Job {
    /// Queue-assigned id, stable across daemon restarts (journaled).
    pub id: u64,
    /// Submitting client (admission quota is per client).
    pub client: String,
    /// The campaign as submitted: preset + overrides.
    pub descriptor: SpecDescriptor,
    /// Grid fingerprint (verified against the submitter's at admission).
    pub fingerprint: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Total cells in the expanded grid.
    pub cells_total: u64,
    /// The built spec (`None` only for a replayed job whose descriptor no
    /// longer builds — such jobs are [`JobState::Failed`]).
    pub spec: Option<CampaignSpec>,
    /// Per-cell lease/park/flush sets from activation on (kept after, for
    /// the final written count).
    cells: Cells,
    /// Trials ingested so far (the numerator of the status trials/s).
    pub trials_ingested: u64,
    /// Monotonic activation time (the denominator of trials/s).
    pub started: Option<Instant>,
    /// Wall-clock seconds frozen at the terminal transition.
    pub elapsed_final: f64,
    /// Whether activation must re-open an existing store (journal replay
    /// of a job that was already running when the daemon died).
    pub resume_store: bool,
}

impl Job {
    /// Cells already in the job's store (written prefix + parked results).
    pub fn written(&self) -> u64 {
        (self.cells.written.len() + self.cells.parked.len()) as u64
    }

    /// Wall-clock seconds the job has been running (frozen at terminal).
    pub fn elapsed_secs(&self, now: Instant) -> f64 {
        if self.state.terminal() {
            self.elapsed_final
        } else {
            self.started
                .map(|t| now.duration_since(t).as_secs_f64())
                .unwrap_or(0.0)
        }
    }

    /// Move to a terminal state, freezing the elapsed clock.
    fn end(&mut self, state: JobState, now: Instant) {
        self.elapsed_final = self.elapsed_secs(now);
        self.state = state;
    }

    /// A running job whose every cell is written is done.
    fn finish_if_written(&mut self, now: Instant) {
        if self.state == JobState::Running && self.cells.written.len() as u64 == self.cells_total {
            self.end(JobState::Done, now);
        }
    }
}

/// A structured refusal: the wire's [`Msg::Rejected`] payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Machine-readable code (`bad-spec`, `over-quota`, `draining`,
    /// `bad-fingerprint`, `unknown-job`, `terminal-job`).
    pub code: &'static str,
    /// Human-readable detail.
    pub reason: String,
}

impl Rejection {
    fn new(code: &'static str, reason: String) -> Self {
        Self { code, reason }
    }

    /// The wire frame for this refusal.
    pub fn to_msg(&self) -> Msg {
        Msg::Rejected {
            code: self.code.into(),
            reason: self.reason.clone(),
        }
    }
}

/// Admission and scheduling knobs.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Campaigns running concurrently (rest wait in FIFO order).
    pub max_active: usize,
    /// Live (non-terminal) jobs one client may hold.
    pub quota: usize,
    /// How long a cell lease lasts without a heartbeat.
    pub lease: Duration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self {
            max_active: 4,
            quota: 4,
            lease: Duration::from_secs(60),
        }
    }
}

/// Queue summary counts (the wire's [`Msg::StatusReport`] payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
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
}

/// The pure multi-campaign queue state machine. The daemon translates wire
/// frames into these transitions under a lock; property tests drive
/// hostile interleavings against [`JobQueue::check_invariants`] directly.
#[derive(Debug)]
pub struct JobQueue {
    jobs: BTreeMap<u64, Job>,
    /// Queued job ids in admission order.
    fifo: Vec<u64>,
    next_id: u64,
    cfg: QueueConfig,
    /// Whether new submissions are admitted (false once draining toward
    /// shutdown).
    accepting: bool,
    /// SIGTERM drain: no new leases are dealt; in-flight cells come home
    /// (or expire), everything else stays parked for the next `--resume`.
    halted: bool,
    /// Last job id that dealt a lease (round-robin pointer).
    rr_last: u64,
    /// Result frames for unknown/non-running jobs, ignored idempotently.
    pub results_ignored: u64,
    /// Results accepted (parked), over every job.
    pub cells_ingested: u64,
    /// Leases returned to pending (disconnect or expiry).
    pub leases_reclaimed: u64,
    /// Heartbeat extensions honored.
    pub leases_renewed: u64,
    /// Duplicate result frames ignored (first ingest wins).
    pub results_deduped: u64,
    /// Result frames rejected for an id mismatch or an out-of-range cell.
    pub results_rejected: u64,
}

impl JobQueue {
    /// An empty, accepting queue.
    pub fn new(cfg: QueueConfig) -> Self {
        Self {
            jobs: BTreeMap::new(),
            fifo: Vec::new(),
            next_id: 1,
            cfg,
            accepting: true,
            halted: false,
            rr_last: 0,
            results_ignored: 0,
            cells_ingested: 0,
            leases_reclaimed: 0,
            leases_renewed: 0,
            results_deduped: 0,
            results_rejected: 0,
        }
    }

    /// Whether submissions are currently admitted.
    pub fn accepting(&self) -> bool {
        self.accepting && !self.halted
    }

    /// Open or close admission (the refusal while closed is `draining`).
    pub fn set_accepting(&mut self, accepting: bool) {
        self.accepting = accepting;
    }

    /// Whether the queue is halting toward shutdown.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// SIGTERM drain: refuse submissions and stop dealing leases. Results
    /// for cells already in flight are still ingested and flushed; queued
    /// work stays parked in the journal for the next `--resume`.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Look up one job.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All jobs, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Queue summary counts.
    pub fn counts(&self) -> QueueCounts {
        let mut c = QueueCounts::default();
        for job in self.jobs.values() {
            match job.state {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done => c.done += 1,
                JobState::Cancelled => c.cancelled += 1,
                JobState::Failed => c.failed += 1,
            }
        }
        c
    }

    /// Nothing queued and nothing running.
    pub fn idle(&self) -> bool {
        self.jobs.values().all(|j| j.state.terminal())
    }

    fn running(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values().filter(|j| j.state == JobState::Running)
    }

    fn live_count(&self, client: &str) -> usize {
        self.jobs
            .values()
            .filter(|j| j.client == client && !j.state.terminal())
            .count()
    }

    /// Admit one submission: build and expand the descriptor, verify the
    /// client's fingerprint, enforce the per-client quota, and enqueue.
    /// Returns the new job's id and cell count; the caller journals the
    /// admission before acknowledging it.
    pub fn submit(
        &mut self,
        client: &str,
        descriptor: &SpecDescriptor,
        fingerprint_hex: &str,
    ) -> Result<(u64, u64), Rejection> {
        if !self.accepting() {
            return Err(Rejection::new(
                "draining",
                "daemon is draining toward shutdown — not accepting submissions".into(),
            ));
        }
        if self.live_count(client) >= self.cfg.quota {
            return Err(Rejection::new(
                "over-quota",
                format!(
                    "client '{client}' already holds {} live jobs (quota {})",
                    self.live_count(client),
                    self.cfg.quota
                ),
            ));
        }
        let spec = descriptor
            .build()
            .map_err(|e| Rejection::new("bad-spec", e))?;
        let cells = spec.expand().len() as u64;
        if cells == 0 {
            return Err(Rejection::new(
                "bad-spec",
                "campaign expands to zero cells".into(),
            ));
        }
        let fingerprint = spec.fingerprint();
        let theirs = u64::from_str_radix(fingerprint_hex, 16).map_err(|e| {
            Rejection::new("bad-fingerprint", format!("unparsable fingerprint: {e}"))
        })?;
        if theirs != fingerprint {
            return Err(Rejection::new(
                "bad-fingerprint",
                format!(
                    "grid fingerprint {fingerprint_hex} != {fingerprint:016x} — client and \
                     daemon built different campaigns from the same descriptor"
                ),
            ));
        }
        let id = self.next_id;
        self.insert_job(
            id,
            client,
            descriptor.clone(),
            fingerprint,
            cells,
            Some(spec),
        );
        Ok((id, cells))
    }

    /// Insert a job in [`JobState::Queued`] with a fixed id (shared by
    /// admission and journal replay). Advances `next_id` past `id`.
    fn insert_job(
        &mut self,
        id: u64,
        client: &str,
        descriptor: SpecDescriptor,
        fingerprint: u64,
        cells_total: u64,
        spec: Option<CampaignSpec>,
    ) {
        self.next_id = self.next_id.max(id + 1);
        self.jobs.insert(
            id,
            Job {
                id,
                client: client.into(),
                descriptor,
                fingerprint,
                state: JobState::Queued,
                cells_total,
                spec,
                cells: Cells::default(),
                trials_ingested: 0,
                started: None,
                elapsed_final: 0.0,
                resume_store: false,
            },
        );
        self.fifo.push(id);
    }

    /// The next job an activation slot should go to, if any: FIFO head
    /// while fewer than `max_active` jobs are running. The caller opens the
    /// job's store and then calls [`JobQueue::start`] (or
    /// [`JobQueue::fail`] if the open failed).
    pub fn next_activation(&self) -> Option<u64> {
        if self.halted || self.running().count() >= self.cfg.max_active {
            return None;
        }
        self.fifo.first().copied()
    }

    /// Activate a queued job: `done` is the set of cells already in its
    /// (re-opened) store. Flips to Running, or straight to Done when the
    /// store was already complete.
    pub fn start(&mut self, id: u64, done: BTreeSet<u64>, now: Instant) -> Result<(), String> {
        let job = self
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("start: unknown job {id}"))?;
        if job.state != JobState::Queued {
            return Err(format!("start: job {id} is {}", job.state.label()));
        }
        job.cells = Cells {
            pending: (0..job.cells_total).filter(|c| !done.contains(c)).collect(),
            written: done,
            ..Cells::default()
        };
        job.state = JobState::Running;
        job.started = Some(now);
        job.finish_if_written(now);
        self.fifo.retain(|&q| q != id);
        Ok(())
    }

    /// Mark a queued job failed (its store could not be opened).
    pub fn fail(&mut self, id: u64, now: Instant) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if !job.state.terminal() {
                job.end(JobState::Failed, now);
                self.fifo.retain(|&q| q != id);
            }
        }
    }

    /// Cancel a job in any non-terminal state. Leased cells are dropped
    /// (late results will be ignored), the partial store stays on disk.
    pub fn cancel(&mut self, id: u64, now: Instant) -> Result<JobState, Rejection> {
        let job = self
            .jobs
            .get_mut(&id)
            .ok_or_else(|| Rejection::new("unknown-job", format!("no job {id} in the queue")))?;
        if job.state.terminal() {
            return Err(Rejection::new(
                "terminal-job",
                format!("job {id} is already {}", job.state.label()),
            ));
        }
        job.end(JobState::Cancelled, now);
        self.fifo.retain(|&q| q != id);
        Ok(JobState::Cancelled)
    }

    /// Deal a lease to a worker: the lowest pending cell of the first
    /// running job after the last one that dealt a lease (round-robin).
    /// Returns [`Msg::Lease2`] when a cell is free, [`Msg::Wait`] while
    /// work may still appear, [`Msg::Drained`] once the queue is idle and
    /// closed.
    pub fn claim(&mut self, conn: u64, now: Instant) -> Msg {
        if self.halted {
            return Msg::Drained;
        }
        let deadline = now + self.cfg.lease;
        let lease = |(&id, job): (&u64, &mut Job)| {
            if job.state != JobState::Running {
                return None;
            }
            let cell = job.cells.pending.pop_first()?;
            job.cells.leases.insert(cell, (conn, deadline));
            Some((id, cell))
        };
        let leased = self
            .jobs
            .range_mut((Excluded(self.rr_last), Unbounded))
            .find_map(lease)
            .or_else(|| self.jobs.range_mut(..=self.rr_last).find_map(lease));
        if let Some((id, cell)) = leased {
            self.rr_last = id;
            let job = &self.jobs[&id];
            return Msg::Lease2 {
                job: id,
                cell,
                lease_ms: self.cfg.lease.as_millis() as u64,
                spec: job.descriptor.clone(),
                fingerprint: format!("{:016x}", job.fingerprint),
            };
        }
        if self.idle() && !self.accepting {
            Msg::Drained
        } else {
            Msg::Wait {
                retry_ms: (self.cfg.lease.as_millis() as u64 / 4).clamp(50, 1000),
            }
        }
    }

    /// Heartbeat: push a running job's cell lease to `now + lease`, but
    /// only if `conn` still holds it. A renewal for a reclaimed (or never
    /// granted) lease is ignored: the original worker lost it, and its
    /// eventual duplicate result will be deduped instead.
    pub fn renew(&mut self, conn: u64, id: u64, cell: u64, now: Instant) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        match job.cells.leases.get_mut(&cell) {
            Some((owner, deadline)) if *owner == conn && job.state == JobState::Running => {
                *deadline = now + self.cfg.lease;
                self.leases_renewed += 1;
            }
            _ => {}
        }
    }

    /// Ingest one result frame for one job. `id_ok` is whether the
    /// embedded store line's `cell` field matches `cell` (the caller
    /// parses the line; the queue stays serialization-free). Results for
    /// unknown or non-running jobs are ignored idempotently (a cancelled
    /// job's workers limp home late; that is not an error).
    pub fn ingest(&mut self, id: u64, cell: u64, parked: Parked, id_ok: bool) -> Ingest {
        let Some(job) = self
            .jobs
            .get_mut(&id)
            .filter(|j| j.state == JobState::Running)
        else {
            self.results_ignored += 1;
            return Ingest::Duplicate;
        };
        let (c, total) = (&mut job.cells, job.cells_total);
        c.leases.remove(&cell);
        c.pending.remove(&cell);
        if c.written.contains(&cell) || c.parked.contains_key(&cell) {
            self.results_deduped += 1;
            return Ingest::Duplicate;
        }
        if !id_ok || cell >= total {
            // Buggy or hostile worker: drop the record. An in-range cell
            // goes back to pending so a healthy worker re-runs it.
            if cell < total {
                c.pending.insert(cell);
            }
            self.results_rejected += 1;
            return Ingest::Rejected;
        }
        job.trials_ingested += parked.trials;
        c.parked.insert(cell, parked);
        self.cells_ingested += 1;
        Ingest::Parked
    }

    /// Pop the next parked result of a running job that extends its
    /// store's contiguous prefix, marking it written; `None` means the
    /// prefix can't grow yet. The pop that writes the last cell flips the
    /// job to [`JobState::Done`].
    pub fn pop_flushable(&mut self, id: u64, now: Instant) -> Option<(u64, Parked)> {
        let job = self
            .jobs
            .get_mut(&id)
            .filter(|j| j.state == JobState::Running)?;
        let c = &mut job.cells;
        while c.written.contains(&c.cursor) {
            c.cursor += 1;
        }
        let cell = c.cursor;
        let parked = c.parked.remove(&cell)?;
        c.written.insert(cell);
        job.finish_if_written(now);
        Some((cell, parked))
    }

    /// Return every lease `conn` holds, in every running job (disconnect).
    pub fn release_conn(&mut self, conn: u64) {
        self.reclaim(|owner, _| owner == conn);
    }

    /// Return every lease whose monotonic deadline has passed to its job's
    /// pending set. Heartbeats ([`JobQueue::renew`]) move deadlines, so
    /// only silent workers expire. Returns the reclaimed `(job, cell)`
    /// pairs so the daemon can log each expiry.
    pub fn sweep_expired(&mut self, now: Instant) -> Vec<(u64, u64)> {
        self.reclaim(|_, deadline| now >= deadline)
    }

    /// Return every lease of a running job that `lost(conn, deadline)`
    /// picks to its pending set.
    fn reclaim(&mut self, lost: impl Fn(u64, Instant) -> bool) -> Vec<(u64, u64)> {
        let mut reclaimed = Vec::new();
        for job in self.jobs.values_mut() {
            if job.state != JobState::Running {
                continue;
            }
            let c = &mut job.cells;
            c.leases.retain(|&cell, &mut (conn, deadline)| {
                let keep = !lost(conn, deadline);
                if !keep {
                    c.pending.insert(cell);
                    reclaimed.push((job.id, cell));
                }
                keep
            });
        }
        self.leases_reclaimed += reclaimed.len() as u64;
        reclaimed
    }

    /// Every in-flight lease has resolved (come home or expired) — the
    /// SIGTERM drain is complete once this holds while halted.
    pub fn leases_settled(&self) -> bool {
        self.running().all(|j| j.cells.leases.is_empty())
    }

    /// Rebuild the queue from journal events (crash recovery). Jobs whose
    /// last journaled state was queued or running go back into the FIFO
    /// (in admission order, ahead of nothing — the queue is empty);
    /// previously-running jobs are flagged to re-open their stores with
    /// resume. Terminal jobs are kept as records for the status plane.
    pub fn replay(&mut self, events: &[JournalEvent]) -> Result<(), String> {
        if !self.jobs.is_empty() {
            return Err("replay into a non-empty queue".into());
        }
        for event in events {
            match event {
                JournalEvent::Submit {
                    job,
                    client,
                    spec,
                    fingerprint,
                    cells,
                } => {
                    if self.jobs.contains_key(job) {
                        return Err(format!("journal: duplicate submit for job {job}"));
                    }
                    // A descriptor that no longer builds (preset drift
                    // across an upgrade) becomes a Failed record, loudly
                    // visible in status — never a silently dropped job.
                    let built = spec.build().ok();
                    self.insert_job(*job, client, spec.clone(), *fingerprint, *cells, built);
                }
                JournalEvent::State { job, state } => {
                    let j = self
                        .jobs
                        .get_mut(job)
                        .ok_or_else(|| format!("journal: state event for unknown job {job}"))?;
                    match state {
                        // Fold to the last journaled lifecycle point. A
                        // running job has no live cell sets here; it
                        // re-queues flagged for store resume.
                        JobState::Running => {
                            j.state = JobState::Queued;
                            j.resume_store = true;
                        }
                        JobState::Queued => j.state = JobState::Queued,
                        terminal => {
                            j.state = *terminal;
                            self.fifo.retain(|&q| q != *job);
                        }
                    }
                }
            }
        }
        // Jobs that replayed to Failed-on-build surface as Failed now.
        let broken: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.spec.is_none() && !j.state.terminal())
            .map(|j| j.id)
            .collect();
        for id in broken {
            self.fail(id, Instant::now());
        }
        Ok(())
    }

    /// Structural invariants, for property tests:
    /// - the FIFO holds exactly the queued jobs, each once;
    /// - at most `max_active` jobs are running;
    /// - every cell of a running job is in exactly one of {pending,
    ///   leased, parked, written}, no set holds an out-of-range cell, the
    ///   flush cursor never passes an unwritten cell, and the job is never
    ///   silently complete;
    /// - a job done in this run is fully written; queued jobs have no
    ///   cell state yet.
    pub fn check_invariants(&self) -> Result<(), String> {
        let queued: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.id)
            .collect();
        let mut fifo_sorted = self.fifo.clone();
        fifo_sorted.sort_unstable();
        let mut fifo_dedup = fifo_sorted.clone();
        fifo_dedup.dedup();
        if fifo_dedup.len() != self.fifo.len() {
            return Err("fifo holds a duplicate id".into());
        }
        if fifo_sorted != queued {
            return Err(format!(
                "fifo {:?} disagrees with queued jobs {queued:?}",
                self.fifo
            ));
        }
        let running = self.running().count();
        if running > self.cfg.max_active {
            return Err(format!(
                "{running} running jobs exceeds max_active {}",
                self.cfg.max_active
            ));
        }
        for job in self.jobs.values() {
            let (c, total) = (&job.cells, job.cells_total);
            match job.state {
                JobState::Queued if *c != Cells::default() => {
                    return Err(format!("queued job {} has cell state", job.id));
                }
                JobState::Running => {
                    for id in 0..total {
                        let places = [
                            c.pending.contains(&id),
                            c.leases.contains_key(&id),
                            c.parked.contains_key(&id),
                            c.written.contains(&id),
                        ];
                        let count = places.iter().filter(|&&p| p).count();
                        if count != 1 {
                            return Err(format!(
                                "job {}: cell {id} is in {count} sets (pending={}, \
                                 leased={}, parked={}, written={})",
                                job.id, places[0], places[1], places[2], places[3]
                            ));
                        }
                    }
                    let held = c.pending.len() + c.leases.len() + c.parked.len() + c.written.len();
                    if held as u64 != total {
                        return Err(format!("job {}: an out-of-range cell is held", job.id));
                    }
                    if let Some(id) = (0..c.cursor.min(total)).find(|id| !c.written.contains(id)) {
                        return Err(format!(
                            "job {}: cursor {} passed unwritten cell {id}",
                            job.id, c.cursor
                        ));
                    }
                    if c.written.len() as u64 == total {
                        return Err(format!("job {} complete but not marked done", job.id));
                    }
                }
                // A done record restored by journal replay never started
                // here; a live completion is always fully written.
                JobState::Done if job.started.is_some() && c.written.len() as u64 != total => {
                    return Err(format!("done job {} is not fully written", job.id));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// One journaled queue event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A submission was admitted.
    Submit {
        /// Queue-assigned job id.
        job: u64,
        /// Submitting client.
        client: String,
        /// The campaign descriptor as submitted.
        spec: SpecDescriptor,
        /// Verified grid fingerprint.
        fingerprint: u64,
        /// Cells in the expanded grid (recorded so replay can report
        /// terminal jobs without re-expanding them).
        cells: u64,
    },
    /// A job changed lifecycle state.
    State {
        /// The job.
        job: u64,
        /// Its new state.
        state: JobState,
    },
}

impl JournalEvent {
    /// Render as one journal line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            JournalEvent::Submit {
                job,
                client,
                spec,
                fingerprint,
                cells,
            } => spec
                .encode_into(
                    JsonObj::new()
                        .str_field("kind", "submit")
                        .u64_field("job", *job)
                        .str_field("client", client),
                )
                .str_field("fingerprint", &format!("{fingerprint:016x}"))
                .u64_field("cells", *cells)
                .finish(),
            JournalEvent::State { job, state } => JsonObj::new()
                .str_field("kind", "state")
                .u64_field("job", *job)
                .str_field("state", state.label())
                .finish(),
        }
    }

    /// Parse one journal line.
    pub fn decode(line: &str) -> Result<Self, String> {
        let obj = parse_flat(line).map_err(|e| format!("jobs: bad journal line: {e}"))?;
        let kind = get(&obj, "kind")
            .and_then(JsonScalar::as_str)
            .ok_or("jobs: journal line without 'kind'")?;
        let u64_f = |key: &str| -> Result<u64, String> {
            get(&obj, key)
                .and_then(JsonScalar::as_u64)
                .ok_or_else(|| format!("jobs: {kind} event missing integer field '{key}'"))
        };
        let str_f = |key: &str| -> Result<&str, String> {
            get(&obj, key)
                .and_then(JsonScalar::as_str)
                .ok_or_else(|| format!("jobs: {kind} event missing string field '{key}'"))
        };
        match kind {
            "submit" => Ok(JournalEvent::Submit {
                job: u64_f("job")?,
                client: str_f("client")?.to_string(),
                spec: SpecDescriptor::decode_from(&obj, kind)?,
                fingerprint: u64::from_str_radix(str_f("fingerprint")?, 16)
                    .map_err(|e| format!("jobs: bad fingerprint: {e}"))?,
                cells: u64_f("cells")?,
            }),
            "state" => Ok(JournalEvent::State {
                job: u64_f("job")?,
                state: JobState::parse(str_f("state")?)?,
            }),
            other => Err(format!("jobs: unknown journal event kind '{other}'")),
        }
    }
}

/// The journal header line.
fn journal_header() -> String {
    JsonObj::new()
        .str_field("kind", "jobs")
        .str_field("schema", JOBS_SCHEMA)
        .finish()
}

/// Read a journal through [`scan_log`], stopping at the first torn or
/// unparsable line.
///
/// Returns the parsed events and the byte length of the valid prefix.
pub fn load_journal(path: &Path) -> Result<(Vec<JournalEvent>, u64), String> {
    let scan = scan_log(path, Some(JOBS_SCHEMA), |_| Ok(()), JournalEvent::decode)?;
    Ok((scan.records, scan.valid_len))
}

/// Open (or create) the jobs journal for appending.
///
/// The one log open path (`store::open_log`): fresh opens refuse an
/// existing journal; with `resume` any torn tail is truncated away and
/// synced before the first append, and the surviving events are returned
/// for [`JobQueue::replay`].
pub fn open_journal(
    path: &Path,
    resume: bool,
    durability: Durability,
) -> Result<(StoreWriter, Vec<JournalEvent>), String> {
    let mut events = Vec::new();
    let log = Log::Durable("jobs journal", durability);
    let writer = open_log(path, &journal_header(), log, resume, || {
        let (loaded, valid_len) = load_journal(path)?;
        events = loaded;
        Ok(valid_len)
    })?;
    Ok((writer, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(preset: &str, name: &str) -> SpecDescriptor {
        SpecDescriptor {
            preset: preset.into(),
            name: Some(name.into()),
            trials: Some(2),
            seed: Some(0xBEEF),
            ns: Some("64".into()),
        }
    }

    fn fp_of(d: &SpecDescriptor) -> String {
        format!("{:016x}", d.build().expect("build").fingerprint())
    }

    fn queue(max_active: usize, quota: usize) -> JobQueue {
        JobQueue::new(QueueConfig {
            max_active,
            quota,
            lease: Duration::from_millis(500),
        })
    }

    fn parked(cell: u64) -> Parked {
        Parked {
            line: format!("{{\"kind\": \"cell\", \"cell\": {cell}}}"),
            trials: 2,
            elapsed_secs: 0.1,
        }
    }

    #[test]
    fn descriptor_builds_preset_with_overrides() {
        let d = desc("smoke", "it");
        let spec = d.build().expect("build");
        assert_eq!(spec.name, "it");
        assert_eq!(spec.trials, 2);
        assert_eq!(spec.seed, 0xBEEF);
        assert_eq!(spec.ns, vec![64]);
        assert!(desc("warp", "x").build().unwrap_err().contains("preset"));
        // A resized preset builds, and drops the starts that do not exist
        // at the new n: at n = 64 the drift imbalance 4·√n = n/2 would
        // leave no minority bin. The cells that remain run.
        let drift = desc("drift", "small").build().expect("build");
        let cells = drift.expand();
        assert_eq!(cells.len(), 2, "Δ₀ = 8 and 16 only");
        let pool = stabcon_par::ThreadPool::new(2);
        for cell in &cells {
            assert_eq!(crate::run_cell(&pool, cell, 1).trials(), 2);
        }
        assert!(SpecDescriptor {
            ns: Some("64,oops".into()),
            ..desc("smoke", "x")
        }
        .build()
        .unwrap_err()
        .contains("oops"));
    }

    #[test]
    fn ns_parses_cli_shapes() {
        assert_eq!(parse_ns("64,96"), Ok(vec![64, 96]));
        assert_eq!(parse_ns(" 64 , 0x60 "), Ok(vec![64, 96]));
        assert!(parse_ns("").is_err());
        assert!(parse_ns("64,0").unwrap_err().contains("positive"));
    }

    #[test]
    fn admission_enforces_quota_and_fingerprint() {
        let mut q = queue(2, 2);
        let d = desc("smoke", "a");
        let (id, cells) = q.submit("lab", &d, &fp_of(&d)).expect("admit");
        assert_eq!(id, 1);
        assert!(cells > 0);
        // Wrong fingerprint: structured refusal, queue unpoisoned.
        let err = q.submit("lab", &d, "0000000000000bad").unwrap_err();
        assert_eq!(err.code, "bad-fingerprint");
        // Bad preset: bad-spec.
        let err = q
            .submit("lab", &desc("warp", "x"), "0000000000000000")
            .unwrap_err();
        assert_eq!(err.code, "bad-spec");
        // Quota counts live jobs per client.
        let d2 = desc("smoke", "b");
        q.submit("lab", &d2, &fp_of(&d2)).expect("second");
        let d3 = desc("smoke", "c");
        let err = q.submit("lab", &d3, &fp_of(&d3)).unwrap_err();
        assert_eq!(err.code, "over-quota");
        // A different client still gets in.
        q.submit("other", &d3, &fp_of(&d3)).expect("other client");
        // A queue closed to admission refuses everything.
        q.set_accepting(false);
        let err = q.submit("fresh", &d3, &fp_of(&d3)).unwrap_err();
        assert_eq!(err.code, "draining");
        q.check_invariants().expect("invariants");
    }

    #[test]
    fn fifo_activation_up_to_max_active() {
        let mut q = queue(1, 8);
        let now = Instant::now();
        for name in ["a", "b"] {
            let d = desc("smoke", name);
            q.submit("lab", &d, &fp_of(&d)).expect("admit");
        }
        assert_eq!(q.next_activation(), Some(1));
        q.start(1, BTreeSet::new(), now).expect("start");
        // Slot taken: job 2 waits.
        assert_eq!(q.next_activation(), None);
        assert_eq!(q.job(2).unwrap().state, JobState::Queued);
        // Finish job 1 by ingesting every cell.
        let total = q.job(1).unwrap().cells_total;
        for _ in 0..total {
            let Msg::Lease2 { job, cell: c, .. } = q.claim(7, now) else {
                panic!("expected lease")
            };
            assert_eq!(job, 1);
            assert_eq!(q.ingest(job, c, parked(c), true), Ingest::Parked);
            while q.pop_flushable(job, now).is_some() {}
        }
        assert_eq!(q.job(1).unwrap().state, JobState::Done);
        assert_eq!(q.next_activation(), Some(2));
        q.check_invariants().expect("invariants");
    }

    #[test]
    fn leases_interleave_across_running_jobs() {
        let mut q = queue(2, 8);
        let now = Instant::now();
        for name in ["a", "b"] {
            let d = desc("smoke", name);
            q.submit("lab", &d, &fp_of(&d)).expect("admit");
        }
        q.start(1, BTreeSet::new(), now).expect("start 1");
        q.start(2, BTreeSet::new(), now).expect("start 2");
        // Round-robin: consecutive claims alternate jobs.
        let Msg::Lease2 { job: j1, .. } = q.claim(7, now) else {
            panic!("lease")
        };
        let Msg::Lease2 { job: j2, .. } = q.claim(7, now) else {
            panic!("lease")
        };
        assert_ne!(j1, j2, "shared worker interleaves campaigns");
        q.check_invariants().expect("invariants");

        // Three jobs, the middle one done at activation (its store was
        // complete): the rotation skips it, so the claim after job 1's
        // lease goes to job 3, and the next wraps back to job 1.
        let mut q = queue(3, 8);
        for name in ["a", "b", "c"] {
            let d = desc("smoke", name);
            q.submit("lab", &d, &fp_of(&d)).expect("admit");
        }
        let total = q.job(2).unwrap().cells_total;
        q.start(1, BTreeSet::new(), now).expect("start 1");
        q.start(2, (0..total).collect(), now).expect("start 2");
        q.start(3, BTreeSet::new(), now).expect("start 3");
        assert_eq!(q.job(2).unwrap().state, JobState::Done);
        let dealt: Vec<u64> = (0..3)
            .map(|_| match q.claim(7, now) {
                Msg::Lease2 { job, .. } => job,
                other => panic!("lease, got {other:?}"),
            })
            .collect();
        assert_eq!(
            dealt,
            [1, 3, 1],
            "a done job is skipped, then the rotation wraps"
        );
        q.check_invariants().expect("invariants");
    }

    #[test]
    fn cancel_drops_leases_and_ignores_late_results() {
        let mut q = queue(2, 8);
        let now = Instant::now();
        let d = desc("smoke", "a");
        q.submit("lab", &d, &fp_of(&d)).expect("admit");
        q.start(1, BTreeSet::new(), now).expect("start");
        let Msg::Lease2 { job, cell, .. } = q.claim(7, now) else {
            panic!("lease")
        };
        assert_eq!(q.cancel(1, now), Ok(JobState::Cancelled));
        // The in-flight worker ships its result anyway: ignored, counted.
        assert_eq!(q.ingest(job, cell, parked(cell), true), Ingest::Duplicate);
        assert_eq!(q.results_ignored, 1);
        // Cancel again: terminal-job.
        assert_eq!(q.cancel(1, now).unwrap_err().code, "terminal-job");
        // Unknown job: unknown-job.
        assert_eq!(q.cancel(99, now).unwrap_err().code, "unknown-job");
        q.check_invariants().expect("invariants");
    }

    #[test]
    fn journal_events_round_trip() {
        let events = [
            JournalEvent::Submit {
                job: 3,
                client: "lab \"7\"".into(),
                spec: desc("smoke", "nasty \n name"),
                fingerprint: 0xC0FFEE,
                cells: 12,
            },
            JournalEvent::Submit {
                job: 4,
                client: "minimal".into(),
                spec: SpecDescriptor {
                    preset: "smoke".into(),
                    ..SpecDescriptor::default()
                },
                fingerprint: 1,
                cells: 1,
            },
            JournalEvent::State {
                job: 3,
                state: JobState::Running,
            },
            JournalEvent::State {
                job: 3,
                state: JobState::Cancelled,
            },
        ];
        for event in &events {
            let line = event.to_line();
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(&JournalEvent::decode(&line).expect("decode"), event);
        }
        assert!(JournalEvent::decode("{\"kind\": \"warp\"}").is_err());
        assert!(JournalEvent::decode("not json").is_err());
    }

    #[test]
    fn journal_replay_reconstructs_the_queue() {
        let d_a = desc("smoke", "a");
        let d_b = desc("smoke", "b");
        let d_c = desc("smoke", "c");
        let fp = |d: &SpecDescriptor| d.build().unwrap().fingerprint();
        let events = vec![
            JournalEvent::Submit {
                job: 1,
                client: "lab".into(),
                spec: d_a.clone(),
                fingerprint: fp(&d_a),
                cells: 2,
            },
            JournalEvent::Submit {
                job: 2,
                client: "lab".into(),
                spec: d_b.clone(),
                fingerprint: fp(&d_b),
                cells: 2,
            },
            JournalEvent::Submit {
                job: 3,
                client: "lab".into(),
                spec: d_c.clone(),
                fingerprint: fp(&d_c),
                cells: 2,
            },
            // Job 1 ran and finished; job 2 was mid-run at the crash.
            JournalEvent::State {
                job: 1,
                state: JobState::Running,
            },
            JournalEvent::State {
                job: 1,
                state: JobState::Done,
            },
            JournalEvent::State {
                job: 2,
                state: JobState::Running,
            },
        ];
        let mut q = queue(2, 8);
        q.replay(&events).expect("replay");
        assert_eq!(q.job(1).unwrap().state, JobState::Done);
        assert_eq!(q.job(2).unwrap().state, JobState::Queued);
        assert!(
            q.job(2).unwrap().resume_store,
            "mid-run job re-opens its store"
        );
        assert_eq!(q.job(3).unwrap().state, JobState::Queued);
        assert!(!q.job(3).unwrap().resume_store);
        // Admission order survives: job 2 reactivates before job 3.
        assert_eq!(q.next_activation(), Some(2));
        // Fresh submissions pick up past the highest journaled id.
        let (id, _) = q
            .submit("lab", &d_a, &format!("{:016x}", fp(&d_a)))
            .expect("admit");
        assert_eq!(id, 4);
        q.check_invariants().expect("invariants");
    }

    #[test]
    fn journal_open_repairs_torn_tails_and_refuses_fresh_overwrite() {
        let dir = std::env::temp_dir().join("stabcon-jobs-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("{}-journal.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();

        let event = JournalEvent::State {
            job: 1,
            state: JobState::Running,
        };
        {
            let (mut w, events) = open_journal(&path, false, Durability::Cell).expect("fresh open");
            assert!(events.is_empty());
            w.append(&event.to_line()).expect("append");
            w.finish().expect("finish");
        }
        // A second fresh open must refuse.
        assert!(open_journal(&path, false, Durability::None)
            .unwrap_err()
            .contains("resume"));
        // Tear the tail mid-record; resume repairs and replays the prefix.
        let clean = std::fs::read(&path).expect("read");
        let mut torn = clean.clone();
        torn.extend_from_slice(b"{\"kind\": \"sta");
        std::fs::write(&path, &torn).expect("tear");
        let (mut w, events) = open_journal(&path, true, Durability::Cell).expect("resume");
        assert_eq!(events, vec![event.clone()]);
        assert_eq!(
            std::fs::read(&path).expect("read"),
            clean,
            "torn tail truncated on open"
        );
        // Appending after repair lands on a clean boundary.
        w.append(&event.to_line()).expect("append");
        w.finish().expect("finish");
        let (events, _) = load_journal(&path).expect("load");
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn job_and_journal_paths_derive_from_out() {
        let out = PathBuf::from("/tmp/q/campaigns.jsonl");
        assert_eq!(
            job_store_path(&out, 7),
            PathBuf::from("/tmp/q/campaigns.jsonl.job-7.jsonl")
        );
        assert_eq!(
            jobs_journal_path(&out),
            PathBuf::from("/tmp/q/campaigns.jsonl.jobs.jsonl")
        );
    }
}
