//! Campaign telemetry: live progress lines, per-cell phase profiles, the
//! JSONL telemetry sink, and the per-cell timings sidecar.
//!
//! Everything here is **observation-only**: the campaign store is
//! byte-identical with telemetry on or off, at any thread count (pinned by
//! `tests/telemetry_props.rs`). The flow:
//!
//! * [`CampaignTelemetry`] wraps a shared [`MetricRegistry`] (one slot per
//!   worker) for one campaign invocation. Creating it flips the global
//!   `stabcon-obs` enable flag, which arms the phase timers inside the
//!   dense kernel, the runner, and the message engine.
//! * [`crate::cell::CellStream`] workers count each chunk's trials,
//!   durations and network totals into a delta, publish it to their slot,
//!   and ship it with the chunk; the in-order merger calls
//!   [`CampaignTelemetry::on_chunk_merged`], which adds the delta to the
//!   cell's profile and throttles periodic snapshot records to the sink and
//!   progress lines to stderr. Cells overlap on the cursor, so the registry
//!   is never reset mid-campaign; a cell's profile is the sum of its own
//!   chunks' deltas.
//! * Each completed cell appends one `cell_profile` record (phase nanos,
//!   net counters, trial-duration quantiles) and one timings sidecar line
//!   (`elapsed_secs`/`trials_per_sec` — kept *out* of the fingerprinted
//!   store; `stabcon campaign report --timings` joins them back by cell id).
//!
//! ## Telemetry JSONL schema (`stabcon-telemetry/1`)
//!
//! Line 1 is a header: `schema`, `campaign`, `threads`, `cells`,
//! `trials_planned`. Every further line is flat JSON with a `record` field:
//!
//! * `record = "snapshot"` — periodic, at most ~2/s: `cell` (the oldest
//!   unfinished cell) with its `trials_done`, `trials_total`,
//!   `elapsed_secs` and `trials_per_sec`; `chunks_issued`, `chunks_merged`
//!   and `cursor_lag` over the whole cursor; `eta_secs`; and `workers`,
//!   `worker_trials_min`, `worker_trials_max` over the invocation so far.
//! * `record = "cell_profile"` — one per completed cell: `cell`, `trials`,
//!   `elapsed_secs`, `trials_per_sec`, `rounds`, one `phase_<name>_nanos`
//!   per [`stabcon_obs::Phase`], the `net_*` counters, the in-flight peak
//!   gauge, and `trial_p50_nanos`/`trial_p99_nanos` (power-of-2-bucket
//!   quantile lower bounds).
//!
//! [`check_log`] validates a sink against this schema, or a timings
//! sidecar against its own, in one pass (the `stabcon telemetry check`
//! subcommand CI runs on the smoke campaign).
//!
//! The sink and the timings sidecar are append-only logs of
//! [`crate::store`]'s one format: written and repaired through its one
//! opener, read through its one reader. Both are advisory, so they never
//! `fsync`, and a fresh run replaces a stale one.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use stabcon_obs::{self as obs, Counter, Gauge, Hist, MetricRegistry, Phase, Snapshot, WorkerSnap};
use stabcon_util::jsonl::{get, parse_flat, FlatObject, JsonObj, JsonScalar};
use stabcon_util::table::Table;

use crate::cell::CellSpec;
use crate::store::{open_log, scan_log, Log, LogScan, StoreWriter};

/// Version tag of the telemetry sink (line 1 of every telemetry file).
pub const TELEMETRY_SCHEMA: &str = "stabcon-telemetry/1";

/// Version tag of the timings sidecar.
pub const TIMINGS_SCHEMA: &str = "stabcon-timings/1";

/// Minimum seconds between periodic snapshot emissions.
const EMIT_INTERVAL_SECS: f64 = 0.5;

/// The timings sidecar path for a store: `<store>.timings.jsonl`.
/// A separate file keeps wall-clock data out of the byte-identical,
/// fingerprinted store.
pub fn timings_path(store: &Path) -> PathBuf {
    let mut os = store.as_os_str().to_owned();
    os.push(".timings.jsonl");
    PathBuf::from(os)
}

/// The telemetry sink a `stabcon serve` daemon keeps next to each job
/// store: `<store>.telemetry.jsonl`, filled with the records its workers
/// ship.
pub fn sink_path(store: &Path) -> PathBuf {
    let mut os = store.as_os_str().to_owned();
    os.push(".telemetry.jsonl");
    PathBuf::from(os)
}

/// One completed cell's wall-clock/phase profile (also serialized as the
/// sink's `cell_profile` record).
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// Cell id.
    pub cell: u64,
    /// Trials the cell ran.
    pub trials: u64,
    /// Wall-clock seconds for the cell.
    pub elapsed_secs: f64,
    /// `trials / elapsed_secs`.
    pub trials_per_sec: f64,
    /// Simulation rounds executed across all trials.
    pub rounds: u64,
    /// Accumulated nanoseconds per phase, indexed by `Phase as usize`.
    pub phase_nanos: [u64; obs::PHASE_COUNT],
    /// Lower bound of the bucket holding the median trial duration.
    pub trial_p50_nanos: u64,
    /// Lower bound of the bucket holding the p99 trial duration.
    pub trial_p99_nanos: u64,
}

/// Approximate quantile from power-of-2 buckets: the lower bound of the
/// bucket containing the `q`-quantile sample (0 when empty).
fn hist_quantile(buckets: &[u64; obs::HIST_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (b, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return obs::bucket_low(b);
        }
    }
    obs::bucket_low(obs::HIST_BUCKETS - 1)
}

fn fmt_eta(secs: f64) -> String {
    if !secs.is_finite() {
        return "—".into();
    }
    let s = secs.max(0.0) as u64;
    if s >= 3600 {
        format!("{}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
    } else {
        format!("{}:{:02}", s / 60, s % 60)
    }
}

/// Where a [`CampaignTelemetry`] sends its sink lines (no trailing newline):
/// a telemetry sink file, or the fabric worker's connection to `stabcon
/// serve`.
pub type LineSink = Box<dyn FnMut(&str) + Send>;

/// Line 1 of a telemetry sink.
pub(crate) fn telemetry_header(
    campaign: &str,
    threads: u64,
    cells: u64,
    trials_planned: u64,
) -> String {
    JsonObj::new()
        .str_field("schema", TELEMETRY_SCHEMA)
        .str_field("campaign", campaign)
        .u64_field("threads", threads)
        .u64_field("cells", cells)
        .u64_field("trials_planned", trials_planned)
        .finish()
}

/// Telemetry state for one campaign invocation. Construct with
/// [`CampaignTelemetry::create`] (arms the global instrumentation flag),
/// drive with `on_chunk_merged`/`end_cell`, and consume with
/// [`CampaignTelemetry::finish`] (disarms the flag, returns the profiles).
pub struct CampaignTelemetry {
    registry: Arc<MetricRegistry>,
    snap: Snapshot,
    sink: Option<LineSink>,
    progress: bool,
    campaign_started: Instant,
    cells_total: u64,
    trials_planned: u64,
    /// Trials merged this invocation, over every cell.
    trials_merged: u64,
    /// The merged chunks' deltas of the cell being merged.
    cell: WorkerSnap,
    last_emit: Instant,
    profiles: Vec<CellProfile>,
}

impl CampaignTelemetry {
    /// Arm telemetry for a campaign invocation: `workers` registry slots,
    /// progress lines to stderr when `progress`, and (optionally) a JSONL
    /// sink at `sink_path` (replaced — snapshots describe this run, not
    /// the store's history). Flips the global `stabcon-obs` flag on.
    pub fn create(
        campaign: &str,
        workers: usize,
        cells_total: u64,
        trials_planned: u64,
        progress: bool,
        sink_path: Option<&Path>,
    ) -> Result<Self, String> {
        let sink: Option<LineSink> = match sink_path {
            Some(p) => {
                let header =
                    telemetry_header(campaign, workers as u64, cells_total, trials_planned);
                let mut sink = open_sink(p, &header, false)?;
                Some(Box::new(move |line| {
                    let _ = sink.append(line);
                }))
            }
            None => None,
        };
        Ok(Self::armed(
            workers,
            cells_total,
            trials_planned,
            progress,
            sink,
        ))
    }

    /// [`CampaignTelemetry::create`] with an arbitrary line sink instead
    /// of a file path, which receives the records only: the header belongs
    /// to whatever log the lines land in, so `campaign` goes unused. The
    /// fabric worker streams its records over the connection to `stabcon
    /// serve`, which files them under the job sink's own header.
    pub fn create_with_sink(
        _campaign: &str,
        workers: usize,
        cells_total: u64,
        trials_planned: u64,
        progress: bool,
        sink: Option<LineSink>,
    ) -> Result<Self, String> {
        Ok(Self::armed(
            workers,
            cells_total,
            trials_planned,
            progress,
            sink,
        ))
    }

    fn armed(
        workers: usize,
        cells_total: u64,
        trials_planned: u64,
        progress: bool,
        sink: Option<LineSink>,
    ) -> Self {
        obs::set_enabled(true);
        let now = Instant::now();
        Self {
            registry: Arc::new(MetricRegistry::new(workers)),
            snap: Snapshot::new(workers),
            sink,
            progress,
            campaign_started: now,
            cells_total,
            trials_planned,
            trials_merged: 0,
            cell: WorkerSnap::zero(),
            last_emit: now,
            profiles: Vec::new(),
        }
    }

    /// The shared registry (workers clone this and record into their slot).
    pub fn registry(&self) -> Arc<MetricRegistry> {
        Arc::clone(&self.registry)
    }

    /// Zero the registry before driving one cell on its own, for a caller
    /// that reads the registry cell by cell. The campaign executor never
    /// calls this: its cells overlap, and a cell's profile is the sum of
    /// its own chunks' deltas, not a registry read.
    pub fn begin_cell(&mut self, _cell: &CellSpec) {
        self.registry.reset();
    }

    /// Called by the executor after each in-order merge of one of `cell`'s
    /// chunks, whose work started at `cell_started`: adds the chunk's
    /// `delta` to the cell's profile, and throttles a snapshot record to
    /// the sink and a progress line to stderr. The chunk counts run over
    /// the whole cursor, and `cell` is the oldest unfinished cell.
    pub fn on_chunk_merged(
        &mut self,
        cell: &CellSpec,
        cell_started: Instant,
        delta: &WorkerSnap,
        chunks_issued: u64,
        chunks_merged: u64,
    ) {
        self.cell.absorb(delta);
        self.trials_merged += delta.counter(Counter::Trials);
        let lag = chunks_issued.saturating_sub(chunks_merged);
        self.registry.handle(0).gauge_set(Gauge::CursorLag, lag);
        if self.last_emit.elapsed().as_secs_f64() < EMIT_INTERVAL_SECS {
            return;
        }
        self.last_emit = Instant::now();
        self.registry.snapshot_into(&mut self.snap);

        let trials_done = self.cell.counter(Counter::Trials);
        let cell_elapsed = cell_started.elapsed().as_secs_f64();
        let cell_rate = trials_done as f64 / cell_elapsed.max(1e-9);
        let overall_rate =
            self.trials_merged as f64 / self.campaign_started.elapsed().as_secs_f64().max(1e-9);
        let eta_secs = self.trials_planned.saturating_sub(self.trials_merged) as f64 / overall_rate;

        let per_worker: Vec<u64> = self
            .snap
            .workers()
            .iter()
            .map(|w| w.counter(Counter::Trials))
            .collect();
        let active = per_worker.iter().filter(|&&t| t > 0).count() as u64;
        let w_min = per_worker.iter().copied().min().unwrap_or(0);
        let w_max = per_worker.iter().copied().max().unwrap_or(0);

        if let Some(sink) = self.sink.as_mut() {
            let line = JsonObj::new()
                .str_field("record", "snapshot")
                .u64_field("cell", cell.id)
                .u64_field("trials_done", trials_done)
                .u64_field("trials_total", cell.trials)
                .fixed_field("elapsed_secs", cell_elapsed, 3)
                .fixed_field("trials_per_sec", cell_rate, 1)
                .u64_field("chunks_issued", chunks_issued)
                .u64_field("chunks_merged", chunks_merged)
                .u64_field("cursor_lag", lag)
                .fixed_field(
                    "eta_secs",
                    if eta_secs.is_finite() { eta_secs } else { -1.0 },
                    1,
                )
                .u64_field("workers", active)
                .u64_field("worker_trials_min", w_min)
                .u64_field("worker_trials_max", w_max)
                .finish();
            sink(&line);
        }
        if self.progress {
            eprintln!(
                "[cell {}/{}] {}/{} trials ({:.0}%) | {:.0} trials/s | workers {} ({}..{}) | lag {} | eta {}",
                cell.id + 1,
                self.cells_total,
                trials_done,
                cell.trials,
                100.0 * trials_done as f64 / cell.trials.max(1) as f64,
                cell_rate,
                active,
                w_min,
                w_max,
                lag,
                fmt_eta(eta_secs),
            );
        }
    }

    /// Finish a cell: fold its merged chunks' deltas into a
    /// [`CellProfile`], emit the `cell_profile` record, and start the next
    /// cell's sum from zero.
    pub fn end_cell(&mut self, cell: &CellSpec, trials: u64, elapsed_secs: f64) {
        let t = std::mem::replace(&mut self.cell, WorkerSnap::zero());
        let profile = CellProfile {
            cell: cell.id,
            trials,
            elapsed_secs,
            trials_per_sec: trials as f64 / elapsed_secs.max(1e-9),
            rounds: t.counter(Counter::Rounds),
            phase_nanos: {
                let mut p = [0u64; obs::PHASE_COUNT];
                for ph in Phase::ALL {
                    p[ph as usize] = t.phase_nanos(ph);
                }
                p
            },
            trial_p50_nanos: hist_quantile(t.hist_buckets(Hist::TrialNanos), 0.50),
            trial_p99_nanos: hist_quantile(t.hist_buckets(Hist::TrialNanos), 0.99),
        };
        if let Some(sink) = self.sink.as_mut() {
            let mut line = JsonObj::new()
                .str_field("record", "cell_profile")
                .u64_field("cell", profile.cell)
                .u64_field("trials", profile.trials)
                .fixed_field("elapsed_secs", profile.elapsed_secs, 3)
                .fixed_field("trials_per_sec", profile.trials_per_sec, 1)
                .u64_field("rounds", profile.rounds);
            for ph in Phase::ALL {
                line = line.u64_field(
                    &format!("phase_{}_nanos", ph.name()),
                    profile.phase_nanos[ph as usize],
                );
            }
            for c in [
                Counter::NetRequests,
                Counter::NetDelivered,
                Counter::NetDropped,
                Counter::NetLinkDropped,
                Counter::NetPartitionDropped,
                Counter::NetForged,
            ] {
                line = line.u64_field(c.name(), t.counter(c));
            }
            line = line
                .u64_field(
                    Gauge::NetInFlightPeak.name(),
                    t.gauge(Gauge::NetInFlightPeak),
                )
                .u64_field("trial_p50_nanos", profile.trial_p50_nanos)
                .u64_field("trial_p99_nanos", profile.trial_p99_nanos);
            sink(&line.finish());
        }
        self.profiles.push(profile);
    }

    /// Disarm instrumentation and hand back the per-cell profiles for the
    /// CLI's final table.
    pub fn finish(mut self) -> Vec<CellProfile> {
        obs::set_enabled(false);
        std::mem::take(&mut self.profiles)
    }
}

/// Render the final per-cell phase-profile table the CLI prints after a
/// telemetry-enabled campaign: per-cell wall clock, throughput, and each
/// phase's share of the summed phase time (every phase but `trial`, which
/// spans the others).
pub fn profile_table(profiles: &[CellProfile]) -> Table {
    let phases: Vec<Phase> = Phase::ALL
        .iter()
        .copied()
        .filter(|p| !matches!(p, Phase::Trial))
        .collect();
    let mut headers: Vec<&str> = vec!["cell", "trials", "secs", "trials/s", "rounds"];
    headers.extend(phases.iter().map(|p| p.name()));
    headers.push("trial p50");
    let mut table = Table::new("per-cell phase profile (share of timed phases)", &headers);
    for p in profiles {
        let timed_total: u64 = phases.iter().map(|ph| p.phase_nanos[*ph as usize]).sum();
        let mut row = vec![
            p.cell.to_string(),
            p.trials.to_string(),
            format!("{:.2}", p.elapsed_secs),
            format!("{:.0}", p.trials_per_sec),
            p.rounds.to_string(),
        ];
        for ph in &phases {
            let nanos = p.phase_nanos[*ph as usize];
            row.push(if timed_total == 0 {
                "—".into()
            } else {
                format!("{:.0}%", 100.0 * nanos as f64 / timed_total as f64)
            });
        }
        row.push(format!("{:.2}ms", p.trial_p50_nanos as f64 / 1e6));
        table.push_row(row);
    }
    table
}

// ---------------------------------------------------------------------------
// The sink and timings sidecar logs.
// ---------------------------------------------------------------------------

/// Open a telemetry sink whose line 1 is `header` through the one log
/// opener (see [`crate::store`]): replaced on a new run, cut back to its
/// valid prefix and appended on resume. Sinks are advisory and never sync.
pub(crate) fn open_sink(path: &Path, header: &str, resume: bool) -> Result<StoreWriter, String> {
    open_log(path, header, Log::Advisory, resume, || {
        scan_telemetry(path).map(|scan| scan.valid_len)
    })
}

/// Open the timings sidecar for a store through the one log opener:
/// replaced on a new run, cut back to its valid prefix and appended on
/// resume. The sidecar is advisory and never syncs.
pub fn open_timings(store: &Path, resume: bool) -> Result<StoreWriter, String> {
    let path = timings_path(store);
    let header = JsonObj::new().str_field("schema", TIMINGS_SCHEMA).finish();
    open_log(&path, &header, Log::Advisory, resume, || {
        scan_timings(&path).map(|scan| scan.valid_len)
    })
}

/// Append one completed cell's timing line.
pub fn append_timing(
    timings: &mut StoreWriter,
    cell: u64,
    trials: u64,
    elapsed_secs: f64,
) -> Result<(), String> {
    let line = JsonObj::new()
        .u64_field("cell", cell)
        .u64_field("trials", trials)
        .fixed_field("elapsed_secs", elapsed_secs, 3)
        .fixed_field("trials_per_sec", trials as f64 / elapsed_secs.max(1e-9), 1)
        .finish();
    timings
        .append(&line)
        .map_err(|e| format!("timings append: {e}"))
}

/// One timings record: `(cell, elapsed_secs, trials_per_sec)`, after
/// checking that `trials` is present too.
fn timing_record(line: &str) -> Result<(u64, f64, f64), String> {
    let obj = parse_flat(line)?;
    let cell = require_u64(&obj, "cell")?;
    require_u64(&obj, "trials")?;
    let secs = require_f64(&obj, "elapsed_secs")?;
    Ok((cell, secs, require_f64(&obj, "trials_per_sec")?))
}

fn scan_timings(path: &Path) -> Result<LogScan<(), (u64, f64, f64)>, String> {
    scan_log(path, Some(TIMINGS_SCHEMA), |_| Ok(()), timing_record)
}

/// Load a timings sidecar into `cell id → (elapsed_secs, trials_per_sec)`.
/// A missing or foreign file, or a torn tail, simply yields fewer entries
/// (timings are advisory; the store stays the source of truth). Duplicate
/// ids keep the last line (a cell re-run after an interrupted store
/// append).
pub fn load_timings(store: &Path) -> BTreeMap<u64, (f64, f64)> {
    scan_timings(&timings_path(store))
        .map(|scan| {
            let records = scan.records.into_iter();
            records
                .map(|(cell, secs, rate)| (cell, (secs, rate)))
                .collect()
        })
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Schema check.
// ---------------------------------------------------------------------------

/// What [`check_telemetry`] found in a valid file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryCheck {
    /// Periodic snapshot records.
    pub snapshots: u64,
    /// Per-cell profile records.
    pub cell_profiles: u64,
}

fn require_u64(obj: &FlatObject, key: &str) -> Result<u64, String> {
    get(obj, key)
        .and_then(JsonScalar::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn require_f64(obj: &FlatObject, key: &str) -> Result<f64, String> {
    get(obj, key)
        .and_then(JsonScalar::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

/// Which record type a validated telemetry line is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryRecord {
    /// A periodic `snapshot` record.
    Snapshot,
    /// A per-cell `cell_profile` record.
    CellProfile,
}

/// Validate one `stabcon-telemetry/1` *record* line (not the header):
/// flat JSON, a known `record` kind, and every required field present with
/// the right type. This is the per-line core of [`check_telemetry`], and
/// the gate `stabcon serve` applies to worker-shipped [`Telemetry`] frames
/// before filing them in a job's sink — a torn, interleaved, or malformed
/// frame fails here and is dropped instead of corrupting the sink.
///
/// [`Telemetry`]: crate::fabric::Msg::Telemetry
pub fn validate_record_line(line: &str) -> Result<TelemetryRecord, String> {
    let obj = parse_flat(line)?;
    match get(&obj, "record").and_then(JsonScalar::as_str) {
        Some("snapshot") => {
            for key in [
                "cell",
                "trials_done",
                "trials_total",
                "chunks_issued",
                "chunks_merged",
                "cursor_lag",
                "workers",
                "worker_trials_min",
                "worker_trials_max",
            ] {
                require_u64(&obj, key)?;
            }
            require_f64(&obj, "elapsed_secs")?;
            require_f64(&obj, "trials_per_sec")?;
            require_f64(&obj, "eta_secs")?;
            Ok(TelemetryRecord::Snapshot)
        }
        Some("cell_profile") => {
            for key in [
                "cell",
                "trials",
                "rounds",
                "trial_p50_nanos",
                "trial_p99_nanos",
            ] {
                require_u64(&obj, key)?;
            }
            for ph in Phase::ALL {
                require_u64(&obj, &format!("phase_{}_nanos", ph.name()))?;
            }
            for c in [
                Counter::NetRequests,
                Counter::NetDelivered,
                Counter::NetDropped,
                Counter::NetLinkDropped,
                Counter::NetPartitionDropped,
                Counter::NetForged,
            ] {
                require_u64(&obj, c.name())?;
            }
            require_u64(&obj, Gauge::NetInFlightPeak.name())?;
            require_f64(&obj, "elapsed_secs")?;
            require_f64(&obj, "trials_per_sec")?;
            Ok(TelemetryRecord::CellProfile)
        }
        Some(other) => Err(format!("unknown record type '{other}'")),
        None => Err("missing 'record' field".into()),
    }
}

/// Line 1 of a telemetry sink: the counts a reader needs.
fn telemetry_header_fields(header: &FlatObject) -> Result<(), String> {
    for key in ["threads", "cells", "trials_planned"] {
        require_u64(header, key)?;
    }
    Ok(())
}

fn scan_telemetry(path: &Path) -> Result<LogScan<(), TelemetryRecord>, String> {
    scan_log(
        path,
        Some(TELEMETRY_SCHEMA),
        telemetry_header_fields,
        validate_record_line,
    )
}

/// Validate a telemetry sink against the `stabcon-telemetry/1` schema:
/// [`check_log`], refusing a timings sidecar by its schema.
pub fn check_telemetry(path: &Path) -> Result<TelemetryCheck, String> {
    match check_log(path)? {
        LogCheck::Telemetry(check) => Ok(check),
        LogCheck::Timings(_) => Err(format!(
            "{}: line 1: unsupported schema '{TIMINGS_SCHEMA}' (this build reads '{TELEMETRY_SCHEMA}')",
            path.display()
        )),
    }
}

/// What [`check_log`] found in a valid timings sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingsCheck {
    /// Record lines (excluding the header).
    pub lines: u64,
    /// Distinct cell ids.
    pub cells: u64,
    /// Lines superseded by a later line for the same cell — re-runs after
    /// an interrupted append; readers keep the last line per cell.
    pub duplicates: u64,
}

/// What [`check_log`] found in a valid log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogCheck {
    /// A `stabcon-telemetry/1` sink.
    Telemetry(TelemetryCheck),
    /// A `stabcon-timings/1` sidecar.
    Timings(TimingsCheck),
}

/// Validate a telemetry sink or a timings sidecar in one pass: line 0's
/// `schema` picks the header and record checks. A sink has a header with
/// its counts, then flat `snapshot` / `cell_profile` records with their
/// required fields, at least one a `cell_profile`. A sidecar has one flat
/// record per cell with `cell`/`trials` integers and
/// `elapsed_secs`/`trials_per_sec` numbers; duplicate cell ids are legal
/// (last wins, as [`load_timings`] resolves them) and are counted.
pub fn check_log(path: &Path) -> Result<LogCheck, String> {
    let timings = std::cell::Cell::new(false);
    let header = |header: &FlatObject| match get(header, "schema").and_then(JsonScalar::as_str) {
        Some(TIMINGS_SCHEMA) => {
            timings.set(true);
            Ok(())
        }
        Some(TELEMETRY_SCHEMA) => telemetry_header_fields(header),
        other => Err(format!(
            "unsupported schema '{}' (this build reads '{TELEMETRY_SCHEMA}')",
            other.unwrap_or_default()
        )),
    };
    let (mut cells, mut cell_profiles) = (BTreeSet::new(), 0u64);
    let record = |line: &str| {
        if timings.get() {
            cells.insert(timing_record(line)?.0);
        } else if validate_record_line(line)? == TelemetryRecord::CellProfile {
            cell_profiles += 1;
        }
        Ok(())
    };
    let (_, records) = scan_log(path, None, header, record)?.strict(path)?;
    let lines = records.len() as u64;
    if timings.get() {
        let cells = cells.len() as u64;
        return Ok(LogCheck::Timings(TimingsCheck {
            lines,
            cells,
            duplicates: lines - cells,
        }));
    }
    if cell_profiles == 0 {
        return Err(format!(
            "{}: no cell_profile records (campaign produced no cells?)",
            path.display()
        ));
    }
    Ok(LogCheck::Telemetry(TelemetryCheck {
        snapshots: lines - cell_profiles,
        cell_profiles,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("stabcon-telemetry-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn hist_quantile_reads_bucket_lows() {
        let mut buckets = [0u64; obs::HIST_BUCKETS];
        assert_eq!(hist_quantile(&buckets, 0.5), 0, "empty histogram");
        buckets[obs::bucket_of(100)] = 10;
        buckets[obs::bucket_of(1 << 20)] = 1;
        assert_eq!(
            hist_quantile(&buckets, 0.5),
            obs::bucket_low(obs::bucket_of(100))
        );
        assert_eq!(
            hist_quantile(&buckets, 0.99),
            obs::bucket_low(obs::bucket_of(1 << 20))
        );
    }

    #[test]
    fn eta_formatting() {
        assert_eq!(fmt_eta(f64::INFINITY), "—");
        assert_eq!(fmt_eta(65.0), "1:05");
        assert_eq!(fmt_eta(3723.0), "1:02:03");
    }

    #[test]
    fn timings_sidecar_roundtrip() {
        let store = tmp("timings-roundtrip.jsonl");
        std::fs::remove_file(timings_path(&store)).ok();
        let mut f = open_timings(&store, false).expect("open");
        append_timing(&mut f, 0, 100, 2.0).expect("append");
        append_timing(&mut f, 1, 100, 4.0).expect("append");
        drop(f);
        // Resume appends; a re-run cell's later line wins.
        let mut f = open_timings(&store, true).expect("reopen");
        append_timing(&mut f, 1, 100, 5.0).expect("append");
        drop(f);
        let map = load_timings(&store);
        assert_eq!(map.len(), 2);
        assert_eq!(map[&0], (2.0, 50.0));
        assert_eq!(map[&1], (5.0, 20.0));
        // A fresh (non-resume) open truncates.
        let f = open_timings(&store, false).expect("truncate");
        drop(f);
        assert!(load_timings(&store).is_empty());
        std::fs::remove_file(timings_path(&store)).ok();
    }

    #[test]
    fn resumed_timings_sidecar_drops_a_torn_last_line() {
        // A crash mid-append leaves a torn last line; the resumed sidecar
        // must cut it away rather than glue the next record onto it.
        let store = tmp("timings-torn.jsonl");
        let path = timings_path(&store);
        std::fs::remove_file(&path).ok();
        let mut f = open_timings(&store, false).expect("open");
        append_timing(&mut f, 0, 100, 2.0).expect("append");
        append_timing(&mut f, 1, 100, 4.0).expect("append");
        drop(f);
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("tear");
        let mut f = open_timings(&store, true).expect("resume");
        append_timing(&mut f, 1, 100, 5.0).expect("append");
        append_timing(&mut f, 2, 100, 2.5).expect("append");
        drop(f);
        let check = check_log(&path).expect("resumed sidecar stays valid");
        let want = TimingsCheck {
            lines: 3,
            cells: 3,
            duplicates: 0,
        };
        assert_eq!(check, LogCheck::Timings(want));
        let map = load_timings(&store);
        assert_eq!(map[&1], (5.0, 20.0));
        assert_eq!(map[&2], (2.5, 40.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_timings_sidecar_is_empty() {
        assert!(load_timings(Path::new("/nonexistent/store.jsonl")).is_empty());
    }

    #[test]
    fn check_rejects_bad_files() {
        let p = tmp("telemetry-bad.jsonl");
        std::fs::write(&p, "").expect("write");
        assert!(check_telemetry(&p).unwrap_err().contains("empty"));
        std::fs::write(&p, "{\"schema\":\"other/9\"}\n").expect("write");
        assert!(check_telemetry(&p).unwrap_err().contains("schema"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn record_validation_rejects_torn_and_foreign_lines() {
        // A full snapshot record passes.
        let good = JsonObj::new()
            .str_field("record", "snapshot")
            .u64_field("cell", 0)
            .u64_field("trials_done", 8)
            .u64_field("trials_total", 64)
            .fixed_field("elapsed_secs", 0.5, 3)
            .fixed_field("trials_per_sec", 16.0, 1)
            .u64_field("chunks_issued", 2)
            .u64_field("chunks_merged", 1)
            .u64_field("cursor_lag", 1)
            .fixed_field("eta_secs", 3.5, 1)
            .u64_field("workers", 2)
            .u64_field("worker_trials_min", 3)
            .u64_field("worker_trials_max", 5)
            .finish();
        assert_eq!(
            validate_record_line(&good).expect("valid snapshot"),
            TelemetryRecord::Snapshot
        );
        // Any torn prefix of it fails — never panics, never passes.
        for cut in 0..good.len() {
            assert!(
                validate_record_line(&good[..cut]).is_err(),
                "torn prefix of len {cut} must not validate"
            );
        }
        // A shipped header (valid JSON, no 'record') fails.
        assert!(validate_record_line("{\"schema\": \"stabcon-telemetry/1\"}").is_err());
        // An unknown record kind fails.
        assert!(validate_record_line("{\"record\": \"warp\"}").is_err());
    }

    #[test]
    fn timings_check_counts_cells_and_last_wins_duplicates() {
        let store = tmp("timings-check.jsonl");
        std::fs::remove_file(timings_path(&store)).ok();
        let mut f = open_timings(&store, false).expect("open");
        append_timing(&mut f, 0, 100, 2.0).expect("append");
        append_timing(&mut f, 1, 100, 4.0).expect("append");
        append_timing(&mut f, 1, 100, 5.0).expect("append"); // re-run: last wins
        drop(f);
        let check = check_log(&timings_path(&store)).expect("valid sidecar");
        assert_eq!(
            check,
            LogCheck::Timings(TimingsCheck {
                lines: 3,
                cells: 2,
                duplicates: 1
            })
        );
        // A telemetry header is read as a telemetry sink, which needs a
        // cell profile.
        let p = tmp("peek-telemetry.jsonl");
        std::fs::write(&p, "{\"schema\": \"stabcon-telemetry/1\", \"threads\": 1, \"cells\": 0, \"trials_planned\": 0}\n").expect("write");
        assert!(check_log(&p).unwrap_err().contains("no cell_profile"));
        // A timings sidecar is refused where a telemetry sink is wanted.
        assert!(check_telemetry(&timings_path(&store))
            .unwrap_err()
            .contains("schema"));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(timings_path(&store)).ok();
    }
}
