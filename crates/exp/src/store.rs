//! The append-only JSONL logs: the result store, and the one open path
//! and one reader that every log of the crate shares.
//!
//! Four logs share one format. Line 0 is a header whose `schema` field
//! names the log; every following line is one flat record:
//!
//! | log | schema | records |
//! |---|---|---|
//! | result store (this module) | [`SCHEMA`] | one completed cell's streamed aggregate |
//! | jobs journal ([`crate::fabric::queue`]) | `stabcon-jobs/1` | one queue event |
//! | timings sidecar ([`crate::telemetry`]) | `stabcon-timings/1` | one cell's wall clock |
//! | telemetry sink ([`crate::telemetry`]) | `stabcon-telemetry/1` | one snapshot or cell profile |
//!
//! Records are appended whole, one `write` per line. A killed writer
//! leaves at worst one torn trailing line, so a log is always a *valid
//! prefix* plus an optional torn tail. [`scan_log`] is the one reader: it
//! checks the header's `schema`, hands each complete line to the log's
//! record parser, and stops at the first torn, non-UTF-8 or unparsable
//! line, reporting the byte length of the valid prefix. `open_log` is the
//! one opener: it creates a log with its header, or on resume cuts it back
//! to its valid prefix (syncing the cut) before appending, so `resume`
//! reproduces the uninterrupted log byte-for-byte.
//!
//! The store's line 0 is a campaign header (name, seed, grid fingerprint);
//! cells are appended in cell order. How much of a store or journal
//! survives a crash harder than a process kill — power loss, `kill -9`
//! racing the page cache — is the [`Durability`] policy: `none` (flush to
//! the OS only, the historical behavior) or `cell` (`fsync` after every
//! appended record). Both policies write identical bytes; they differ only
//! in when those bytes are forced to stable storage. [`StoreWriter`] owns
//! the policy so every appender applies it uniformly. The timings sidecar
//! and telemetry sinks are advisory: they never `fsync`, and a fresh run
//! replaces them where it refuses an existing store or journal.
//!
//! Records are *flat* JSON objects (scalars only) written through
//! [`stabcon_util::jsonl`], with floats in shortest-roundtrip form: the
//! store is lossless and deterministic, never timestamped.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

use stabcon_util::jsonl::{get, parse_flat, FlatObject, JsonObj, JsonScalar};

use crate::aggregate::CellAggregate;
use crate::cell::CellSpec;

/// Store schema identifier.
///
/// `/2`: cell records grew observer extra-channel fields and the grid
/// fingerprint now covers the observer, so `/1` stores (pre-observer) are
/// rejected up front with a schema message rather than a misleading
/// fingerprint mismatch.
///
/// `/3`: cells carry a `scenario` axis label (network-fault grid axis) and
/// the net-totals observer channels; `/2` stores predate the axis and are
/// rejected up front for the same reason.
///
/// `/4`: the dense engine draws from one word sequence per ball (two
/// uniform samples per hashed word), so a trial's trajectory for a given
/// seed changed; `/3` stores hold cells of the old stream and are rejected
/// rather than resumed into a store that mixes two streams.
///
/// `/5`: adaptive cells under a load-only adversary (balancer, median
/// pusher) hand off to the histogram, so their trials for a given seed
/// changed; `/4` stores are rejected for the same reason.
///
/// `/6`: the histogram step pools each direction's movers into one binomial
/// sweep, so every adaptive cell's trials for a given seed changed; `/5`
/// stores are rejected for the same reason.
///
/// `/7`: the adaptive engine hands off at `max(handoff_support, n/40)`
/// bins, so adaptive trials that start above that support changed, and the
/// engine label names the rule; `/6` stores are rejected for the same
/// reason.
///
/// `/8`: the random adversary has a load-level form, so adaptive cells
/// under it hand off to the histogram and their trials for a given seed
/// changed; `/7` stores are rejected for the same reason.
///
/// `/9`: the message engine draws its targets on the dense kernel's
/// streams instead of through per-process permutations, so message-engine
/// trials for a given seed changed (their law did not); `/8` stores are
/// rejected for the same reason.
pub const SCHEMA: &str = "stabcon-campaign/9";

/// The campaign header record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHeader {
    /// Campaign name.
    pub name: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Trials per cell.
    pub trials: u64,
    /// Total cells in the grid.
    pub cells: u64,
    /// Fingerprint of the expanded grid (see
    /// [`crate::campaign::CampaignSpec::fingerprint`]).
    pub fingerprint: u64,
}

impl StoreHeader {
    /// Render the header line (no trailing newline).
    pub fn to_line(&self) -> String {
        JsonObj::new()
            .str_field("kind", "campaign")
            .str_field("schema", SCHEMA)
            .str_field("name", &self.name)
            .u64_field("seed", self.seed)
            .u64_field("trials", self.trials)
            .u64_field("cells", self.cells)
            .str_field("fingerprint", &format!("{:016x}", self.fingerprint))
            .finish()
    }

    /// Parse line 0 of a store whose `schema` [`scan_log`] has checked.
    fn from_fields(obj: &FlatObject) -> Result<Self, String> {
        let str_of = |k: &str| {
            get(obj, k)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("header: missing string field '{k}'"))
        };
        let u64_of = |k: &str| {
            get(obj, k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("header: missing integer field '{k}'"))
        };
        let fingerprint = u64::from_str_radix(&str_of("fingerprint")?, 16)
            .map_err(|e| format!("header: bad fingerprint: {e}"))?;
        Ok(Self {
            name: str_of("name")?,
            seed: u64_of("seed")?,
            trials: u64_of("trials")?,
            cells: u64_of("cells")?,
            fingerprint,
        })
    }
}

/// Render one completed cell's record line (no trailing newline).
pub fn cell_line(cell: &CellSpec, agg: &CellAggregate) -> String {
    let stats = agg.convergence(cell.metric);
    let mut obj = JsonObj::new()
        .str_field("kind", "cell")
        .u64_field("cell", cell.id)
        .u64_field("seed", cell.seed)
        .u64_field("trials", agg.trials())
        .str_field("metric", cell.metric.label());
    for (k, v) in &cell.labels {
        obj = obj.str_field(k, v);
    }
    obj = obj
        .u64_field("hits", stats.hits)
        .u64_field("timeouts", stats.timeouts)
        .f64_field("hit_rate", stats.hit_rate())
        .f64_field("validity_rate", stats.validity_rate);
    match &stats.rounds {
        Some(q) => {
            obj = obj
                .f64_field("mean", q.mean)
                .f64_field("p50", q.p50)
                .f64_field("p90", q.p90)
                .f64_field("p95", q.p95)
                .f64_field("p99", q.p99)
                .f64_field("max", q.max);
        }
        None => {
            for k in ["mean", "p50", "p90", "p95", "p99", "max"] {
                obj = obj.null_field(k);
            }
        }
    }
    obj = obj.u64_field("rounds_total", agg.rounds_total());
    // Observer channels: one `extra_<name>_*` field group per channel, in
    // declaration order. `count` is always written (so a resumed store is
    // byte-identical even when a channel happens to collect no samples);
    // the summaries are `null` when empty, and `min`/`max` are exact
    // integers otherwise.
    for (name, counts) in cell.observer.channels().iter().zip(agg.extras()) {
        let stem = |suffix: &str| format!("extra_{name}_{suffix}");
        obj = obj.u64_field(&stem("count"), counts.count());
        obj = obj.f64_field(&stem("mean"), counts.mean());
        for (suffix, v) in [("min", counts.min()), ("max", counts.max())] {
            obj = match v {
                Some(v) => obj.u64_field(&stem(suffix), v),
                None => obj.null_field(&stem(suffix)),
            };
        }
    }
    obj.finish()
}

/// When appended store records are forced to stable storage.
///
/// Orthogonal to byte-identity: the bytes are the same under every policy,
/// only the crash window differs. `none` survives a process kill (the OS
/// holds the flushed bytes) but can lose buffered records to power loss or
/// an unsynced host crash; `cell` bounds loss to the record being appended
/// at the instant of the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Flush each record to the OS, never `fsync` (historical behavior).
    #[default]
    None,
    /// `fsync` after every appended record.
    Cell,
}

impl Durability {
    /// Parse a `--durability` CLI value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(Durability::None),
            "cell" => Ok(Durability::Cell),
            other => Err(format!(
                "--durability: unknown mode '{other}' (expected none|cell)"
            )),
        }
    }

    /// The CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Cell => "cell",
        }
    }
}

/// An open log plus its [`Durability`] policy: every append to every log
/// goes through [`StoreWriter::append`], so the policy is applied uniformly
/// by the single-host runner and the serve daemon alike.
#[derive(Debug)]
pub struct StoreWriter {
    file: File,
    durability: Durability,
}

impl StoreWriter {
    /// Append one pre-rendered record line (adds the newline) as one
    /// `write`, and sync per the policy.
    pub fn append(&mut self, line: &str) -> std::io::Result<()> {
        append_line(&mut self.file, line)?;
        match self.durability {
            Durability::None => Ok(()),
            Durability::Cell => self.sync(),
        }
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// End-of-run sync: a no-op under `none`, a final (idempotent) `fsync`
    /// under `cell`.
    pub fn finish(&mut self) -> std::io::Result<()> {
        match self.durability {
            Durability::None => Ok(()),
            Durability::Cell => self.sync(),
        }
    }
}

/// Name the first field on which two headers disagree — "fingerprint
/// mismatch" alone misdirects when e.g. only the trial count changed.
pub fn describe_mismatch(stored: &StoreHeader, requested: &StoreHeader) -> String {
    if stored.name != requested.name {
        format!("name '{}' vs '{}'", stored.name, requested.name)
    } else if stored.seed != requested.seed {
        format!("seed {:#x} vs {:#x}", stored.seed, requested.seed)
    } else if stored.trials != requested.trials {
        format!("trials {} vs {}", stored.trials, requested.trials)
    } else if stored.cells != requested.cells {
        format!("cells {} vs {}", stored.cells, requested.cells)
    } else {
        format!(
            "grid fingerprint {:016x} vs {:016x}",
            stored.fingerprint, requested.fingerprint
        )
    }
}

/// Open (or create) a store for appending cells under `header`.
///
/// Fresh opens refuse an existing file; with `resume` the stored header is
/// validated against `header`, any torn tail is **truncated away and the
/// truncation synced** before the first append (see `open_log` — the
/// repair happens on open, it is not merely tolerated on read), and the
/// ids of cells already present are returned so the caller can skip them.
/// Used by both `run_campaign` and the fabric's `serve` daemon.
pub fn open_for_append(
    path: &Path,
    header: &StoreHeader,
    resume: bool,
    durability: Durability,
) -> Result<(StoreWriter, BTreeSet<u64>), String> {
    let mut done = BTreeSet::new();
    let log = Log::Durable("store", durability);
    let writer = open_log(path, &header.to_line(), log, resume, || {
        let loaded = load(path)?;
        match &loaded.header {
            Some(h) if h == header => {
                done.extend(loaded.done_ids());
                Ok(loaded.valid_len)
            }
            Some(h) => Err(format!(
                "{}: store was produced by a different campaign spec ({} — stored vs requested)",
                path.display(),
                describe_mismatch(h, header)
            )),
            // Nothing valid in the file: restart it.
            None => Ok(0),
        }
    })?;
    Ok((writer, done))
}

/// Which log `open_log` opens, and so how it treats an existing file.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Log {
    /// A result store or the jobs journal (named in errors), synced per
    /// its [`Durability`]: a fresh open refuses an existing file, and a
    /// resume fails if the file cannot be read.
    Durable(&'static str, Durability),
    /// The timings sidecar or a telemetry sink. Advisory: it never syncs,
    /// and an existing file is replaced by a fresh open, or by a resume
    /// that cannot read it.
    Advisory,
}

/// Open an append-only log whose line 0 is `header`: the one open path of
/// every log (see the module doc).
///
/// A missing file is created with the header. On `resume` an existing one
/// is read by `valid_prefix`, which returns the byte length of its valid
/// prefix (usually from [`scan_log`]): a prefix of 0 restarts the log from
/// the header, and anything after the prefix is a torn tail, cut away by
/// one `ftruncate` to a record boundary before the first append. A
/// durable log syncs that cut, so a crash right after the repair cannot
/// resurrect the tail; under [`Durability::Cell`] the header or repaired
/// prefix — and, best effort, the directory entry of a fresh file — is
/// forced to stable storage before any record lands on top of it.
pub(crate) fn open_log(
    path: &Path,
    header: &str,
    log: Log,
    resume: bool,
    valid_prefix: impl FnOnce() -> Result<u64, String>,
) -> Result<StoreWriter, String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let valid_len = match log {
        // A missing or unreadable advisory log reads as empty.
        Log::Advisory if resume => valid_prefix().unwrap_or(0),
        Log::Advisory => 0,
        Log::Durable(..) if !path.exists() => 0,
        Log::Durable(..) if resume => valid_prefix()?,
        Log::Durable(what, _) => {
            return Err(format!(
                "{}: {what} exists — use resume (or a fresh path)",
                path.display()
            ))
        }
    };
    let file = if valid_len == 0 {
        let mut f = File::create(path).map_err(err)?;
        append_line(&mut f, header).map_err(err)?;
        f
    } else {
        let f = OpenOptions::new().append(true).open(path).map_err(err)?;
        if f.metadata().map_err(err)?.len() != valid_len {
            f.set_len(valid_len).map_err(err)?;
            if let Log::Durable(..) = log {
                f.sync_all().map_err(err)?;
            }
        }
        f
    };
    let durability = match log {
        Log::Durable(_, d) => d,
        Log::Advisory => Durability::None,
    };
    let mut writer = StoreWriter { file, durability };
    if durability == Durability::Cell {
        writer.sync().map_err(err)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(writer)
}

/// A log read back by [`scan_log`].
#[derive(Debug, Clone)]
pub struct LogScan<H, R> {
    /// Line 0 as the log's header parser read it; `None` when line 0 is
    /// torn, unparsable or carries no `schema` (nothing in the log is
    /// valid).
    pub header: Option<H>,
    /// The records of the valid prefix, in file order.
    pub records: Vec<R>,
    /// Byte length of the valid prefix (everything after it is a torn or
    /// corrupt tail).
    pub valid_len: u64,
    /// Where the valid prefix ends before the end of the file: the 1-based
    /// number of the first invalid line, and what is wrong with it.
    pub stopped: Option<(usize, String)>,
}

impl<H, R> Default for LogScan<H, R> {
    fn default() -> Self {
        Self {
            header: None,
            records: Vec::new(),
            valid_len: 0,
            stopped: None,
        }
    }
}

impl<H, R> LogScan<H, R> {
    /// The header and records of a log that must be valid to its last
    /// byte, as the schema checkers read one: the first invalid line is an
    /// error that names it by number.
    pub fn strict(self, path: &Path) -> Result<(H, Vec<R>), String> {
        match (self.stopped, self.header) {
            (Some((line, e)), _) => Err(format!("{}: line {line}: {e}", path.display())),
            (None, Some(header)) => Ok((header, self.records)),
            (None, None) => Err(format!("{}: empty file", path.display())),
        }
    }
}

/// Read a log: the one reader of every log's bytes (see the module doc).
///
/// Line 0 must carry a `schema` field. One equal to `schema` (any value
/// when `None`) is handed to `header`; another value is refused by name,
/// so an old store is never mistaken for a torn one. Every further line is
/// handed to `record`. The scan stops at the first torn, non-UTF-8 or
/// unparsable line (or line 0 without a `schema`); what precedes it is the
/// valid prefix. I/O errors, a foreign schema and a header that `header`
/// rejects are errors.
pub fn scan_log<H, R>(
    path: &Path,
    schema: Option<&str>,
    header: impl FnOnce(&FlatObject) -> Result<H, String>,
    mut record: impl FnMut(&str) -> Result<R, String>,
) -> Result<LogScan<H, R>, String> {
    // Bytes, not `read_to_string`: a kill mid-append can tear a multi-byte
    // UTF-8 sequence at the end of the file, and that tail must be
    // recovered from, not reported as an I/O error.
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut scan = LogScan::default();
    let mut header = Some(header);
    for (i, raw) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let line = match raw.strip_suffix(b"\n").map(std::str::from_utf8) {
            None => Err("torn line (no trailing newline)".to_string()),
            Some(Err(e)) => Err(format!("not UTF-8: {e}")),
            Some(Ok(line)) => Ok(line.trim_end()),
        };
        let parsed = match (line, header.take()) {
            (Err(e), _) => Err(e),
            (Ok(line), None) => record(line).map(|r| scan.records.push(r)),
            (Ok(line), Some(parse)) => match header_schema(line) {
                Err(e) => Err(e),
                Ok((obj, found)) => {
                    if let Some(want) = schema.filter(|&want| want != found) {
                        return Err(format!(
                            "{}: line 1: unsupported schema '{found}' (this build reads '{want}')",
                            path.display()
                        ));
                    }
                    let parsed =
                        parse(&obj).map_err(|e| format!("{}: line 1: {e}", path.display()));
                    scan.header = Some(parsed?);
                    Ok(())
                }
            },
        };
        if let Err(e) = parsed {
            scan.stopped = Some((i + 1, e));
            break;
        }
        scan.valid_len += raw.len() as u64;
    }
    Ok(scan)
}

/// Line 0 of a log and its `schema`, or why line 0 is not a header.
fn header_schema(line: &str) -> Result<(FlatObject, String), String> {
    let obj = parse_flat(line)?;
    let schema = get(&obj, "schema")
        .and_then(JsonScalar::as_str)
        .ok_or("missing 'schema' field")?
        .to_string();
    Ok((obj, schema))
}

/// A store read back by [`load`]: its header and its cell records.
pub type LoadedStore = LogScan<StoreHeader, FlatObject>;

impl LoadedStore {
    /// Ids of the cells present in the valid prefix.
    pub fn done_ids(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter_map(|c| get(c, "cell").and_then(|v| v.as_u64()))
            .collect()
    }
}

/// Read a store, stopping at the first torn or unparsable line.
pub fn load(path: &Path) -> Result<LoadedStore, String> {
    scan_log(path, Some(SCHEMA), StoreHeader::from_fields, |line| {
        let obj = parse_flat(line)?;
        match get(&obj, "kind").and_then(JsonScalar::as_str) {
            Some("cell") => Ok(obj),
            _ => Err("not a cell record".into()),
        }
    })
}

/// Append one pre-rendered record line plus its newline as one `write`.
fn append_line(file: &mut File, line: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    file.write_all(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HitMetric;
    use stabcon_core::init::InitialCondition;
    use stabcon_core::runner::SimSpec;
    use stabcon_par::ThreadPool;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("stabcon-store-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn sample_lines() -> (StoreHeader, String, String) {
        let header = StoreHeader {
            name: "t".into(),
            seed: 7,
            trials: 4,
            cells: 2,
            fingerprint: 0xABCD,
        };
        let pool = ThreadPool::new(1);
        let cell = CellSpec::new(
            SimSpec::new(64).init(InitialCondition::TwoBins { left: 32 }),
            4,
            9,
        )
        .label("n", "64")
        .metric(HitMetric::Consensus);
        let agg = crate::cell::run_cell(&pool, &cell, 2);
        let line_a = cell_line(&cell, &agg);
        let mut cell_b = CellSpec::new(
            SimSpec::new(96).init(InitialCondition::TwoBins { left: 48 }),
            4,
            11,
        )
        .label("n", "96")
        .metric(HitMetric::Consensus);
        cell_b.id = 1;
        let agg_b = crate::cell::run_cell(&pool, &cell_b, 2);
        (header, line_a, cell_line(&cell_b, &agg_b))
    }

    #[test]
    fn round_trip_and_torn_tail_recovery() {
        let (header, line_a, _) = sample_lines();
        let path = tmp("roundtrip.jsonl");
        let full = format!("{}\n{}\n", header.to_line(), line_a);
        std::fs::write(&path, format!("{full}{{\"kind\": \"cell\", \"cel")).expect("write");

        let loaded = load(&path).expect("load");
        assert_eq!(loaded.header.as_ref(), Some(&header));
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.done_ids(), vec![0]);
        assert_eq!(loaded.valid_len, full.len() as u64);
        assert_eq!(loaded.stopped.as_ref().map(|s| s.0), Some(3));

        let (_, done) = open_for_append(&path, &header, true, Durability::None).expect("resume");
        assert_eq!(done.into_iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), full);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_offset_of_the_final_record_repairs_on_open() {
        // Simulate a crash torn anywhere inside the final record (every
        // byte offset, including the trailing newline) of each of the four
        // logs: reopening through the log's own opener must truncate back
        // to the last record boundary, and appending the lost record again
        // must reproduce the clean log exactly.
        use crate::fabric::queue::{open_journal, JobState, JournalEvent};
        use crate::telemetry::{open_sink, open_timings, telemetry_header, timings_path};
        type Open<'a> = Box<dyn Fn(bool) -> Result<StoreWriter, String> + 'a>;
        let (header, line_a, line_b) = sample_lines();
        let store = tmp("tear-sweep.jsonl");
        let journal = tmp("tear-sweep.jobs.jsonl");
        let sink = tmp("tear-sweep.telemetry.jsonl");
        let state = |job| JournalEvent::State {
            job,
            state: JobState::Running,
        };
        let timing = |cell| {
            JsonObj::new()
                .u64_field("cell", cell)
                .u64_field("trials", 4)
                .fixed_field("elapsed_secs", 0.5, 3)
                .fixed_field("trials_per_sec", 8.0, 1)
                .finish()
        };
        let snapshot = |cell| {
            let mut obj = JsonObj::new().str_field("record", "snapshot");
            for key in ["cell", "trials_done", "trials_total", "chunks_issued"] {
                obj = obj.u64_field(key, cell);
            }
            for key in ["chunks_merged", "cursor_lag", "workers"] {
                obj = obj.u64_field(key, 1);
            }
            obj.u64_field("worker_trials_min", 2)
                .u64_field("worker_trials_max", 3)
                .fixed_field("elapsed_secs", 0.5, 3)
                .fixed_field("trials_per_sec", 16.0, 1)
                .fixed_field("eta_secs", 3.5, 1)
                .finish()
        };
        let logs: Vec<(std::path::PathBuf, Open, [String; 2])> = vec![
            (
                store.clone(),
                Box::new(|resume| {
                    let (w, done) = open_for_append(&store, &header, resume, Durability::Cell)?;
                    assert_eq!(done.len(), usize::from(resume), "cells before the torn one");
                    Ok(w)
                }),
                [line_a, line_b],
            ),
            (
                journal.clone(),
                Box::new(|resume| Ok(open_journal(&journal, resume, Durability::Cell)?.0)),
                [state(1).to_line(), state(2).to_line()],
            ),
            (
                timings_path(&store),
                Box::new(|resume| open_timings(&store, resume)),
                [timing(0), timing(1)],
            ),
            (
                sink.clone(),
                Box::new(|resume| open_sink(&sink, &telemetry_header("t", 1, 2, 8), resume)),
                [snapshot(0), snapshot(1)],
            ),
        ];
        for (path, open, [first, last]) in &logs {
            std::fs::remove_file(path).ok();
            let mut w = open(false).expect("fresh open");
            w.append(first).expect("append");
            w.append(last).expect("append");
            drop(w);
            let full = std::fs::read(path).expect("read");
            let prefix = &full[..full.len() - last.len() - 1];
            for cut in 0..=last.len() {
                std::fs::write(path, &full[..prefix.len() + cut]).expect("write");
                let mut w = open(true).expect("open repairs");
                assert_eq!(
                    std::fs::read(path).expect("read"),
                    prefix,
                    "{}: cut at {cut}: torn tail must be gone after open",
                    path.display()
                );
                w.append(last).expect("append");
                w.finish().expect("finish");
                assert_eq!(
                    std::fs::read(path).expect("read"),
                    full,
                    "{}: cut at {cut}: re-appended log must match the clean run",
                    path.display()
                );
            }
            std::fs::remove_file(path).ok();
        }
        // The boundary case: the store ends exactly at the record boundary
        // (nothing torn) — open must not truncate anything.
        let full = format!("{}\n{}\n{}\n", header.to_line(), logs[0].2[0], logs[0].2[1]);
        std::fs::write(&store, &full).expect("write");
        let (_, done) = open_for_append(&store, &header, true, Durability::None).expect("open");
        assert_eq!(done.len(), 2);
        assert_eq!(std::fs::read_to_string(&store).expect("read"), full);
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn durability_policies_write_identical_bytes() {
        let (header, line_a, line_b) = sample_lines();
        let mut outputs = Vec::new();
        for durability in [Durability::None, Durability::Cell] {
            let path = tmp(&format!("durability-{}.jsonl", durability.label()));
            std::fs::remove_file(&path).ok();
            let (mut w, _) = open_for_append(&path, &header, false, durability).expect("open");
            w.append(&line_a).expect("append a");
            w.append(&line_b).expect("append b");
            w.finish().expect("finish");
            outputs.push(std::fs::read(&path).expect("read"));
            std::fs::remove_file(&path).ok();
        }
        assert_eq!(outputs[0], outputs[1], "cell durability changed the bytes");
    }

    #[test]
    fn durability_parse_round_trips() {
        for d in [Durability::None, Durability::Cell] {
            assert_eq!(Durability::parse(d.label()), Ok(d));
        }
        assert!(Durability::parse("paranoid").unwrap_err().contains("mode"));
        let err = Durability::parse("batch").unwrap_err();
        assert!(err.contains("none|cell"), "{err}");
    }

    #[test]
    fn old_schema_is_rejected_by_name() {
        // A pre-observer `/1` store, a `/3` store of the old dense stream,
        // a `/4` store whose adversarial adaptive cells stayed dense, a `/5`
        // store of the per-bin multinomial histogram step, a `/6` store
        // whose adaptive cells handed off only at 64 bins, a `/7` store
        // whose random-adversary cells stayed dense, or an `/8` store whose
        // message-engine cells drew through permutations, must fail with
        // the schema in the message, not a confusing fingerprint mismatch
        // downstream.
        let path = tmp("oldschema.jsonl");
        for old in [
            "stabcon-campaign/1",
            "stabcon-campaign/3",
            "stabcon-campaign/4",
            "stabcon-campaign/5",
            "stabcon-campaign/6",
            "stabcon-campaign/7",
            "stabcon-campaign/8",
        ] {
            std::fs::write(
                &path,
                format!(
                    "{{\"kind\": \"campaign\", \"schema\": \"{old}\", \"name\": \"t\", \
                     \"seed\": 7, \"trials\": 4, \"cells\": 2, \"fingerprint\": \"00000000000000ab\"}}\n"
                ),
            )
            .expect("write");
            let err = load(&path).expect_err("old schema must not load");
            assert!(err.contains(old), "{err}");
            let before = std::fs::read(&path).expect("read");
            let requested = StoreHeader {
                name: "t".into(),
                seed: 7,
                trials: 4,
                cells: 2,
                fingerprint: 0xab,
            };
            let err = open_for_append(&path, &requested, true, Durability::None)
                .expect_err("old schema must not resume");
            assert!(err.contains(old), "{err}");
            assert_eq!(
                std::fs::read(&path).expect("read"),
                before,
                "left untouched"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_must_come_first() {
        let (_, line_a, _) = sample_lines();
        let path = tmp("headerless.jsonl");
        std::fs::write(&path, format!("{line_a}\n")).expect("write");
        let loaded = load(&path).expect("load");
        assert!(loaded.header.is_none());
        assert_eq!(loaded.valid_len, 0, "cells before a header are invalid");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observer_extras_round_trip_through_the_store() {
        use crate::observer::TrialObserver;
        let n = 1024usize;
        let pool = ThreadPool::new(2);
        let sim = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 })
            .adversary(stabcon_core::adversary::AdversarySpec::Random, 2)
            .max_rounds(400)
            .full_horizon(true);
        let stability = CellSpec::new(sim, 6, 0xE12).observer(TrialObserver::StabilityExcursions);
        // The drift observer's growth channel is a 0/1 indicator, so its
        // stored mean is the growth probability.
        let sim = SimSpec::new(2048)
            .init(InitialCondition::TwoBins { left: 960 })
            .max_rounds(1);
        let drift = CellSpec::new(sim, 5, 0xD1F).observer(TrialObserver::OneStepDrift);
        for cell in [stability, drift] {
            let agg = crate::cell::run_cell(&pool, &cell, 2);
            let line = cell_line(&cell, &agg);
            let obj = parse_flat(&line).expect("parse");
            // Every channel writes its field group, values matching the
            // in-memory aggregate exactly.
            for (name, counts) in cell.observer.channels().iter().zip(agg.extras()) {
                let field = |s: &str| get(&obj, &format!("extra_{name}_{s}"));
                assert_eq!(
                    field("count").and_then(|v| v.as_u64()),
                    Some(counts.count()),
                    "{line}"
                );
                if counts.count() > 0 {
                    assert_eq!(
                        field("mean").and_then(|v| v.as_f64()),
                        Some(counts.mean()),
                        "{line}"
                    );
                    assert_eq!(
                        field("max").and_then(|v| v.as_u64()),
                        counts.max(),
                        "{line}"
                    );
                } else {
                    assert_eq!(
                        field("mean"),
                        Some(&stabcon_util::jsonl::JsonScalar::Null),
                        "{line}"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_line_has_summary_fields() {
        let (_, line, _) = sample_lines();
        let obj = parse_flat(&line).expect("parse");
        for k in ["cell", "trials", "hits", "mean", "p95", "validity_rate"] {
            assert!(get(&obj, k).is_some(), "missing {k} in {line}");
        }
        assert_eq!(get(&obj, "n").and_then(|v| v.as_str()), Some("64"));
    }
}
