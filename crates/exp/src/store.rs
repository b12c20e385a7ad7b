//! The append-only JSONL result store.
//!
//! Line 0 is a campaign header (name, seed, grid fingerprint); every
//! following line is one completed cell's streamed aggregate. Cells are
//! appended in cell order; a killed campaign leaves at worst one torn
//! trailing line, which [`load`] detects and [`recover`] truncates away
//! (and syncs the truncation), so `resume` reproduces the uninterrupted
//! store byte-for-byte.
//!
//! How much of the store survives a crash harder than a process kill —
//! power loss, `kill -9` racing the page cache — is the [`Durability`]
//! policy: `none` (flush to the OS only, the historical behavior) or
//! `cell` (`fsync` after every appended record). Both policies write
//! identical bytes; they differ only in when those bytes are forced to
//! stable storage. [`StoreWriter`] owns the policy so every appender (the
//! single-host runner, the serve daemon's job stores and its jobs journal)
//! applies it uniformly, and `open_log` is the one open-and-repair path
//! all of them share.
//!
//! Records are *flat* JSON objects (scalars only) written through
//! [`stabcon_util::jsonl`], with floats in shortest-roundtrip form: the
//! store is lossless and deterministic, never timestamped.

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;

use stabcon_util::jsonl::{get, parse_flat, FlatObject, JsonObj};

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
pub const SCHEMA: &str = "stabcon-campaign/8";

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
        let schema = str_of("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported store schema '{schema}' (this build reads '{SCHEMA}')"
            ));
        }
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

/// An open store plus its [`Durability`] policy: every append goes through
/// [`StoreWriter::append`] so the policy is applied uniformly by the
/// single-host runner and the serve daemon alike.
#[derive(Debug)]
pub struct StoreWriter {
    file: std::fs::File,
    durability: Durability,
}

impl StoreWriter {
    /// Wrap an already-open append handle.
    pub(crate) fn new(file: std::fs::File, durability: Durability) -> Self {
        Self { file, durability }
    }

    /// Append one pre-rendered record line (adds the newline), flush, and
    /// sync per the policy.
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
/// truncation synced** before the append handle opens (see `open_log` —
/// the repair happens on open, it is not merely tolerated on read), and
/// the ids of cells already present are returned so the caller can skip
/// them. Used by both `run_campaign` and the fabric's `serve` daemon.
pub fn open_for_append(
    path: &Path,
    header: &StoreHeader,
    resume: bool,
    durability: Durability,
) -> Result<(StoreWriter, BTreeSet<u64>), String> {
    let mut done = BTreeSet::new();
    let writer = open_log(path, &header.to_line(), "store", resume, durability, || {
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

/// Open an append-only JSONL log whose line 0 is `header`: the one open
/// path of the result store ([`open_for_append`]) and the serve daemon's
/// jobs journal.
///
/// A missing file is created with the header. An existing one is refused
/// (`what` names it in the error) unless `resume`; then `valid_prefix`
/// reads and validates it and returns the byte length of its valid prefix.
/// A prefix of 0 restarts the log from the header; anything shorter than
/// the file is a torn tail, truncated away ([`truncate_tail`]) before the
/// append handle opens. Under [`Durability::Cell`] the header or repaired
/// prefix — and, best effort, the directory entry of a fresh file — is
/// forced to stable storage before any record lands on top of it.
pub(crate) fn open_log(
    path: &Path,
    header: &str,
    what: &str,
    resume: bool,
    durability: Durability,
    valid_prefix: impl FnOnce() -> Result<u64, String>,
) -> Result<StoreWriter, String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let valid_len = if path.exists() {
        if !resume {
            return Err(format!(
                "{}: {what} exists — use resume (or a fresh path)",
                path.display()
            ));
        }
        valid_prefix()?
    } else {
        0
    };
    let file = if valid_len == 0 {
        let mut f = std::fs::File::create(path).map_err(err)?;
        append_line(&mut f, header).map_err(err)?;
        f
    } else {
        truncate_tail(path, valid_len).map_err(err)?;
        OpenOptions::new().append(true).open(path).map_err(err)?
    };
    let mut writer = StoreWriter::new(file, durability);
    if durability == Durability::Cell {
        writer.sync().map_err(err)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(writer)
}

/// A store read back from disk.
#[derive(Debug, Clone, Default)]
pub struct LoadedStore {
    /// The header, if the first line parsed as one.
    pub header: Option<StoreHeader>,
    /// Completed cell records, in file order.
    pub cells: Vec<FlatObject>,
    /// Byte length of the valid prefix (everything after it is a torn or
    /// corrupt tail).
    pub valid_len: u64,
}

impl LoadedStore {
    /// Ids of the cells present in the valid prefix.
    pub fn done_ids(&self) -> Vec<u64> {
        self.cells
            .iter()
            .filter_map(|c| get(c, "cell").and_then(|v| v.as_u64()))
            .collect()
    }
}

/// Read a store, stopping at the first torn or unparsable line.
pub fn load(path: &Path) -> Result<LoadedStore, String> {
    // Bytes, not `read_to_string`: a kill mid-append can tear a multi-byte
    // UTF-8 sequence at the end of the file, and that tail must be
    // recovered from, not reported as an I/O error.
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = LoadedStore::default();
    for raw in bytes.split_inclusive(|&b| b == b'\n') {
        if raw.last() != Some(&b'\n') {
            break; // torn tail from an interrupted append
        }
        let Ok(line) = std::str::from_utf8(raw) else {
            break; // torn multi-byte character
        };
        let Ok(obj) = parse_flat(line.trim_end()) else {
            break; // corrupt tail
        };
        let kind = get(&obj, "kind").and_then(|v| v.as_str()).unwrap_or("");
        match kind {
            "campaign" if out.header.is_none() && out.cells.is_empty() => {
                match StoreHeader::from_fields(&obj) {
                    Ok(h) => out.header = Some(h),
                    Err(e) => return Err(e),
                }
            }
            "cell" if out.header.is_some() => out.cells.push(obj),
            _ => break,
        }
        out.valid_len += line.len() as u64;
    }
    Ok(out)
}

/// Truncate `path` to the valid prefix found by [`load`], discarding a torn
/// tail so appends resume from a clean record boundary.
///
/// The cut is synced before returning (see `truncate_tail`).
pub fn recover(path: &Path, loaded: &LoadedStore) -> std::io::Result<()> {
    truncate_tail(path, loaded.valid_len)
}

/// Cut `path` back to its first `valid_len` bytes if anything follows them.
///
/// The truncation is a single `ftruncate` to a record boundary — there is
/// no window in which the file holds a *different* partial record — and it
/// is `fsync`ed before returning, so a crash immediately after repair
/// cannot resurrect the torn tail.
pub(crate) fn truncate_tail(path: &Path, valid_len: u64) -> std::io::Result<()> {
    if std::fs::metadata(path)?.len() != valid_len {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(valid_len)?;
        f.sync_all()?;
    }
    Ok(())
}

/// Append one pre-rendered record line plus its newline as a single
/// `write_all`, then flush.
pub fn append_line(file: &mut std::fs::File, line: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    file.write_all(buf.as_bytes())?;
    file.flush()
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
        assert_eq!(loaded.cells.len(), 1);
        assert_eq!(loaded.done_ids(), vec![0]);
        assert_eq!(loaded.valid_len, full.len() as u64);

        recover(&path, &loaded).expect("recover");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), full);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_offset_of_the_final_record_repairs_on_open() {
        // Simulate a crash torn anywhere inside the final record (every
        // byte offset, including the trailing newline): `open_for_append`
        // must truncate back to the last record boundary, and appending
        // the lost cell again must reproduce the clean store exactly.
        let (header, line_a, line_b) = sample_lines();
        let prefix = format!("{}\n{}\n", header.to_line(), line_a);
        let full = format!("{prefix}{line_b}\n");
        let path = tmp("tear-sweep.jsonl");
        let final_record_len = line_b.len() + 1;
        for cut in 0..final_record_len {
            std::fs::write(&path, &full.as_bytes()[..prefix.len() + cut]).expect("write");
            let (mut w, done) =
                open_for_append(&path, &header, true, Durability::Cell).expect("open repairs");
            assert_eq!(
                std::fs::read_to_string(&path).expect("read"),
                prefix,
                "cut at {cut}: torn tail must be gone after open"
            );
            assert_eq!(done.into_iter().collect::<Vec<_>>(), vec![0]);
            w.append(&line_b).expect("append");
            w.finish().expect("finish");
            assert_eq!(
                std::fs::read_to_string(&path).expect("read"),
                full,
                "cut at {cut}: re-appended store must match the clean run"
            );
        }
        // The boundary case: the file ends exactly at the record boundary
        // (nothing torn) — open must not truncate anything.
        std::fs::write(&path, &full).expect("write");
        let (_, done) = open_for_append(&path, &header, true, Durability::None).expect("open");
        assert_eq!(done.len(), 2);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), full);
        std::fs::remove_file(&path).ok();
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
        // whose adaptive cells handed off only at 64 bins, or a `/7` store
        // whose random-adversary cells stayed dense, must fail with the
        // schema in the message, not a confusing fingerprint mismatch
        // downstream.
        let path = tmp("oldschema.jsonl");
        for old in [
            "stabcon-campaign/1",
            "stabcon-campaign/3",
            "stabcon-campaign/4",
            "stabcon-campaign/5",
            "stabcon-campaign/6",
            "stabcon-campaign/7",
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
