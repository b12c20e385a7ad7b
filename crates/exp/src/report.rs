//! Render a result store as the paper-style results table.

use std::collections::BTreeMap;

use stabcon_util::jsonl::{get, FlatObject, JsonScalar};
use stabcon_util::table::{fmt_sig, Table};

use crate::scaling::{describe_line, fit_log_n};
use crate::store::LoadedStore;

/// Label columns shown when present in the records, in order.
const AXIS_COLUMNS: [&str; 8] = [
    "n",
    "init",
    "protocol",
    "engine",
    "scenario",
    "adversary",
    "T",
    "update",
];

/// Compress sorted ids into a compact `0-3, 7, 12-23` listing (capped).
fn format_id_ranges(ids: &[u64], max_ranges: usize) -> String {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for &id in ids {
        match ranges.last_mut() {
            Some((_, hi)) if *hi + 1 == id => *hi = id,
            _ => ranges.push((id, id)),
        }
    }
    let mut parts: Vec<String> = ranges
        .iter()
        .take(max_ranges)
        .map(|&(lo, hi)| {
            if lo == hi {
                lo.to_string()
            } else {
                format!("{lo}-{hi}")
            }
        })
        .collect();
    if ranges.len() > max_ranges {
        parts.push("…".into());
    }
    parts.join(", ")
}

fn cell_text(obj: &FlatObject, key: &str) -> String {
    match get(obj, key) {
        Some(JsonScalar::Str(s)) => s.clone(),
        Some(JsonScalar::Int(x)) => x.to_string(),
        Some(JsonScalar::Num(x)) => fmt_sig(*x),
        Some(JsonScalar::Bool(b)) => b.to_string(),
        Some(JsonScalar::Null) | None => "—".into(),
    }
}

fn int_text(obj: &FlatObject, key: &str) -> String {
    match get(obj, key).and_then(|v| v.as_u64()) {
        Some(x) => x.to_string(),
        None => "—".into(),
    }
}

fn float_text(obj: &FlatObject, key: &str) -> String {
    match get(obj, key).and_then(|v| v.as_f64()) {
        Some(x) => fmt_sig(x),
        None => "—".into(),
    }
}

fn percent(obj: &FlatObject, key: &str) -> String {
    match get(obj, key).and_then(|v| v.as_f64()) {
        Some(x) => format!("{:.0}", x * 100.0),
        None => "—".into(),
    }
}

/// One `T ≈ a + b·ln n` note per series. A series is the cells that share
/// every axis label except `n` and `T`, plus the metric; it is named by the
/// labels that vary across the store (the metric always). Only a series
/// with finite means at three or more distinct `n` gets a note: two points
/// always fit a line exactly, and a 0%-hit cell (null mean) never enters a
/// fit.
fn fit_notes(cells: &[FlatObject], axes: &[&str]) -> Vec<String> {
    let keys: Vec<&str> = axes
        .iter()
        .copied()
        .filter(|k| !matches!(*k, "n" | "T"))
        .filter(|k| cells.iter().any(|c| get(c, k) != get(&cells[0], k)))
        .chain(["metric"])
        .collect();
    let points: Vec<(String, f64, f64)> = cells
        .iter()
        .filter_map(|obj| {
            let n = get(obj, "n")?.as_str()?.parse::<f64>().ok()?;
            let mean = get(obj, "mean")?.as_f64().filter(|m| m.is_finite())?;
            let name: Vec<String> = keys.iter().map(|k| cell_text(obj, k)).collect();
            Some((name.join(" · "), n, mean))
        })
        .collect();
    let mut names: Vec<&str> = Vec::new();
    for (name, _, _) in &points {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    names
        .into_iter()
        .filter_map(|name| {
            let (ns, ts): (Vec<f64>, Vec<f64>) = points
                .iter()
                .filter(|(s, _, _)| s == name)
                .map(|&(_, n, t)| (n, t))
                .unzip();
            let mut distinct = ns.clone();
            distinct.sort_by(f64::total_cmp);
            distinct.dedup();
            (distinct.len() >= 3)
                .then(|| format!("{name}: {}", describe_line(&fit_log_n(&ns, &ts), "ln n")))
        })
        .collect()
}

/// The Figure-1-style campaign table: one row per completed cell, axis
/// labels plus hit rate and hitting-time summary, with an `ln n` fit note
/// per series that spans three or more populations.
pub fn report_table(loaded: &LoadedStore) -> Table {
    report_table_with_timings(loaded, None)
}

/// [`report_table`] with optional wall-clock columns joined in.
///
/// `timings` maps cell id to `(elapsed_secs, trials_per_sec)` — usually
/// [`crate::telemetry::load_timings`] on the store's sidecar. When present,
/// two extra columns (`secs`, `trials/s`) appear; cells missing a timing
/// (e.g. a store copied without its sidecar) render as `—`.
pub fn report_table_with_timings(
    loaded: &LoadedStore,
    timings: Option<&BTreeMap<u64, (f64, f64)>>,
) -> Table {
    let title = match &loaded.header {
        Some(h) => format!(
            "campaign '{}' — {} of {} cells, {} trials/cell, seed {:#x}",
            h.name,
            loaded.records.len(),
            h.cells,
            h.trials,
            h.seed
        ),
        None => format!(
            "campaign (headerless store) — {} cells",
            loaded.records.len()
        ),
    };
    let axes: Vec<&str> = AXIS_COLUMNS
        .iter()
        .copied()
        .filter(|k| loaded.records.iter().any(|c| get(c, k).is_some()))
        .collect();
    // Observer extras: every `extra_<name>_mean` field present in any cell
    // becomes a `<name>` column (rendered as its mean), in first-seen order.
    let mut extra_stems: Vec<String> = Vec::new();
    for obj in &loaded.records {
        for (k, _) in obj.iter() {
            if let Some(stem) = k
                .strip_prefix("extra_")
                .and_then(|rest| rest.strip_suffix("_mean"))
            {
                if !extra_stems.iter().any(|s| s == stem) {
                    extra_stems.push(stem.to_string());
                }
            }
        }
    }
    let mut headers: Vec<&str> = vec!["cell"];
    headers.extend(&axes);
    headers.extend(["metric", "hit%", "mean", "p50", "p95", "max", "valid%"]);
    headers.extend(extra_stems.iter().map(|s| s.as_str()));
    if timings.is_some() {
        headers.extend(["secs", "trials/s"]);
    }
    let mut table = Table::new(title, &headers);
    for obj in &loaded.records {
        let mut row = vec![int_text(obj, "cell")];
        for k in &axes {
            // A cell whose every ball updates carries no `update` label.
            row.push(match (*k, get(obj, k)) {
                ("update", None) => "1".into(),
                _ => cell_text(obj, k),
            });
        }
        row.push(cell_text(obj, "metric"));
        row.push(percent(obj, "hit_rate"));
        for k in ["mean", "p50", "p95", "max"] {
            row.push(float_text(obj, k));
        }
        row.push(percent(obj, "validity_rate"));
        for stem in &extra_stems {
            row.push(float_text(obj, &format!("extra_{stem}_mean")));
        }
        if let Some(map) = timings {
            match get(obj, "cell")
                .and_then(JsonScalar::as_u64)
                .and_then(|id| map.get(&id))
            {
                Some((secs, rate)) => {
                    row.push(format!("{secs:.2}"));
                    row.push(format!("{rate:.0}"));
                }
                None => {
                    row.push("—".into());
                    row.push("—".into());
                }
            }
        }
        table.push_row(row);
    }
    for note in fit_notes(&loaded.records, &axes) {
        table.push_note(note);
    }
    if let Some(h) = &loaded.header {
        let present: std::collections::BTreeSet<u64> = loaded.done_ids().into_iter().collect();
        if (present.len() as u64) < h.cells {
            // Spell the coverage out — an interrupted, cancelled or
            // `--max-cells` store must never read as a complete campaign.
            let missing: Vec<u64> = (0..h.cells).filter(|id| !present.contains(id)).collect();
            table.push_note(format!(
                "partial store: cells {}/{} — missing {} (`stabcon campaign resume` \
                 continues it)",
                present.len(),
                h.cells,
                format_id_ranges(&missing, 8)
            ));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignSpec, RunConfig};
    use crate::observer::TrialObserver;
    use crate::store::{self, LoadedStore};
    use stabcon_util::jsonl::parse_flat;

    /// A headerless store of `(n, init, mean)` cells; `None` is a 0%-hit
    /// cell, whose summary fields are null.
    fn synthetic(cells: &[(u64, &str, Option<f64>)]) -> LoadedStore {
        let cells = cells
            .iter()
            .enumerate()
            .map(|(id, &(n, init, mean))| {
                let mean = mean.map_or("null".to_string(), |m| m.to_string());
                parse_flat(&format!(
                    "{{\"kind\":\"cell\",\"cell\":{id},\"metric\":\"consensus\",\
                     \"n\":\"{n}\",\"init\":\"{init}\",\"mean\":{mean}}}"
                ))
                .expect("parse")
            })
            .collect();
        LoadedStore {
            records: cells,
            ..LoadedStore::default()
        }
    }

    fn fit_note_count(loaded: &LoadedStore) -> usize {
        report_table(loaded)
            .to_text()
            .lines()
            .filter(|l| l.contains("·ln n"))
            .count()
    }

    #[test]
    fn fit_notes_need_three_populations_with_hits() {
        let three_ns = synthetic(&[
            (256, "a", Some(10.0)),
            (256, "b", Some(20.0)),
            (512, "a", Some(11.0)),
            (512, "b", Some(22.0)),
            (1024, "a", Some(12.0)),
            (1024, "b", Some(24.0)),
        ]);
        assert_eq!(fit_note_count(&three_ns), 2, "one note per series");
        let text = report_table(&three_ns).to_text();
        assert!(text.contains("a · consensus: T ≈"), "{text}");
        assert!(text.contains("b · consensus: T ≈"), "{text}");

        let two_ns = synthetic(&[
            (256, "a", Some(10.0)),
            (256, "b", Some(20.0)),
            (512, "a", Some(11.0)),
            (512, "b", Some(22.0)),
        ]);
        assert_eq!(fit_note_count(&two_ns), 0, "two points are no fit");

        let zero_hit = synthetic(&[
            (256, "a", Some(10.0)),
            (512, "a", None),
            (1024, "a", Some(12.0)),
        ]);
        let text = report_table(&zero_hit).to_text();
        assert!(text.contains('—'), "0%-hit cell renders as a dash:\n{text}");
        assert_eq!(fit_note_count(&zero_hit), 0, "{text}");
    }

    #[test]
    fn id_ranges_compress_and_cap() {
        assert_eq!(format_id_ranges(&[], 8), "");
        assert_eq!(format_id_ranges(&[3], 8), "3");
        assert_eq!(format_id_ranges(&[0, 1, 2, 7, 12, 13], 8), "0-2, 7, 12-13");
        assert_eq!(format_id_ranges(&[0, 2, 4, 6], 2), "0, 2, …");
    }

    #[test]
    fn report_renders_observer_extras_as_columns() {
        let dir = std::env::temp_dir().join("stabcon-report-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("{}-extras.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let spec = CampaignSpec {
            trials: 4,
            ns: vec![96],
            observer: TrialObserver::LastUnsettledRound,
            ..CampaignSpec::default()
        };
        run_campaign(&spec, &path, &RunConfig::default()).expect("run");
        let loaded = store::load(&path).expect("load");
        let text = report_table(&loaded).to_text();
        assert!(text.contains("last_unsettled"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_flags_partial_store_with_coverage() {
        let dir = std::env::temp_dir().join("stabcon-report-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("{}-partial.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let spec = CampaignSpec {
            trials: 4,
            ns: vec![64],
            ..CampaignSpec::default()
        };
        let cfg = RunConfig {
            max_cells: Some(1),
            ..RunConfig::default()
        };
        run_campaign(&spec, &path, &cfg).expect("run");
        let loaded = store::load(&path).expect("load");
        let text = report_table(&loaded).to_text();
        assert!(text.contains("partial store: cells 1/2"), "{text}");
        assert!(text.contains("missing 1"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_renders_completed_store() {
        let dir = std::env::temp_dir().join("stabcon-report-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("{}-report.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let spec = CampaignSpec {
            trials: 4,
            ns: vec![64],
            ..CampaignSpec::default()
        };
        run_campaign(&spec, &path, &RunConfig::default()).expect("run");
        let loaded = store::load(&path).expect("load");
        let table = report_table(&loaded);
        assert_eq!(table.len(), 2);
        let text = table.to_text();
        assert!(text.contains("two-bins-half"), "{text}");
        assert!(text.contains("consensus"), "{text}");
        assert!(!text.contains("incomplete"), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
