//! The golden producer for the CI `driver-parity` job: deterministic
//! small-scale runs of the analysis drivers and of the campaign presets
//! behind Figure 1, Theorem 2, the tournament and the √n threshold.
//!
//! ```text
//! drivers --out DIR [--driver NAME]
//! ```
//!
//! Writes `<name>.txt` per output (default: all) with **fixed** seeds and
//! scales:
//!
//! * `baselines`, `robustness` (α-asynchrony), `stability`, `drift` — the
//!   `stabcon-analysis` tables;
//! * `campaign-figure1-small`, `campaign-average-case`, `campaign-theorems`,
//!   `campaign-robustness-small`, `campaign-threshold` — the preset run
//!   through the same calls as `stabcon campaign run --preset P` then
//!   `stabcon campaign report` (`run_campaign` → `store::load` →
//!   `report_table`). The store and its
//!   timings sidecar live in a temporary directory, never under `--out`.
//!
//! The campaign scheduler's aggregation is thread- and chunk-invariant, so
//! the output is byte-stable across machines and runner core counts — CI
//! diffs it against the committed golden files in `golden/` to catch any
//! change to table numerics that slips past the unit-level parity tests.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stabcon_analysis::{baselines, drift, robustness, stability};
use stabcon_core::adversary::AdversarySpec;
use stabcon_exp::campaign::{run_campaign, RunConfig};
use stabcon_exp::{presets, report, store};

/// All output names, in output order.
const DRIVERS: [&str; 9] = [
    "baselines",
    "robustness",
    "stability",
    "drift",
    "campaign-figure1-small",
    "campaign-average-case",
    "campaign-theorems",
    "campaign-robustness-small",
    "campaign-threshold",
];

/// Fixed worker count: the numbers don't depend on it (that's the point of
/// the campaign port), but a constant keeps run times predictable on CI.
const THREADS: usize = 2;

/// `stabcon campaign run --preset NAME` into a fresh store under `tmp`,
/// then `stabcon campaign report` on it.
fn render_preset(name: &str, tmp: &Path) -> Result<String, String> {
    let spec = presets::preset(name).ok_or_else(|| format!("unknown preset '{name}'"))?;
    let path = tmp.join(format!("{name}.jsonl"));
    let cfg = RunConfig {
        threads: THREADS,
        ..RunConfig::default()
    };
    run_campaign(&spec, &path, &cfg)?;
    Ok(report::report_table(&store::load(&path)?).to_text())
}

fn render(driver: &str, tmp: &Path) -> Result<String, String> {
    if let Some(preset) = driver.strip_prefix("campaign-") {
        return render_preset(preset, tmp);
    }
    Ok(match driver {
        "baselines" => {
            let mut out =
                baselines::min_rule_table(2048, &[50, 200, 800, 2000], 15, 0xE63E, THREADS)
                    .to_text();
            out.push('\n');
            out.push_str(&baselines::mean_rule_table(4096, 30, 0xE73A, THREADS).to_text());
            out
        }
        "robustness" => {
            robustness::asynchrony_table(512, &[1.0, 0.5], 5, 0x90_1D, THREADS).to_text()
        }
        "stability" => stability::stability_horizon_table(
            1024,
            &[AdversarySpec::Random, AdversarySpec::Balancer],
            5,
            30,
            0x90_1D,
            THREADS,
        )
        .to_text(),
        "drift" => {
            let mut out =
                drift::one_step_drift_table(4096, &[1.0, 2.0, 4.0], 64, 0x90_1D, THREADS).to_text();
            out.push('\n');
            out.push_str(
                &drift::doubling_regime_table(&[512, 2048, 8192], 6, 0x90_1D, THREADS).to_text(),
            );
            out
        }
        other => panic!("unknown driver '{other}'"),
    })
}

fn main() -> ExitCode {
    let mut out_dir: Option<PathBuf> = None;
    let mut only: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_dir = it.next().map(PathBuf::from),
            "--driver" => only = it.next().cloned(),
            other => {
                eprintln!("unknown flag '{other}'\nusage: drivers --out DIR [--driver NAME]");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(out_dir) = out_dir else {
        eprintln!("--out is required\nusage: drivers --out DIR [--driver NAME]");
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let selected: Vec<&str> = match &only {
        Some(name) => match DRIVERS.iter().find(|d| *d == name) {
            Some(d) => vec![*d],
            None => {
                eprintln!(
                    "unknown driver '{name}' (expected one of {})",
                    DRIVERS.join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
        None => DRIVERS.to_vec(),
    };
    let tmp = std::env::temp_dir().join(format!("stabcon-drivers-{}", std::process::id()));
    let result = std::fs::create_dir_all(&tmp)
        .map_err(|e| format!("{}: {e}", tmp.display()))
        .and_then(|()| {
            selected.into_iter().try_for_each(|driver| {
                let path = out_dir.join(format!("{driver}.txt"));
                let text = render(driver, &tmp)?;
                std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
                Ok(())
            })
        });
    std::fs::remove_dir_all(&tmp).ok();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
