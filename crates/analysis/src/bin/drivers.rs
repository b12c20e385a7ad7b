//! Deterministic small-scale runs of the six campaign-ported analysis
//! drivers, for the CI `driver-parity` job.
//!
//! ```text
//! drivers --out DIR [--driver NAME]
//! ```
//!
//! Writes `<driver>.txt` per driver (`theorems`, `threshold`, `baselines`,
//! `robustness`, `stability`, `drift`; default: all) with **fixed** seeds
//! and scales. The campaign scheduler's aggregation is thread- and
//! chunk-invariant, so the output is byte-stable across machines and runner
//! core counts — CI diffs it against the committed golden files in
//! `golden/` to catch any change to driver numerics that slips past the
//! unit-level parity tests.

use std::path::PathBuf;
use std::process::ExitCode;

use stabcon_analysis::{baselines, drift, robustness, stability, theorems, threshold};
use stabcon_core::adversary::AdversarySpec;

/// All driver names, in output order.
const DRIVERS: [&str; 6] = [
    "theorems",
    "threshold",
    "baselines",
    "robustness",
    "stability",
    "drift",
];

/// Fixed worker count: the numbers don't depend on it (that's the point of
/// the campaign port), but a constant keeps run times predictable on CI.
const THREADS: usize = 2;

fn render(driver: &str) -> String {
    match driver {
        "theorems" => {
            theorems::constant_m_table(&[2, 3], &[128, 256], 6, 0x90_1D, THREADS).to_text()
        }
        "threshold" => {
            let mut out =
                threshold::threshold_table(256, &[0.2, 0.5, 0.9], 6, 30, 0x90_1D, THREADS)
                    .to_text();
            out.push('\n');
            out.push_str(
                &threshold::threshold_hist_table(&[16], &[0.25, 0.75], 4, 40, 0x90_1D).to_text(),
            );
            out
        }
        "baselines" => {
            let mut out =
                baselines::min_rule_table(2048, &[50, 200, 800, 2000], 15, 0xE63E, THREADS)
                    .to_text();
            out.push('\n');
            out.push_str(&baselines::mean_rule_table(4096, 30, 0xE73A, THREADS).to_text());
            out
        }
        "robustness" => {
            let mut out = robustness::tournament_table(256, 4, 0x90_1D, THREADS).to_text();
            out.push('\n');
            out.push_str(
                &robustness::asynchrony_table(512, &[1.0, 0.5], 5, 0x90_1D, THREADS).to_text(),
            );
            out
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
                &drift::doubling_regime_table(&[512, 2048], 6, 0x90_1D, THREADS).to_text(),
            );
            out
        }
        other => panic!("unknown driver '{other}'"),
    }
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
    for driver in selected {
        let path = out_dir.join(format!("{driver}.txt"));
        let text = render(driver);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
