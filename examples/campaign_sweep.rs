//! A protocol × adversary campaign through the `stabcon-exp` subsystem:
//! declarative grid, parallel execution with streamed per-cell aggregates,
//! checkpoint/resume against a JSONL store, and the rendered report.
//!
//! ```sh
//! cargo run --release --example campaign_sweep
//! ```
//!
//! The same grid is available from the CLI as
//! `stabcon campaign run --preset duel --out duel.jsonl`.

use stabcon::core::adversary::AdversarySpec;
use stabcon::core::protocol::ProtocolSpec;
use stabcon::exp::{report, run_campaign, store, BudgetSpec, CampaignSpec, InitSpec, RunConfig};

fn main() {
    // Cartesian grid: 2 populations × 3 protocols × 3 adversaries. Every
    // cell derives its seed from the master seed by cell id, and every
    // trial from the cell seed by trial index — nothing depends on thread
    // count, chunking, or scheduling.
    let spec = CampaignSpec {
        name: "example-duel".into(),
        seed: 0xD0E1,
        trials: 16,
        ns: vec![512, 1024],
        inits: vec![InitSpec::UniformRandom(8)],
        protocols: vec![
            ProtocolSpec::Median,
            ProtocolSpec::Majority,
            ProtocolSpec::Voter,
        ],
        adversaries: vec![
            (AdversarySpec::None, BudgetSpec::Zero),
            (AdversarySpec::Balancer, BudgetSpec::SqrtOver4),
            (AdversarySpec::Random, BudgetSpec::SqrtOver4),
        ],
        ..CampaignSpec::default()
    };
    let path = std::env::temp_dir().join("stabcon-campaign-sweep.jsonl");
    std::fs::remove_file(&path).ok();

    // Simulate an interruption: stop after 5 cells.
    let partial = run_campaign(
        &spec,
        &path,
        &RunConfig {
            max_cells: Some(5),
            ..RunConfig::default()
        },
    )
    .expect("campaign run");
    println!(
        "first pass:  {} of {} cells checkpointed to {}",
        partial.cells_run,
        partial.cells_total,
        path.display()
    );

    // Resume: completed cells are skipped; the finished store is
    // byte-identical to an uninterrupted run at any thread count.
    let resumed = run_campaign(
        &spec,
        &path,
        &RunConfig {
            resume: true,
            ..RunConfig::default()
        },
    )
    .expect("campaign resume");
    println!(
        "resume pass: {} run, {} skipped\n",
        resumed.cells_run, resumed.cells_skipped
    );

    let loaded = store::load(&path).expect("loading store");
    print!("{}", report::report_table(&loaded).to_text());
    println!();
    println!("The voter rule's hit rate collapses under the balancer while the");
    println!("median rule stays near 100% — the power of two choices (§1.2).");
    println!(
        "Store: {} — one JSON line per cell; render anytime with\n  \
         stabcon campaign report --out {}",
        path.display(),
        path.display()
    );
}
