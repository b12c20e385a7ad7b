//! The §1.1 story, live: why the minimum rule cannot give stabilizing
//! consensus while the median rule can.
//!
//! A T-bounded adversary first erases every holder of the smallest value.
//! The minimum rule happily commits to the surviving value… until the
//! adversary revives a single copy of the smaller one, and the whole cascade
//! restarts. The median rule never cares: one ball cannot move a median.
//!
//! ```sh
//! cargo run --release --example adversarial_duel
//! ```

use stabcon::exp::{presets, report, run_campaign, store, RunConfig};
use stabcon::prelude::*;

fn main() {
    let n = 2048;

    // Narrative single run first: watch the min rule get burned.
    let t = ((n as f64).sqrt() / 2.0) as u64;
    let revive_at = 60;
    for protocol in [ProtocolSpec::Min, ProtocolSpec::Median] {
        let spec = SimSpec::new(n)
            .init(InitialCondition::TwoBins {
                left: t as usize, // at most T processes hold the minority value
            })
            .protocol(protocol)
            .adversary(AdversarySpec::Reviver { revive_at }, t)
            .max_rounds(revive_at + 200)
            .full_horizon(true)
            .record_trajectory(true);
        let result = spec.run_seeded(7);
        let traj = result.trajectory.as_deref().unwrap_or(&[]);
        let last_unsettled = traj
            .iter()
            .filter(|o| o.support > 1)
            .map(|o| o.round)
            .max()
            .unwrap_or(0);
        println!(
            "{:>7} rule: winner {:>4}, last round with disagreement = {:>4}  (revival was at {revive_at})",
            protocol.label(),
            result.winner,
            last_unsettled,
        );
    }

    println!();
    // Sweep revive delays (the `min-rule` preset): the min rule's
    // `last_unsettled` tracks d, the median rule's does not.
    let spec = presets::preset("min-rule").expect("preset");
    let path = std::env::temp_dir().join("stabcon-adversarial-duel.jsonl");
    std::fs::remove_file(&path).ok();
    run_campaign(&spec, &path, &RunConfig::default()).expect("campaign run");
    let loaded = store::load(&path).expect("load store");
    print!("{}", report::report_table(&loaded).to_text());
}
