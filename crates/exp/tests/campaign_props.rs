//! Checkpoint/resume determinism: a campaign interrupted after `k` cells
//! and resumed — at a different thread count and chunk size, even with a
//! torn trailing write — produces a result store **byte-identical** to an
//! uninterrupted run. One-trial cells of unequal cost make the campaign-wide
//! chunk cursor run several cells at once, so this also pins that cells
//! come back in order and that an interrupted run starts no cell past `k`.

use std::path::PathBuf;

use proptest::prelude::*;
use stabcon_core::adversary::AdversarySpec;
use stabcon_exp::campaign::{run_campaign, CampaignSpec, RunConfig};
use stabcon_exp::{BudgetSpec, InitSpec};

const THREAD_CHOICES: [usize; 3] = [1, 2, 8];
const CHUNK_CHOICES: [u64; 3] = [1, 3, 32];
/// One trial per cell makes cells overlap on the cursor.
const TRIAL_CHOICES: [u64; 2] = [1, 6];

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stabcon-campaign-props");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{}-{tag}.jsonl", std::process::id()))
}

/// 12 cells: 3 populations × 2 inits × 2 adversaries (one flips the metric
/// to almost-stable, exercising both label/metric paths in the store). The
/// n = 2048 cells cost far more than the others, so cells finish out of
/// order on the cursor.
const GRID_CELLS: u64 = 12;

fn grid(seed: u64, trials: u64) -> CampaignSpec {
    CampaignSpec {
        name: "prop".into(),
        seed,
        trials,
        ns: vec![64, 96, 2048],
        inits: vec![InitSpec::TwoBinsHalf, InitSpec::UniformRandom(4)],
        adversaries: vec![
            (AdversarySpec::None, BudgetSpec::Zero),
            (AdversarySpec::Random, BudgetSpec::Fixed(2)),
        ],
        ..CampaignSpec::default()
    }
}

fn run_full(spec: &CampaignSpec, path: &PathBuf, threads: usize, chunk: u64) -> Vec<u8> {
    std::fs::remove_file(path).ok();
    let outcome = run_campaign(
        spec,
        path,
        &RunConfig {
            threads,
            chunk: Some(chunk),
            max_cells: None,
            resume: false,
            ..RunConfig::default()
        },
    )
    .expect("uninterrupted run");
    assert!(outcome.complete());
    std::fs::read(path).expect("read store")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn interrupted_and_resumed_store_is_byte_identical(
        seed in 0u64..1_000,
        t_trials in 0usize..2,
        k in 0u64..=GRID_CELLS,
        t_ref in 0usize..3,
        t_partial in 0usize..3,
        t_resume in 0usize..3,
        c_partial in 0usize..3,
        c_resume in 0usize..3,
        tear in any::<bool>(),
    ) {
        let trials = TRIAL_CHOICES[t_trials];
        let spec = grid(seed, trials);
        let tag = format!(
            "{seed}-{trials}-{k}-{t_ref}{t_partial}{t_resume}{c_partial}{c_resume}{tear}"
        );

        // Reference: one uninterrupted run.
        let ref_path = tmp(&format!("ref-{tag}"));
        let reference = run_full(&spec, &ref_path, THREAD_CHOICES[t_ref], CHUNK_CHOICES[0]);

        // Interrupted run: stop after k cells, at an arbitrary
        // thread-count/chunking combination.
        let path = tmp(&format!("int-{tag}"));
        std::fs::remove_file(&path).ok();
        let partial = run_campaign(&spec, &path, &RunConfig {
            threads: THREAD_CHOICES[t_partial],
            chunk: Some(CHUNK_CHOICES[c_partial]),
            max_cells: Some(k),
            resume: false,
            ..RunConfig::default()
        }).expect("interrupted run");
        prop_assert_eq!(partial.cells_run, k);
        prop_assert_eq!(partial.trials_run, k * trials, "no trial of a cell past k");

        // A kill mid-append leaves a torn trailing line; resume must
        // truncate it away.
        if tear {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(b"{\"kind\": \"cell\", \"cel").expect("tear");
        }

        // Resume at yet another thread-count/chunking combination.
        let resumed = run_campaign(&spec, &path, &RunConfig {
            threads: THREAD_CHOICES[t_resume],
            chunk: Some(CHUNK_CHOICES[c_resume]),
            max_cells: None,
            resume: true,
            ..RunConfig::default()
        }).expect("resume");
        prop_assert!(resumed.complete());
        prop_assert_eq!(resumed.cells_skipped, k);

        let bytes = std::fs::read(&path).expect("read store");
        prop_assert_eq!(
            &bytes, &reference,
            "resumed store differs from uninterrupted run (k={}, tear={})", k, tear
        );

        std::fs::remove_file(&ref_path).ok();
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn thread_counts_1_2_8_all_reproduce_the_same_store() {
    let spec = grid(0xD00D, 6);
    let mut stores = Vec::new();
    for &threads in &THREAD_CHOICES {
        let path = tmp(&format!("threads-{threads}"));
        stores.push(run_full(&spec, &path, threads, 7));
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(stores[0], stores[1], "threads=1 vs threads=2");
    assert_eq!(stores[0], stores[2], "threads=1 vs threads=8");
}
