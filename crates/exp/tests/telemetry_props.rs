//! Telemetry is observation-only: a campaign run with progress lines, a
//! JSONL sink, or both produces a result store **byte-identical** to a run
//! with telemetry off — at every thread count. Also pins the sink's schema
//! (the file `stabcon telemetry check` accepts) and the single-place fold
//! of network totals into the registry's `net_*` counters.

use std::path::PathBuf;

use proptest::prelude::*;
use stabcon_core::engine::{EngineSpec, MessageConfig, ScenarioSpec};
use stabcon_exp::campaign::{run_campaign, CampaignSpec, RunConfig};
use stabcon_exp::telemetry::{check_telemetry, load_timings};
use stabcon_exp::InitSpec;

const THREAD_CHOICES: [usize; 3] = [1, 2, 8];

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stabcon-telemetry-props");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{}-{tag}.jsonl", std::process::id()))
}

/// 6 cells mixing the dense and message engines (so the net_* counters and
/// the Route/Faults phases are exercised), with a faulted scenario for the
/// message cells: per init, dense×clean, message×clean, message×lossy.
fn grid(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "tel-prop".into(),
        seed,
        trials: 5,
        ns: vec![64],
        inits: vec![InitSpec::TwoBinsHalf, InitSpec::UniformRandom(4)],
        engines: vec![
            EngineSpec::DenseSeq,
            EngineSpec::Message(MessageConfig::default()),
        ],
        scenarios: vec![
            ScenarioSpec::clean(),
            ScenarioSpec::clean()
                .with_drop_per_mille(50)
                .with_latency(1, 2),
        ],
        ..CampaignSpec::default()
    }
}

const GRID_CELLS: u64 = 6;
/// Cell ids of the message×lossy cells in [`grid`]'s expansion order.
const LOSSY_CELLS: [u64; 2] = [2, 5];

fn cleanup(store: &PathBuf) {
    std::fs::remove_file(store).ok();
    std::fs::remove_file(stabcon_exp::telemetry::timings_path(store)).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn store_is_byte_identical_with_telemetry_on_or_off(
        seed in 0u64..1_000,
        t_off in 0usize..3,
        t_on in 0usize..3,
    ) {
        let spec = grid(seed);
        let tag = format!("{seed}-{t_off}-{t_on}");

        let off_path = tmp(&format!("off-{tag}"));
        cleanup(&off_path);
        run_campaign(&spec, &off_path, &RunConfig {
            threads: THREAD_CHOICES[t_off],
            ..RunConfig::default()
        }).expect("telemetry-off run");
        let reference = std::fs::read(&off_path).expect("read store");

        let on_path = tmp(&format!("on-{tag}"));
        let sink = tmp(&format!("sink-{tag}"));
        cleanup(&on_path);
        run_campaign(&spec, &on_path, &RunConfig {
            threads: THREAD_CHOICES[t_on],
            progress: true,
            telemetry: Some(sink.clone()),
            ..RunConfig::default()
        }).expect("telemetry-on run");
        let bytes = std::fs::read(&on_path).expect("read store");

        prop_assert_eq!(
            &bytes, &reference,
            "store differs with telemetry on (threads {} vs {})",
            THREAD_CHOICES[t_on], THREAD_CHOICES[t_off]
        );

        // While we have a sink: it must satisfy its own schema.
        let check = check_telemetry(&sink).expect("valid telemetry sink");
        prop_assert_eq!(check.cell_profiles, GRID_CELLS, "one profile per cell");

        cleanup(&off_path);
        cleanup(&on_path);
        std::fs::remove_file(&sink).ok();
    }
}

#[test]
fn telemetry_profiles_fold_net_totals_once() {
    // A message-engine campaign's profile must carry the network totals the
    // store's observer-free cells otherwise discard; `fold_net_totals` in
    // `stabcon_exp::aggregate` is the single mapping under test.
    let spec = grid(0xF01D);
    let path = tmp("fold-net");
    let sink = tmp("fold-net-sink");
    cleanup(&path);
    let outcome = run_campaign(
        &spec,
        &path,
        &RunConfig {
            threads: 2,
            telemetry: Some(sink.clone()),
            ..RunConfig::default()
        },
    )
    .expect("run");
    assert!(outcome.complete());
    assert_eq!(outcome.profiles.len(), GRID_CELLS as usize);

    // The message×lossy cells' sink records must show the scenario's
    // traffic and faults (dense cells have no network at all).
    let text = std::fs::read_to_string(&sink).expect("read sink");
    let mut seen_traffic = false;
    for line in text.lines() {
        let obj = stabcon_util::jsonl::parse_flat(line).expect("flat record");
        let get_u64 = |k: &str| {
            stabcon_util::jsonl::get(&obj, k).and_then(stabcon_util::jsonl::JsonScalar::as_u64)
        };
        if get_u64("cell").is_some_and(|c| LOSSY_CELLS.contains(&c))
            && stabcon_util::jsonl::get(&obj, "record")
                .and_then(stabcon_util::jsonl::JsonScalar::as_str)
                == Some("cell_profile")
        {
            let requests = get_u64("net_requests").expect("net_requests");
            let delivered = get_u64("net_delivered").expect("net_delivered");
            let link_dropped = get_u64("net_link_dropped").expect("net_link_dropped");
            let in_flight = get_u64("net_in_flight_peak").expect("net_in_flight_peak");
            assert!(requests > 0, "message cells make requests");
            assert!(delivered > 0 && delivered < requests, "lossy scenario");
            assert!(link_dropped > 0, "5% drop rate must surface");
            assert!(in_flight > 0, "latency ring holds messages");
            seen_traffic = true;
        }
    }
    assert!(seen_traffic, "no message-cell profile in sink:\n{text}");

    // Satellite: the timings sidecar has one entry per cell, and the
    // report joins it without touching the store.
    let timings = load_timings(&path);
    assert_eq!(timings.len(), GRID_CELLS as usize);
    let loaded = stabcon_exp::store::load(&path).expect("load store");
    let table = stabcon_exp::report::report_table_with_timings(&loaded, Some(&timings));
    let rendered = table.to_text();
    assert!(rendered.contains("trials/s"), "{rendered}");

    cleanup(&path);
    std::fs::remove_file(&sink).ok();
}

#[test]
fn overlapping_cells_keep_their_own_profiles() {
    // Eight one-trial cells of unequal cost on two threads: the chunk
    // cursor runs two cells at once, and each cell's profile must be the
    // sum of its own chunks' deltas — never a neighbour's.
    let spec = CampaignSpec {
        name: "tel-overlap".into(),
        seed: 0x0E1A,
        trials: 1,
        ns: vec![64, 512, 96, 2048],
        inits: vec![InitSpec::TwoBinsHalf, InitSpec::AllDistinct],
        ..CampaignSpec::default()
    };
    let path = tmp("overlap");
    let sink = tmp("overlap-sink");
    cleanup(&path);
    run_campaign(
        &spec,
        &path,
        &RunConfig {
            threads: 2,
            telemetry: Some(sink.clone()),
            ..RunConfig::default()
        },
    )
    .expect("run");

    let get_u64 = |obj: &stabcon_util::jsonl::FlatObject, k: &str| {
        stabcon_util::jsonl::get(obj, k)
            .and_then(stabcon_util::jsonl::JsonScalar::as_u64)
            .unwrap_or_else(|| panic!("missing {k}"))
    };
    let store = stabcon_exp::store::load(&path).expect("load store");
    let stored: Vec<(u64, u64, u64)> = store
        .records
        .iter()
        .map(|c| {
            (
                get_u64(c, "cell"),
                get_u64(c, "trials"),
                get_u64(c, "rounds_total"),
            )
        })
        .collect();
    assert_eq!(stored.len(), 8);
    let text = std::fs::read_to_string(&sink).expect("read sink");
    let profiles: Vec<(u64, u64, u64)> = text
        .lines()
        .skip(1)
        .map(|line| stabcon_util::jsonl::parse_flat(line).expect("flat record"))
        .filter(|obj| {
            stabcon_util::jsonl::get(obj, "record")
                .and_then(stabcon_util::jsonl::JsonScalar::as_str)
                == Some("cell_profile")
        })
        .map(|obj| {
            (
                get_u64(&obj, "cell"),
                get_u64(&obj, "trials"),
                get_u64(&obj, "rounds"),
            )
        })
        .collect();
    assert_eq!(profiles, stored, "profile (cell, trials, rounds) vs store");

    cleanup(&path);
    std::fs::remove_file(&sink).ok();
}
