//! Property tests for the `stabcon-fabric/8` wire protocol: every
//! message — including the submission-plane frames, the spec descriptors
//! they carry, and the decode-only retired `/1` frames — survives an
//! encode→decode round trip with payload strings full of quotes,
//! backslashes, newlines, control bytes, and non-ASCII, and every encoding
//! is exactly one line, so the line-oriented framing can never tear a
//! message.
//!
//! Also pinned here: the serve side's WAN-hardening contracts. Torn or
//! interleaved Telemetry frames never corrupt a `stabcon-telemetry/1`
//! sink (the daemon's record validator rejects every mangled line), and
//! a one-job [`JobQueue`] keeps its counters and cell-set invariants
//! consistent under arbitrary hostile interleavings of claims, renewals,
//! duplicate results, disconnects, and lease expiries.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use stabcon_exp::fabric::{
    Ingest, JobQueue, JobState, JournalEvent, Msg, Parked, QueueConfig, SpecDescriptor,
    FABRIC_SCHEMA,
};
use stabcon_exp::telemetry::{check_telemetry, validate_record_line};

/// Escaping stress pool: quotes, backslashes, newlines, control characters,
/// multi-byte UTF-8, JSON-significant punctuation.
const NASTY: [&str; 8] = [
    "",
    "plain worker-1",
    "he said \"hi\"",
    "back\\slash\\",
    "line\nbreak\ttab",
    "\r bell\u{1}del\u{7f}",
    "κόσμε 🦀 consensus",
    "{\"cell\": 3}, [1,2]:",
];

/// A string mixing two pool entries with a numeric tail — deterministic in
/// its inputs, covering the pool pairwise across cases.
fn nasty(a: usize, b: usize, tail: u64) -> String {
    format!("{}{}{tail}", NASTY[a % NASTY.len()], NASTY[b % NASTY.len()])
}

/// Total message kinds covered by [`build_msg`].
const MSG_KINDS: usize = 22;

/// A [`SpecDescriptor`] whose override fields are present or absent by
/// bits of `y` and whose string payloads draw from the nasty pool —
/// descriptors ride inside Submit and Lease2 frames, so they share
/// the escaping stress.
fn build_descriptor(x: u64, y: u64, a: usize, b: usize) -> SpecDescriptor {
    SpecDescriptor {
        preset: nasty(a, b, x),
        name: (y & 1 != 0).then(|| nasty(b, a, y)),
        trials: (y & 2 != 0).then_some(x),
        seed: (y & 4 != 0).then_some(y),
        ns: (y & 8 != 0).then(|| nasty(a.wrapping_add(1), b, x ^ y)),
    }
}

fn build_msg(kind: usize, x: u64, y: u64, a: usize, b: usize) -> Msg {
    match kind {
        0 => Msg::Hello {
            schema: FABRIC_SCHEMA.into(),
            worker: nasty(a, b, x),
        },
        1 => Msg::Welcome {
            campaign: nasty(a, b, x),
            cells: y,
        },
        2 => Msg::Reject {
            reason: nasty(a, b, x),
        },
        3 => Msg::Claim,
        4 => Msg::Lease {
            cell: x,
            lease_ms: y,
        },
        5 => Msg::Wait { retry_ms: x },
        6 => Msg::Drained,
        7 => Msg::Renew { cell: x },
        8 => Msg::Goodbye,
        9 => Msg::Telemetry {
            line: nasty(a, b, x),
        },
        10 => Msg::Result {
            cell: x,
            line: nasty(a, b, x),
            // Finite by construction: JSON has no NaN/inf, and the writer
            // maps non-finite to null (which decode rejects).
            elapsed_secs: (y % 1_000_000_000) as f64 / 1024.0,
            trials: y,
        },
        11 => Msg::Submit {
            client: nasty(b, a, x),
            spec: build_descriptor(x, y, a, b),
            fingerprint: format!("{y:016x}"),
        },
        12 => Msg::Accepted {
            job: x,
            cells: y,
            store: nasty(a, b, y),
        },
        13 => Msg::Rejected {
            code: nasty(a, b, x),
            reason: nasty(b, a, y),
        },
        14 => Msg::Status {
            job: (y & 1 != 0).then_some(x),
        },
        15 => Msg::StatusReport {
            accepting: y & 2 != 0,
            queued: x,
            running: y,
            done: x ^ y,
            cancelled: x.wrapping_add(y),
            failed: x.wrapping_mul(3),
            jobs: y.wrapping_mul(5),
        },
        16 => Msg::JobStatus {
            job: x,
            name: nasty(a, b, x),
            state: nasty(b, a, y),
            client: nasty(a, a, x ^ y),
            cells: y,
            written: x ^ y,
            trials: x.wrapping_add(y),
            elapsed_secs: (x % 1_000_000_000) as f64 / 1024.0,
        },
        17 => Msg::Cancel { job: x },
        18 => Msg::Cancelled {
            job: x,
            state: nasty(a, b, y),
        },
        19 => Msg::Lease2 {
            job: x,
            cell: y,
            lease_ms: x ^ y,
            spec: build_descriptor(y, x, b, a),
            fingerprint: format!("{x:016x}"),
        },
        20 => Msg::Result2 {
            job: y,
            cell: x,
            line: nasty(a, b, x),
            elapsed_secs: (y % 1_000_000_000) as f64 / 1024.0,
            trials: y,
        },
        _ => Msg::Renew2 { job: x, cell: y },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_round_trips(
        kind in 0usize..MSG_KINDS,
        x in any::<u64>(),
        y in any::<u64>(),
        a in 0usize..NASTY.len(),
        b in 0usize..NASTY.len(),
    ) {
        let msg = build_msg(kind, x, y, a, b);
        let wire = msg.encode();
        prop_assert!(!wire.contains('\n'), "framing: one line per message: {:?}", wire);
        let back = Msg::decode(&wire).expect("decode");
        prop_assert_eq!(back, msg, "wire: {}", wire);
    }

    /// Whatever bytes arrive, decode never panics — it returns a message
    /// or an error. Garbage lines are assembled from the same nasty pool
    /// plus raw numeric noise so quoting is frequently unbalanced.
    #[test]
    fn decode_never_panics(
        a in 0usize..NASTY.len(),
        b in 0usize..NASTY.len(),
        x in any::<u64>(),
        cut in 0usize..64,
    ) {
        let garbage = format!("{}{}{x}", NASTY[a], NASTY[b]);
        let _ = Msg::decode(&garbage);
        // Also every prefix-truncation of a valid message (torn line).
        let wire = build_msg((x % MSG_KINDS as u64) as usize, x, x, a, b).encode();
        let mut cut = cut.min(wire.len());
        while !wire.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = Msg::decode(&wire[..cut]);
    }
}

/// One syntactically valid `cell_profile` record, as the telemetry layer
/// emits it — the seed for the torn-frame sink property.
fn valid_cell_profile(cell: u64) -> String {
    use stabcon_obs::{Counter, Gauge, Phase};
    use stabcon_util::jsonl::JsonObj;
    let mut line = JsonObj::new()
        .str_field("record", "cell_profile")
        .u64_field("cell", cell)
        .u64_field("trials", 64)
        .fixed_field("elapsed_secs", 0.5, 3)
        .fixed_field("trials_per_sec", 128.0, 1)
        .u64_field("rounds", 4096);
    for ph in Phase::ALL {
        line = line.u64_field(&format!("phase_{}_nanos", ph.name()), 1000 + ph as u64);
    }
    for c in [
        Counter::NetRequests,
        Counter::NetDelivered,
        Counter::NetDropped,
        Counter::NetLinkDropped,
        Counter::NetPartitionDropped,
        Counter::NetForged,
    ] {
        line = line.u64_field(c.name(), 7);
    }
    line.u64_field(Gauge::NetInFlightPeak.name(), 3)
        .u64_field("trial_p50_nanos", 1 << 14)
        .u64_field("trial_p99_nanos", 1 << 16)
        .finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The serve-side sink stays schema-valid no matter what Telemetry
    /// frames arrive: a sink built from a header plus only the lines that
    /// pass `validate_record_line` — the exact filter `stabcon serve`
    /// applies — always satisfies `check_telemetry`, even when the frame
    /// stream is torn prefixes, torn suffixes, two records spliced
    /// mid-line, and raw garbage.
    #[test]
    fn torn_telemetry_frames_never_corrupt_the_sink(
        cut in 1usize..200,
        splice in 1usize..200,
        a in 0usize..NASTY.len(),
        x in any::<u64>(),
    ) {
        let good = valid_cell_profile(x % 16);
        let other = valid_cell_profile((x % 16) + 1);
        let mut cut = cut.min(good.len() - 1);
        while !good.is_char_boundary(cut) { cut -= 1; }
        let mut splice = splice.min(other.len() - 1);
        while !other.is_char_boundary(splice) { splice -= 1; }
        let candidates = [
            good.clone(),                                  // intact
            good[..cut].to_string(),                       // torn tail
            good[cut..].to_string(),                       // torn head
            format!("{}{}", &good[..cut], &other[splice..]), // mid-line splice
            format!("{}{x}", NASTY[a]),                    // garbage
            "{\"schema\": \"stabcon-telemetry/1\"}".into(), // shipped header
        ];

        // Assemble the sink the way the daemon does: header first, then
        // only validated records.
        let dir = std::env::temp_dir().join("stabcon-fabric-props");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("{}-torn-sink.jsonl", std::process::id()));
        let mut sink = String::from(
            "{\"schema\": \"stabcon-telemetry/1\", \"campaign\": \"p\", \
             \"threads\": 1, \"cells\": 32, \"trials_planned\": 64}\n",
        );
        let mut accepted = 0u64;
        for line in &candidates {
            if validate_record_line(line).is_ok() {
                sink.push_str(line);
                sink.push('\n');
                accepted += 1;
            }
        }
        prop_assert!(accepted >= 1, "the intact record must validate");
        std::fs::write(&path, &sink).expect("write sink");
        let check = check_telemetry(&path).expect("filtered sink is always schema-valid");
        prop_assert_eq!(check.cell_profiles, accepted);
        std::fs::remove_file(&path).ok();
    }

    /// A one-job queue under hostile interleavings: claims, renewals for
    /// live/reclaimed/foreign leases, duplicate and out-of-range results,
    /// abrupt disconnects, clock advances past the lease, and flushes — in
    /// any order. After every step the cell sets partition the grid
    /// exactly, and every queue-wide counter matches the test's own tally
    /// (duplicate Result frames across reconnects are counted, never
    /// double-ingested).
    #[test]
    fn serve_state_invariants_survive_hostile_interleavings(
        total in 1u64..8,
        ops in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let mut q = JobQueue::new(QueueConfig {
            lease: Duration::from_millis(100),
            ..QueueConfig::default()
        });
        // A journal record fixes the grid size without expanding a preset.
        let spec = SpecDescriptor { preset: "smoke".into(), ..SpecDescriptor::default() };
        q.replay(&[JournalEvent::Submit { job: 1, client: "t".into(), spec, fingerprint: 0, cells: total }])
            .expect("replay");
        let mut now = Instant::now();
        q.start(1, BTreeSet::new(), now).expect("start");
        // The tally: who holds which cell, and what each counter should read.
        let mut owner: BTreeMap<u64, u64> = BTreeMap::new();
        let (mut ingested, mut deduped, mut rejected, mut ignored) = (0u64, 0u64, 0u64, 0u64);
        let (mut reclaimed, mut renewed) = (0u64, 0u64);
        for word in ops {
            // One word per op: low bits pick the op, a golden-ratio mix
            // decorrelates the two operand draws.
            let op = (word % 6) as u8;
            let x = word >> 3;
            let y = word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let conn = x % 4;
            let cell = y % (total + 2); // sometimes out of range
            let running = q.job(1).expect("job 1").state == JobState::Running;
            match op {
                0 => {
                    if let Msg::Lease2 { job, cell, .. } = q.claim(conn, now) {
                        prop_assert_eq!(job, 1);
                        prop_assert!(owner.insert(cell, conn).is_none(), "cell {} leased twice", cell);
                    }
                }
                1 => {
                    renewed += u64::from(owner.get(&cell) == Some(&conn));
                    q.renew(conn, 1, cell, now);
                }
                2 => {
                    let parked = Parked {
                        line: format!("{{\"cell\": {cell}}}"),
                        trials: 1,
                        elapsed_secs: 0.1,
                    };
                    let outcome = q.ingest(1, cell, parked, x % 7 != 0);
                    if !running {
                        prop_assert_eq!(outcome, Ingest::Duplicate);
                        ignored += 1;
                    } else {
                        owner.remove(&cell);
                        match outcome {
                            Ingest::Parked => ingested += 1,
                            Ingest::Duplicate => deduped += 1,
                            Ingest::Rejected => rejected += 1,
                        }
                    }
                }
                3 => {
                    let before = owner.len();
                    owner.retain(|_, &mut holder| holder != conn);
                    reclaimed += (before - owner.len()) as u64;
                    q.release_conn(conn);
                }
                4 => {
                    now += Duration::from_millis(x % 250);
                    for (job, cell) in q.sweep_expired(now) {
                        prop_assert_eq!(job, 1);
                        prop_assert!(owner.remove(&cell).is_some(), "expired an unleased cell {}", cell);
                        reclaimed += 1;
                    }
                }
                _ => while q.pop_flushable(1, now).is_some() {},
            }
            if let Err(e) = q.check_invariants() {
                prop_assert!(false, "invariant violated after op {op}: {e}");
            }
            prop_assert_eq!(q.cells_ingested, ingested);
            prop_assert_eq!(q.results_deduped, deduped);
            prop_assert_eq!(q.results_rejected, rejected);
            prop_assert_eq!(q.results_ignored, ignored);
            prop_assert_eq!(q.leases_reclaimed, reclaimed);
            prop_assert_eq!(q.leases_renewed, renewed);
            prop_assert!(q.job(1).expect("job 1").written() <= total);
        }
    }
}

#[test]
fn unknown_and_malformed_kinds_are_rejected() {
    assert!(Msg::decode("{\"kind\": \"warp\"}")
        .unwrap_err()
        .contains("unknown"));
    assert!(Msg::decode("{\"cell\": 3}").unwrap_err().contains("kind"));
    assert!(Msg::decode("").is_err());
    assert!(Msg::decode("{\"kind\": \"lease\", \"cell\": 1}")
        .unwrap_err()
        .contains("lease_ms"));
    // Non-finite elapsed encodes as null, which decode refuses — a broken
    // worker clock cannot smuggle a null into the timings sidecar.
    let bad = Msg::Result {
        cell: 0,
        line: "{}".into(),
        elapsed_secs: f64::NAN,
        trials: 1,
    };
    assert!(Msg::decode(&bad.encode())
        .unwrap_err()
        .contains("elapsed_secs"));
}

#[test]
fn store_and_telemetry_lines_survive_the_wire_verbatim() {
    // The byte-identity story rests on this: a Result frame's embedded
    // store line comes back exactly, bytes for bytes.
    let store_line = "{\"kind\": \"cell\", \"cell\": 3, \"n\": \"128\", \
                      \"mean\": 9.75, \"p50\": 10, \"max\": null}";
    let msg = Msg::Result {
        cell: 3,
        line: store_line.into(),
        elapsed_secs: 0.25,
        trials: 8,
    };
    match Msg::decode(&msg.encode()).expect("decode") {
        Msg::Result { line, .. } => assert_eq!(line, store_line),
        other => panic!("wrong kind: {other:?}"),
    }
}
