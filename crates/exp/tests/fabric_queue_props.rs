//! Property tests for the durable multi-campaign [`JobQueue`]: the queue's
//! structural invariants survive arbitrary hostile interleavings of
//! submissions (good and bad), activations, cancels, claims, renewals, result ingests, flushes, disconnects, lease expiries,
//! SIGTERM halts — and crash-replay, where the queue is rebuilt from the
//! journal the operations wrote along the way, exactly as a `kill -9`'d
//! daemon rebuilds on `--resume`.
//!
//! Also pinned: every `stabcon-jobs/1` journal event survives a
//! line-encode→decode round trip, including descriptors full of hostile
//! strings — so a journal written by one daemon build is always readable
//! by the next.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use stabcon_exp::fabric::{
    Ingest, JobQueue, JobState, JournalEvent, Parked, QueueConfig, SpecDescriptor,
};

/// A descriptor that builds (smoke preset, tiny grid), plus its verified
/// fingerprint hex — what a well-behaved client ships.
fn good_descriptor(which: u64) -> (SpecDescriptor, String) {
    let pool = [("48", 0xA, "qa"), ("64", 0xB, "qb"), ("48,64", 0xC, "qc")];
    let (ns, seed, name) = pool[(which % pool.len() as u64) as usize];
    let desc = SpecDescriptor {
        preset: "smoke".into(),
        name: Some(name.into()),
        trials: Some(4),
        seed: Some(seed),
        ns: Some(ns.into()),
    };
    let spec = desc.build().expect("pool descriptor builds");
    (desc, format!("{:016x}", spec.fingerprint()))
}

/// Mirror of the daemon's journal discipline: append the events the serve
/// loop would append at each transition, into an in-memory journal the
/// crash-replay op feeds back through [`JobQueue::replay`]. The daemon
/// journals Running when it activates a job and Done when the flush that
/// writes the last cell (or the activation of an already complete store)
/// finishes it.
#[derive(Default)]
struct Shadow {
    journal: Vec<JournalEvent>,
}

impl Shadow {
    fn state(&mut self, job: u64, state: JobState) {
        self.journal.push(JournalEvent::State { job, state });
    }

    /// Journal Done if the activation or flush just run finished `job`.
    fn done_after_flush(&mut self, q: &JobQueue, job: u64) {
        if q.job(job).is_some_and(|j| j.state == JobState::Done) {
            self.state(job, JobState::Done);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The queue state machine under hostile interleavings. After every
    /// op the structural invariants hold, the counts partition the job
    /// set, and a crash-replay from the shadow journal yields a queue
    /// whose invariants also hold — then the run continues on the
    /// replayed queue, so post-recovery states are stressed as hard as
    /// fresh ones.
    #[test]
    fn queue_invariants_survive_hostile_interleavings(
        max_active in 1usize..4,
        quota in 1usize..4,
        ops in proptest::collection::vec(any::<u64>(), 1..140),
    ) {
        let cfg = QueueConfig {
            max_active,
            quota,
            lease: Duration::from_millis(100),
        };
        let mut q = JobQueue::new(cfg.clone());
        let mut now = Instant::now();
        let mut shadow = Shadow::default();
        let clients = ["ana", "bo", "cy"];
        for word in ops {
            let op = word % 13;
            let x = word >> 4;
            let y = word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let conn = x % 4;
            let job = y % 6; // often a real id, sometimes not
            let cell = (y >> 8) % 6; // sometimes out of any grid's range
            match op {
                // A well-formed submission; journal it when admitted,
                // exactly like the daemon (journal before Accepted).
                0 | 1 => {
                    let (desc, fp) = good_descriptor(x);
                    let client = clients[(x % 3) as usize];
                    if let Ok((id, cells)) = q.submit(client, &desc, &fp) {
                        shadow.journal.push(JournalEvent::Submit {
                            job: id,
                            client: client.into(),
                            spec: desc,
                            fingerprint: u64::from_str_radix(&fp, 16).unwrap(),
                            cells,
                        });
                    }
                }
                // A hostile submission: bad preset, bad fingerprint, or
                // zero-cell ns. Must reject without touching the queue.
                2 => {
                    let before = q.counts();
                    let (mut desc, mut fp) = good_descriptor(x);
                    match x % 3 {
                        0 => desc.preset = "no-such-preset".into(),
                        1 => fp = format!("{:016x}", y | 1),
                        _ => fp = "not-hex!".into(),
                    }
                    prop_assert!(q.submit("mallory", &desc, &fp).is_err());
                    prop_assert_eq!(q.counts(), before);
                }
                // Activation: the daemon journals Running *before* opening
                // the store; a random done-prefix stands in for a resumed
                // store (possibly already complete).
                3 | 4 => {
                    if let Some(id) = q.next_activation() {
                        let total = q.job(id).expect("activation id").cells_total;
                        let mut done = BTreeSet::new();
                        for c in 0..total.min(16) {
                            if y >> c & 1 != 0 {
                                done.insert(c);
                            }
                        }
                        shadow.state(id, JobState::Running);
                        if x % 11 == 0 {
                            // Store open failed.
                            q.fail(id, now);
                            shadow.state(id, JobState::Failed);
                        } else {
                            q.start(id, done, now).expect("start queued job");
                            shadow.done_after_flush(&q, id);
                        }
                    }
                }
                5 => {
                    if let Ok(state) = q.cancel(job, now) {
                        shadow.state(job, state);
                    }
                }
                6 | 7 => { let _ = q.claim(conn, now); }
                8 => q.renew(conn, job, cell, now),
                9 => {
                    let parked = Parked {
                        line: format!("{{\"cell\": {cell}}}"),
                        trials: 2,
                        elapsed_secs: 0.1,
                    };
                    // Like the daemon, flush only after a result parks.
                    if q.ingest(job, cell, parked, x % 7 != 0) == Ingest::Parked {
                        while q.pop_flushable(job, now).is_some() {}
                        shadow.done_after_flush(&q, job);
                    }
                }
                10 => q.release_conn(conn),
                11 => {
                    now += Duration::from_millis(x % 250);
                    let _ = q.sweep_expired(now);
                }
                // Crash: rebuild from the journal, as `--resume` does, and
                // keep going on the recovered queue. Once in a while halt
                // first — a SIGTERM'd daemon that then dies must recover
                // identically to one that crashed mid-run.
                _ => {
                    if x % 5 == 0 {
                        q.halt();
                        prop_assert!(!q.accepting());
                        prop_assert!(q.next_activation().is_none());
                    }
                    let mut fresh = JobQueue::new(cfg.clone());
                    fresh.replay(&shadow.journal).expect("replay own journal");
                    q = fresh;
                }
            }
            if let Err(e) = q.check_invariants() {
                prop_assert!(false, "invariant violated after op {op}: {e}");
            }
            let c = q.counts();
            prop_assert_eq!(
                (c.queued + c.running + c.done + c.cancelled + c.failed) as usize,
                q.jobs().count(),
                "counts must partition the job set"
            );
            if q.halted() {
                prop_assert!(!q.accepting(), "a halted queue never accepts");
            }
        }
        // Final recovery must always work: whatever state the run ended
        // in, the journal alone rebuilds a structurally valid queue.
        let mut fresh = JobQueue::new(cfg);
        fresh.replay(&shadow.journal).expect("final replay");
        prop_assert!(fresh.check_invariants().is_ok());
        prop_assert_eq!(fresh.jobs().count(), q.jobs().count());
        // Running and Done are all the journal needs: every job replays to
        // its live state, a running one folded back to queued.
        for job in q.jobs() {
            let folded = match job.state {
                JobState::Running => JobState::Queued,
                other => other,
            };
            prop_assert_eq!(fresh.job(job.id).map(|j| j.state), Some(folded), "job {}", job.id);
        }
    }
}

/// Escaping stress pool for journal payload strings (same spirit as the
/// wire-protocol props).
const NASTY: [&str; 6] = [
    "",
    "plain",
    "he said \"hi\"",
    "back\\slash\\",
    "line\nbreak\ttab",
    "κόσμε 🦀",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every journal event round-trips through its line encoding, hostile
    /// strings and optional descriptor fields included.
    #[test]
    fn journal_events_round_trip(
        kind in 0usize..2,
        x in any::<u64>(),
        y in any::<u64>(),
        a in 0usize..NASTY.len(),
        b in 0usize..NASTY.len(),
    ) {
        let event = match kind {
            0 => JournalEvent::Submit {
                job: x,
                client: format!("{}{}", NASTY[a], NASTY[b]),
                spec: SpecDescriptor {
                    preset: format!("{}{x}", NASTY[b]),
                    name: (y & 1 != 0).then(|| NASTY[a].to_string()),
                    trials: (y & 2 != 0).then_some(x),
                    seed: (y & 4 != 0).then_some(y),
                    ns: (y & 8 != 0).then(|| format!("{},{}", NASTY[b], x)),
                },
                fingerprint: y,
                cells: x ^ y,
            },
            _ => JournalEvent::State {
                job: x,
                state: match y % 5 {
                    0 => JobState::Queued,
                    1 => JobState::Running,
                    2 => JobState::Done,
                    3 => JobState::Cancelled,
                    _ => JobState::Failed,
                },
            },
        };
        let line = event.to_line();
        prop_assert!(!line.contains('\n'), "one line per event: {:?}", line);
        let back = JournalEvent::decode(&line).expect("decode");
        prop_assert_eq!(back, event, "line: {}", line);
    }

    /// Whatever bytes end up in a journal, decode never panics.
    #[test]
    fn journal_decode_never_panics(
        a in 0usize..NASTY.len(),
        b in 0usize..NASTY.len(),
        x in any::<u64>(),
        cut in 0usize..80,
    ) {
        let _ = JournalEvent::decode(&format!("{}{}{x}", NASTY[a], NASTY[b]));
        let line = JournalEvent::State { job: x, state: JobState::Running }.to_line();
        let mut cut = cut.min(line.len());
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = JournalEvent::decode(&line[..cut]);
    }
}
