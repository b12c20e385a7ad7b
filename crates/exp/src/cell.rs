//! Campaign cells — a simulation spec, a trial budget, and a seed — and
//! the one executor that runs any number of them on the shared
//! [`ThreadPool`].
//!
//! Execution model: [`CellStream`] lays the cells' chunks end to end into
//! one campaign-wide cursor of `(cell, chunk)` units, issued in grid order,
//! and submits **one long-lived job per pool thread** for the whole call.
//! Each worker owns one [`TrialWorkspace`] that it reuses across every
//! trial of every cell it touches, pulls the next unit off the shared
//! cursor, folds the chunk worker-side into a partial [`CellAggregate`],
//! and ships the partial (not a `Vec<TrialMetrics>`) back over a channel.
//! A worker that finishes the last chunk of one cell simply takes the
//! first chunk of the next, so cells never wait for each other.
//!
//! The caller merges partials in unit order: within a cell that is chunk
//! order, and a cell is handed back the moment its last chunk merges — so
//! finished cells come back in cell order, and partials that arrive early
//! (a later cell's chunks included) are parked until their turn.
//! [`run_cell`] and [`run_cell_monitored`] are the one-cell case of the
//! same stream; `run_campaign` makes one stream over all its to-do cells.
//!
//! Determinism contract: trial `i` of a cell always runs with seed
//! `derive_seed(cell.seed, i)`, and [`CellAggregate::merge`] is exact
//! integer arithmetic, so merging partials in any order equals a
//! sequential fold. Each resulting [`CellAggregate`] is therefore a pure
//! function of its [`CellSpec`] — independent of thread count, chunk
//! size, scheduling, and which other cells share the cursor. (The merger
//! still goes in unit order, so telemetry can attribute each chunk's delta
//! to its cell as the cell completes.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use stabcon_core::runner::SimSpec;
use stabcon_core::workspace::TrialWorkspace;
use stabcon_obs::{self as obs, Counter, Hist, WorkerHandle, WorkerSnap};
use stabcon_par::ThreadPool;
use stabcon_util::rng::derive_seed;

use crate::aggregate::{fold_net_totals, CellAggregate, TrialMetrics};
use crate::metrics::HitMetric;
use crate::observer::TrialObserver;
use crate::telemetry::CampaignTelemetry;

/// Smallest auto-tuned chunk: tiny cells must not shatter into one-trial
/// chunks (per-chunk cost is one atomic fetch plus one channel send, but
/// the ordered-merge window grows with chunk count).
const MIN_CHUNK: u64 = 4;

/// Largest auto-tuned chunk: bounds how much work a single straggler chunk
/// can hold hostage at the end of a campaign, and how long the partials
/// finished after it stay parked.
const MAX_CHUNK: u64 = 256;

/// Trials per scheduler chunk for a cell of `trials` trials on `threads`
/// workers: aims for at least four chunks per worker (so an unlucky slow
/// chunk load-balances away), clamped to `[4, 256]`.
pub fn chunk_for(trials: u64, threads: usize) -> u64 {
    let workers = threads.max(1) as u64;
    (trials / (4 * workers)).clamp(MIN_CHUNK, MAX_CHUNK)
}

/// The shared unit cursor, padded to a cache line of its own.
///
/// Every worker hits this counter once per chunk with a `fetch_add`; on
/// multi-socket or ≥ 8-core hosts an unpadded `AtomicU64` false-shares its
/// line with whatever sits next to it, so each unrelated write invalidates
/// the cursor line in every worker's cache. 128 bytes covers the two-line
/// prefetch granularity of recent x86 parts.
#[repr(align(128))]
struct ChunkCursor(AtomicU64);

/// A fully specified unit of campaign work.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Position in the campaign grid (0 for ad-hoc cells).
    pub id: u64,
    /// The simulation to run.
    pub sim: SimSpec,
    /// Independent trials.
    pub trials: u64,
    /// Cell master seed; trial `i` uses `derive_seed(seed, i)`.
    pub seed: u64,
    /// Hitting-time metric this cell reports.
    pub metric: HitMetric,
    /// Extra-metric observer (see [`crate::observer`]).
    pub observer: TrialObserver,
    /// Axis labels for the result store, in column order.
    pub labels: Vec<(String, String)>,
}

impl CellSpec {
    /// An ad-hoc cell with the consensus metric and no labels.
    pub fn new(sim: SimSpec, trials: u64, seed: u64) -> Self {
        Self {
            id: 0,
            sim,
            trials,
            seed,
            metric: HitMetric::Consensus,
            observer: TrialObserver::None,
            labels: Vec::new(),
        }
    }

    /// Set the reported metric.
    pub fn metric(mut self, metric: HitMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Attach a [`TrialObserver`]. A trajectory-needing observer turns on
    /// trajectory recording for the cell's sim — without it every trial
    /// would emit only no-sample sentinels.
    pub fn observer(mut self, observer: TrialObserver) -> Self {
        self.observer = observer;
        if observer.needs_trajectory() {
            self.sim = self.sim.record_trajectory(true);
        }
        self
    }

    /// Append an axis label.
    pub fn label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }
}

/// What the workers share: every cell with its chunk size, and the one
/// cursor over their concatenated chunks.
struct Plan {
    cells: Vec<(CellSpec, u64)>,
    /// `ends[c]`: units (chunks) of cells `0..=c`.
    ends: Vec<u64>,
    next: ChunkCursor,
}

impl Plan {
    fn units(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Units issued so far.
    fn issued(&self) -> u64 {
        self.next.0.load(Ordering::Relaxed).min(self.units())
    }

    /// Run unit `unit` — one chunk of one cell — through `ws`, recording
    /// into a fresh telemetry delta when `handle` is armed.
    fn run_unit(
        &self,
        unit: u64,
        ws: &mut TrialWorkspace,
        handle: Option<&WorkerHandle<'_>>,
    ) -> Finished {
        let started = Instant::now();
        let c = self.ends.partition_point(|&end| end <= unit);
        let k = unit - c.checked_sub(1).map_or(0, |p| self.ends[p]);
        let (cell, chunk) = &self.cells[c];
        let (lo, hi) = (k * chunk, ((k + 1) * chunk).min(cell.trials));
        let mut part = CellAggregate::new();
        let mut delta = handle.map(|_| Box::new(WorkerSnap::zero()));
        for i in lo..hi {
            let trial_clock = obs::stopwatch();
            let result = cell.sim.run_seeded_into(derive_seed(cell.seed, i), ws);
            if let Some(d) = delta.as_deref_mut() {
                if let Some(nanos) = trial_clock.elapsed_nanos() {
                    obs::hist_record(Hist::TrialNanos, nanos);
                }
                d.add(Counter::Trials, 1);
                d.add(Counter::Rounds, result.rounds_executed);
                if let Some(totals) = &result.net_totals {
                    fold_net_totals(d, totals);
                }
            }
            part.push(&TrialMetrics::capture(&cell.sim, &result, cell.observer));
            ws.recycle(result);
        }
        if let (Some(h), Some(d)) = (handle, delta.as_deref_mut()) {
            obs::hist_record(Hist::ChunkNanos, started.elapsed().as_nanos() as u64);
            d.add(Counter::Chunks, 1);
            d.drain_local();
            h.publish(d);
        }
        Finished {
            unit,
            part,
            started,
            finished: Instant::now(),
            delta,
        }
    }
}

/// One chunk on its way from a worker to the merger.
struct Finished {
    unit: u64,
    part: CellAggregate,
    started: Instant,
    finished: Instant,
    /// What the chunk recorded, when telemetry is armed.
    delta: Option<Box<WorkerSnap>>,
}

/// A cell handed back by [`CellStream::next_cell`].
#[derive(Debug)]
pub struct CellOutcome {
    /// The cell's merged aggregate.
    pub agg: CellAggregate,
    /// Wall clock from the start of its first chunk to the end of its last.
    /// Cells overlap on the cursor, so these spans overlap too.
    pub elapsed_secs: f64,
}

/// The executor: runs cells through one campaign-wide `(cell, chunk)`
/// cursor and hands them back, in cell order, from
/// [`CellStream::next_cell`].
///
/// Dropping the stream early (say, after a store error) exhausts the
/// cursor: each worker finishes the chunk in hand and exits.
pub struct CellStream {
    plan: Arc<Plan>,
    rx: mpsc::Receiver<Finished>,
    /// Chunks that arrived ahead of their turn, by unit.
    parked: BTreeMap<u64, Finished>,
    merged: u64,
    delivered: usize,
}

impl CellStream {
    /// Start one job per pool thread over `cells`, `chunk` trials per unit
    /// (`None`: [`chunk_for`] each cell on this pool). With `telemetry`
    /// armed, every chunk also records into its worker's registry slot and
    /// ships what it recorded to the merger.
    pub fn start(
        pool: &ThreadPool,
        cells: &[CellSpec],
        chunk: Option<u64>,
        telemetry: Option<&CampaignTelemetry>,
    ) -> Self {
        let mut units = 0u64;
        let (planned, ends) = cells
            .iter()
            .map(|cell| {
                let chunk = chunk
                    .unwrap_or_else(|| chunk_for(cell.trials, pool.threads()))
                    .max(1);
                units += cell.trials.div_ceil(chunk);
                ((cell.clone(), chunk), units)
            })
            .unzip();
        let plan = Arc::new(Plan {
            cells: planned,
            ends,
            next: ChunkCursor(AtomicU64::new(0)),
        });
        let registry = telemetry.map(CampaignTelemetry::registry);
        let (tx, rx) = mpsc::channel();
        let workers = pool.threads().max(1).min(units as usize);
        for w in 0..workers {
            let (tx, plan, registry) = (tx.clone(), Arc::clone(&plan), registry.clone());
            pool.execute(move || {
                let handle = registry.as_deref().map(|r| r.handle(w));
                let mut ws = TrialWorkspace::new();
                loop {
                    let unit = plan.next.0.fetch_add(1, Ordering::Relaxed);
                    if unit >= plan.units() {
                        return;
                    }
                    // The receiver only disappears once the caller stopped
                    // listening; nothing useful to do with further chunks.
                    if tx
                        .send(plan.run_unit(unit, &mut ws, handle.as_ref()))
                        .is_err()
                    {
                        return;
                    }
                }
            });
        }
        Self {
            plan,
            rx,
            parked: BTreeMap::new(),
            merged: 0,
            delivered: 0,
        }
    }

    /// Wait for the next cell in cell order and hand it back (`None` once
    /// every cell has been). Each merged chunk reports to `telemetry`,
    /// which keeps the cell's profile as the sum of its chunks' deltas.
    ///
    /// # Panics
    /// Panics if a worker died before delivering its chunks (a trial
    /// panicked).
    pub fn next_cell(
        &mut self,
        mut telemetry: Option<&mut CampaignTelemetry>,
    ) -> Option<CellOutcome> {
        let (cell, _) = self.plan.cells.get(self.delivered)?;
        let end = self.plan.ends[self.delivered];
        let mut agg = CellAggregate::new();
        let mut span: Option<(Instant, Instant)> = None;
        while self.merged < end {
            let done = match self.parked.remove(&self.merged) {
                Some(done) => done,
                None => {
                    let done = self.rx.recv().unwrap_or_else(|_| {
                        panic!("cell {}: worker died before delivering all chunks", cell.id)
                    });
                    if done.unit != self.merged {
                        self.parked.insert(done.unit, done);
                        continue;
                    }
                    done
                }
            };
            agg.merge(&done.part);
            let (started, finished) = span.unwrap_or((done.started, done.finished));
            let started = started.min(done.started);
            span = Some((started, finished.max(done.finished)));
            self.merged += 1;
            if let (Some(t), Some(delta)) = (telemetry.as_deref_mut(), &done.delta) {
                t.on_chunk_merged(cell, started, delta, self.plan.issued(), self.merged);
            }
        }
        self.delivered += 1;
        Some(CellOutcome {
            agg,
            elapsed_secs: span.map_or(0.0, |(s, f)| (f - s).as_secs_f64()),
        })
    }
}

impl Drop for CellStream {
    fn drop(&mut self) {
        self.plan
            .next
            .0
            .fetch_max(self.plan.units(), Ordering::Relaxed);
    }
}

/// Run every trial of `cell` on `pool` and fold the results into a
/// streaming [`CellAggregate`]: the one-cell case of [`CellStream`], so at
/// most the out-of-order window of partials is ever resident — never the
/// full trial set.
///
/// # Panics
/// Panics if a worker died before delivering its chunks (a trial panicked).
pub fn run_cell(pool: &ThreadPool, cell: &CellSpec, chunk: u64) -> CellAggregate {
    run_cell_monitored(pool, cell, chunk, None)
}

/// [`run_cell`] with optional campaign telemetry attached.
///
/// With `Some(telemetry)` each worker records trial/chunk counters,
/// duration histograms, and the trial's network totals into its
/// [`stabcon_obs`] registry slot and into the chunk's delta, and the
/// in-order merger reports progress after every merge. Telemetry is
/// observation-only: it never touches trial seeds, fold order, or the
/// aggregate, so the result — and any store built from it — is
/// byte-identical with telemetry on or off (pinned by
/// `tests/telemetry_props.rs`).
pub fn run_cell_monitored(
    pool: &ThreadPool,
    cell: &CellSpec,
    chunk: u64,
    telemetry: Option<&mut CampaignTelemetry>,
) -> CellAggregate {
    let cells = std::slice::from_ref(cell);
    let mut stream = CellStream::start(pool, cells, Some(chunk), telemetry.as_deref());
    stream.next_cell(telemetry).expect("one cell").agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ConvergenceStats;
    use stabcon_core::init::InitialCondition;

    fn base_cell() -> CellSpec {
        CellSpec::new(
            SimSpec::new(256).init(InitialCondition::UniformRandom { m: 6 }),
            25,
            0xCE11,
        )
    }

    #[test]
    fn thread_and_chunk_invariance() {
        let cell = base_cell();
        let reference = {
            let pool = ThreadPool::new(1);
            run_cell(&pool, &cell, 4)
        };
        for threads in [2, 8] {
            let pool = ThreadPool::new(threads);
            for chunk in [1, 3, 7, 25, 1000] {
                let agg = run_cell(&pool, &cell, chunk);
                assert_eq!(
                    agg, reference,
                    "aggregate differs at threads={threads} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn matches_materialized_run() {
        let cell = base_cell();
        let results: Vec<_> = (0..cell.trials)
            .map(|i| cell.sim.run_seeded(derive_seed(cell.seed, i)))
            .collect();
        let materialized = ConvergenceStats::from_results(&results, HitMetric::Consensus);
        let pool = ThreadPool::new(4);
        let streamed = run_cell(&pool, &cell, chunk_for(cell.trials, pool.threads()))
            .convergence(HitMetric::Consensus);
        assert_eq!(streamed.rounds, materialized.rounds);
        assert_eq!(streamed.hits, materialized.hits);
    }

    #[test]
    fn chunk_for_targets_four_chunks_per_worker() {
        assert_eq!(chunk_for(1000, 1), 250, "trials/4 for one worker");
        assert_eq!(chunk_for(1000, 8), 31, "trials/32 for eight workers");
        assert_eq!(chunk_for(10_000_000, 8), 256, "capped above");
        assert_eq!(chunk_for(3, 8), 4, "tiny cells don't shatter");
        assert_eq!(chunk_for(0, 4), 4, "degenerate cell still valid");
        // Every worker gets ≥ 4 chunks once the cell is large enough.
        for threads in [1usize, 2, 8, 16] {
            let trials = 100_000u64;
            let chunks = trials.div_ceil(chunk_for(trials, threads));
            assert!(
                chunks >= 4 * threads as u64,
                "threads={threads}: only {chunks} chunks"
            );
        }
    }

    #[test]
    fn stream_hands_back_each_cell_as_if_run_alone() {
        let cells: Vec<CellSpec> = [(64, 9), (512, 1), (96, 0), (256, 5)]
            .into_iter()
            .enumerate()
            .map(|(id, (n, trials))| CellSpec {
                id: id as u64,
                ..CellSpec::new(SimSpec::new(n), trials, 0x57 + id as u64)
            })
            .collect();
        let alone: Vec<CellAggregate> = {
            let pool = ThreadPool::new(1);
            cells.iter().map(|c| run_cell(&pool, c, 4)).collect()
        };
        let pool = ThreadPool::new(2);
        for chunk in [Some(1), Some(2), None] {
            let mut stream = CellStream::start(&pool, &cells, chunk, None);
            for expected in &alone {
                let got = stream.next_cell(None).expect("one outcome per cell");
                assert_eq!(&got.agg, expected, "chunk {chunk:?}");
            }
            assert!(stream.next_cell(None).is_none());
        }
        // A stream dropped after its first cell stops its workers.
        let mut stream = CellStream::start(&pool, &cells, Some(1), None);
        assert_eq!(stream.next_cell(None).expect("first cell").agg, alone[0]);
        drop(stream);
        drop(pool); // joins: must not hang
    }

    #[test]
    fn zero_trials_is_empty() {
        let pool = ThreadPool::new(2);
        let mut cell = base_cell();
        cell.trials = 0;
        let agg = run_cell(&pool, &cell, 8);
        assert_eq!(agg.trials(), 0);
    }
}
