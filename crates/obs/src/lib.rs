//! # stabcon-obs
//!
//! Allocation-free telemetry for the `stabcon` workspace: a per-worker
//! [`MetricRegistry`] of fixed-slot counters, gauges, and power-of-2-bucket
//! duration histograms, plus phase timers that the engines drop into their
//! hot loops.
//!
//! ## Design
//!
//! * **Observation-only.** Nothing here feeds back into simulation state,
//!   RNG streams, or aggregation order — campaign stores are byte-identical
//!   with telemetry on or off, at any thread count (property-tested in
//!   `stabcon-exp`).
//! * **Off by default, no-op when off.** A single global flag
//!   ([`set_enabled`]) gates every instrumentation point. When disabled,
//!   [`phase`] and [`hist_record`] reduce to one relaxed load and a
//!   predicted branch — no clock reads, no thread-local traffic — so the
//!   dense kernel's per-block phases stay untouched on the default path.
//! * **Zero steady-state allocation.** The registry's slots, the
//!   thread-local accumulators, and [`Snapshot`] buffers are all fixed-size
//!   and allocated up front; recording and draining are plain stores and
//!   relaxed atomic adds. This is the same discipline the workspace's
//!   `alloc_regression` gate pins for trials, and telemetry-enabled trials
//!   are held to it too.
//! * **Lock-free per-worker slots.** Each worker owns a cache-line-aligned
//!   [`WorkerSlot`]; recording never contends. A [`Snapshot`] merge reads
//!   every slot with relaxed loads — cheap enough to drive live progress
//!   lines and the JSONL telemetry sink while a campaign runs.
//!
//! ## Flow
//!
//! Engines record *phases* ([`Phase`]) into a thread-local accumulator via
//! RAII [`PhaseGuard`]s; trial/chunk durations go to thread-local
//! histograms via [`hist_record`]. The experiment scheduler's workers count
//! each chunk into a [`WorkerSnap`] delta, [`WorkerSnap::drain_local`] the
//! thread-local sums into it, and [`WorkerHandle::publish`] it to their
//! registry slot; the same delta travels with the chunk, so a cell's profile
//! is the sum of its own chunks even while cells overlap. Anything with a
//! `&MetricRegistry` can [`MetricRegistry::snapshot_into`] a reusable
//! [`Snapshot`] and render or serialize it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metric identifiers: fixed slots, stable names.
// ---------------------------------------------------------------------------

/// A timed phase of the simulation pipeline. Each variant is a fixed slot in
/// the per-worker accumulators; [`Phase::name`] is the stable label used in
/// snapshots, tables, and the telemetry JSONL schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Dense kernel: filling each ball's counter-stream word sequence
    /// (`fill_stream_words`, one fill for the uniform, load-sampled and
    /// partial paths).
    Rng = 0,
    /// Dense kernel: index resolution (32-bit Lemire multiply-shift per
    /// half with exact rejection / alias draw per word).
    Index = 1,
    /// Dense kernel: the gather loop (pure loads over the state vector).
    Gather = 2,
    /// Dense kernel: applying the block's new values (`apply_block`).
    Apply = 3,
    /// Dense kernel, partial rounds: participation coin flips + compaction.
    Coin = 4,
    /// Adaptive engine: the dense→histogram handoff snapshot.
    Handoff = 5,
    /// Message engine: routing a round of request/response traffic.
    Route = 6,
    /// Message engine: `NetScenario` fault draws (drops, delays, forging).
    Faults = 7,
    /// One whole trial inside `run_seeded_into` (overlaps the finer phases).
    Trial = 8,
    /// Runner: building a trial's initial state, load table, value set and
    /// engine buffers, and observing round 0.
    Init = 9,
    /// Runner: one adversary round through the `Corruptor`, load moves
    /// included.
    Adversary = 10,
    /// Runner: folding a dense round into the load table, the round's
    /// observables, and the stability tracker.
    Loads = 11,
    /// Runner: rebuilding the load-sampled round's alias table.
    Sampler = 12,
    /// Runner: one aggregated round after the adaptive handoff.
    Hist = 13,
}

/// Number of [`Phase`] slots.
pub const PHASE_COUNT: usize = 14;

impl Phase {
    /// Every phase, in slot order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Rng,
        Phase::Index,
        Phase::Gather,
        Phase::Apply,
        Phase::Coin,
        Phase::Handoff,
        Phase::Route,
        Phase::Faults,
        Phase::Trial,
        Phase::Init,
        Phase::Adversary,
        Phase::Loads,
        Phase::Sampler,
        Phase::Hist,
    ];

    /// Stable snake_case label (schema-visible; do not repurpose).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Rng => "rng",
            Phase::Index => "index",
            Phase::Gather => "gather",
            Phase::Apply => "apply",
            Phase::Coin => "coin",
            Phase::Handoff => "handoff",
            Phase::Route => "route",
            Phase::Faults => "faults",
            Phase::Trial => "trial",
            Phase::Init => "init",
            Phase::Adversary => "adversary",
            Phase::Loads => "loads",
            Phase::Sampler => "sampler",
            Phase::Hist => "hist",
        }
    }
}

/// A monotone counter slot. The `Net*` counters mirror the message engine's
/// `RoundMetrics` totals — including the PR 6 fault fields `link_dropped`,
/// `partition_dropped`, and `forged` — and are folded from `net_totals` in
/// exactly one place (`stabcon_exp::aggregate::fold_net_totals`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Trials completed by this worker.
    Trials = 0,
    /// Chunks completed by this worker.
    Chunks = 1,
    /// Simulation rounds executed.
    Rounds = 2,
    /// Message engine: request legs sent.
    NetRequests = 3,
    /// Message engine: response legs delivered.
    NetDelivered = 4,
    /// Message engine: legs dropped by inbox overflow / crash loss.
    NetDropped = 5,
    /// Message engine: legs dropped by per-link Bernoulli loss.
    NetLinkDropped = 6,
    /// Message engine: legs dropped crossing a partition cut.
    NetPartitionDropped = 7,
    /// Message engine: responses forged by byzantine processes.
    NetForged = 8,
}

/// Number of [`Counter`] slots.
pub const COUNTER_COUNT: usize = 9;

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::Trials,
        Counter::Chunks,
        Counter::Rounds,
        Counter::NetRequests,
        Counter::NetDelivered,
        Counter::NetDropped,
        Counter::NetLinkDropped,
        Counter::NetPartitionDropped,
        Counter::NetForged,
    ];

    /// Stable snake_case label (schema-visible; do not repurpose).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Trials => "trials",
            Counter::Chunks => "chunks",
            Counter::Rounds => "rounds",
            Counter::NetRequests => "net_requests",
            Counter::NetDelivered => "net_delivered",
            Counter::NetDropped => "net_dropped",
            Counter::NetLinkDropped => "net_link_dropped",
            Counter::NetPartitionDropped => "net_partition_dropped",
            Counter::NetForged => "net_forged",
        }
    }
}

/// A gauge slot: a level, not a sum. Merged across workers by `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Message engine: peak in-flight queue depth seen (peak, not sum —
    /// mirrors `RoundMetrics::in_flight`'s max-absorb semantics).
    NetInFlightPeak = 0,
    /// Chunk scheduler: issued-cursor minus merged-chunk lag (how far the
    /// in-order merger trails the workers).
    CursorLag = 1,
}

/// Number of [`Gauge`] slots.
pub const GAUGE_COUNT: usize = 2;

impl Gauge {
    /// Every gauge, in slot order.
    pub const ALL: [Gauge; GAUGE_COUNT] = [Gauge::NetInFlightPeak, Gauge::CursorLag];

    /// Stable snake_case label (schema-visible; do not repurpose).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::NetInFlightPeak => "net_in_flight_peak",
            Gauge::CursorLag => "cursor_lag",
        }
    }
}

/// A duration histogram slot with power-of-2 nanosecond buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Wall-clock nanoseconds per trial.
    TrialNanos = 0,
    /// Wall-clock nanoseconds per completed chunk.
    ChunkNanos = 1,
}

/// Number of [`Hist`] slots.
pub const HIST_COUNT: usize = 2;

/// Buckets per histogram: bucket `b > 0` counts samples in
/// `[2^(b-1), 2^b)` nanoseconds, bucket 0 counts zeros. 48 buckets cover
/// ~78 hours — far beyond any single trial or chunk.
pub const HIST_BUCKETS: usize = 48;

impl Hist {
    /// Every histogram, in slot order.
    pub const ALL: [Hist; HIST_COUNT] = [Hist::TrialNanos, Hist::ChunkNanos];

    /// Stable snake_case label (schema-visible; do not repurpose).
    pub fn name(self) -> &'static str {
        match self {
            Hist::TrialNanos => "trial_nanos",
            Hist::ChunkNanos => "chunk_nanos",
        }
    }
}

/// The bucket index a sample of `nanos` falls into: `floor(log2(n)) + 1`,
/// clamped to the last bucket (0 lands in bucket 0).
#[inline]
pub fn bucket_of(nanos: u64) -> usize {
    (64 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive lower bound of a bucket, in nanoseconds.
#[inline]
pub fn bucket_low(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

// ---------------------------------------------------------------------------
// Global enable flag.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn instrumentation on or off, process-wide. Off is the default: every
/// record point then short-circuits before touching a clock or the
/// thread-local accumulator.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether instrumentation is currently on (one relaxed load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Thread-local accumulation: where guards and histograms record.
// ---------------------------------------------------------------------------

struct LocalAccum {
    phase_nanos: [Cell<u64>; PHASE_COUNT],
    phase_calls: [Cell<u64>; PHASE_COUNT],
    hist: [[Cell<u64>; HIST_BUCKETS]; HIST_COUNT],
}

// `Cell` array initializers via associated consts: `Cell::new` is const but
// `Cell` is not `Copy`, so repeat-expression arrays need a named const item.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_CELL: Cell<u64> = Cell::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [Cell<u64>; HIST_BUCKETS] = [ZERO_CELL; HIST_BUCKETS];

impl LocalAccum {
    const fn new() -> Self {
        Self {
            phase_nanos: [ZERO_CELL; PHASE_COUNT],
            phase_calls: [ZERO_CELL; PHASE_COUNT],
            hist: [ZERO_ROW; HIST_COUNT],
        }
    }

    #[inline]
    fn bump(&self, cell: &Cell<u64>, by: u64) {
        cell.set(cell.get() + by);
    }
}

thread_local! {
    // Const-initialized: no lazy allocation on first access.
    static LOCAL: LocalAccum = const { LocalAccum::new() };
}

/// RAII phase timer: created by [`phase`], accumulates elapsed nanoseconds
/// into the thread-local slot on drop. Inert (no clock read on either end)
/// when telemetry is disabled.
#[must_use = "a phase guard times its scope; dropping it immediately records nothing useful"]
pub struct PhaseGuard {
    phase: Phase,
    start: Option<Instant>,
}

/// Start timing `p`. Bind the result (`let _t = obs::phase(...)`) so the
/// guard lives to the end of the phase's scope.
#[inline(always)]
pub fn phase(p: Phase) -> PhaseGuard {
    PhaseGuard {
        phase: p,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos() as u64;
            let i = self.phase as usize;
            LOCAL.with(|l| {
                l.bump(&l.phase_nanos[i], nanos);
                l.bump(&l.phase_calls[i], 1);
            });
        }
    }
}

/// A manual stopwatch for callers that want the elapsed value itself (e.g.
/// to feed a histogram *and* a progress line). Inert when disabled.
pub struct Stopwatch(Option<Instant>);

/// Start a stopwatch (no clock read when telemetry is disabled).
#[inline(always)]
pub fn stopwatch() -> Stopwatch {
    Stopwatch(if enabled() {
        Some(Instant::now())
    } else {
        None
    })
}

impl Stopwatch {
    /// Elapsed nanoseconds, or `None` when telemetry was off at the start.
    #[inline]
    pub fn elapsed_nanos(&self) -> Option<u64> {
        self.0.map(|s| s.elapsed().as_nanos() as u64)
    }
}

/// Record one duration sample into histogram `h` (thread-local; moved to a
/// worker slot by [`WorkerHandle::drain_local`]). No-op when disabled.
#[inline(always)]
pub fn hist_record(h: Hist, nanos: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let cell = &l.hist[h as usize][bucket_of(nanos)];
        cell.set(cell.get() + 1);
    });
}

// ---------------------------------------------------------------------------
// The registry: per-worker slots, merged snapshots.
// ---------------------------------------------------------------------------

// Atomic array initializers need the same named-const workaround as `Cell`.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ATOMIC: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ATOMIC_ROW: [AtomicU64; HIST_BUCKETS] = [ZERO_ATOMIC; HIST_BUCKETS];

/// One worker's metric slots. Cache-line-aligned so concurrent workers never
/// false-share; only that worker writes it, so every write is a relaxed add.
#[repr(align(128))]
pub struct WorkerSlot {
    counters: [AtomicU64; COUNTER_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    phase_calls: [AtomicU64; PHASE_COUNT],
    hist: [[AtomicU64; HIST_BUCKETS]; HIST_COUNT],
}

impl WorkerSlot {
    const fn new() -> Self {
        Self {
            counters: [ZERO_ATOMIC; COUNTER_COUNT],
            gauges: [ZERO_ATOMIC; GAUGE_COUNT],
            phase_nanos: [ZERO_ATOMIC; PHASE_COUNT],
            phase_calls: [ZERO_ATOMIC; PHASE_COUNT],
            hist: [ZERO_ATOMIC_ROW; HIST_COUNT],
        }
    }

    fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for p in &self.phase_nanos {
            p.store(0, Ordering::Relaxed);
        }
        for p in &self.phase_calls {
            p.store(0, Ordering::Relaxed);
        }
        for row in &self.hist {
            for b in row {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// The shared registry: one [`WorkerSlot`] per worker, allocated once at
/// construction. Share it via `Arc` and hand each worker its
/// [`WorkerHandle`].
pub struct MetricRegistry {
    slots: Box<[WorkerSlot]>,
}

impl MetricRegistry {
    /// A registry with `workers` slots (at least one).
    pub fn new(workers: usize) -> Self {
        Self {
            slots: (0..workers.max(1)).map(|_| WorkerSlot::new()).collect(),
        }
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The recording handle for worker `worker` (wraps around if callers
    /// spawn more workers than slots — metrics then share, never panic).
    pub fn handle(&self, worker: usize) -> WorkerHandle<'_> {
        WorkerHandle {
            slot: &self.slots[worker % self.slots.len()],
        }
    }

    /// Zero every slot (e.g. between cells a caller drives one at a time
    /// and reads from the registry).
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.reset();
        }
    }

    /// Read every slot into `out` (sized via [`Snapshot::new`] with this
    /// registry's worker count) and recompute the merged total. Allocates
    /// nothing; safe to call while workers are recording.
    pub fn snapshot_into(&self, out: &mut Snapshot) {
        assert_eq!(
            out.workers.len(),
            self.slots.len(),
            "snapshot sized for a different worker count"
        );
        let mut total = WorkerSnap::zero();
        for (slot, snap) in self.slots.iter().zip(out.workers.iter_mut()) {
            for (i, c) in slot.counters.iter().enumerate() {
                snap.counters[i] = c.load(Ordering::Relaxed);
            }
            for (i, g) in slot.gauges.iter().enumerate() {
                snap.gauges[i] = g.load(Ordering::Relaxed);
            }
            for (i, p) in slot.phase_nanos.iter().enumerate() {
                snap.phase_nanos[i] = p.load(Ordering::Relaxed);
            }
            for (i, p) in slot.phase_calls.iter().enumerate() {
                snap.phase_calls[i] = p.load(Ordering::Relaxed);
            }
            for (h, row) in slot.hist.iter().enumerate() {
                for (b, cell) in row.iter().enumerate() {
                    snap.hist[h][b] = cell.load(Ordering::Relaxed);
                }
            }
            total.absorb(snap);
        }
        out.total = total;
    }
}

/// One worker's recording handle: relaxed stores into its own slot.
#[derive(Clone, Copy)]
pub struct WorkerHandle<'a> {
    slot: &'a WorkerSlot,
}

impl WorkerHandle<'_> {
    /// Add `by` to counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, by: u64) {
        self.slot.counters[c as usize].fetch_add(by, Ordering::Relaxed);
    }

    /// Set gauge `g` to `v`.
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        self.slot.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Raise gauge `g` to at least `v` (peak-tracking).
    #[inline]
    pub fn gauge_max(&self, g: Gauge, v: u64) {
        self.slot.gauges[g as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Move this thread's accumulated phase times and histogram samples
    /// into the slot. Call from the owning worker thread (typically once
    /// per trial or chunk); cheap when nothing accumulated.
    pub fn drain_local(&self) {
        let mut delta = WorkerSnap::zero();
        delta.drain_local();
        self.publish(&delta);
    }

    /// Add a delta recorded elsewhere (see [`WorkerSnap::drain_local`]) to
    /// the slot: counters, phase times and histograms sum, gauges take the
    /// max.
    pub fn publish(&self, delta: &WorkerSnap) {
        let add = |slot: &AtomicU64, v: u64| {
            if v != 0 {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        };
        for (slot, &v) in self.slot.counters.iter().zip(&delta.counters) {
            add(slot, v);
        }
        for (slot, &v) in self.slot.gauges.iter().zip(&delta.gauges) {
            slot.fetch_max(v, Ordering::Relaxed);
        }
        for i in 0..PHASE_COUNT {
            add(&self.slot.phase_nanos[i], delta.phase_nanos[i]);
            add(&self.slot.phase_calls[i], delta.phase_calls[i]);
        }
        for (row, deltas) in self.slot.hist.iter().zip(&delta.hist) {
            for (slot, &v) in row.iter().zip(deltas) {
                add(slot, v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// One worker's metrics at a point in time (plain `Copy` data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnap {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; COUNTER_COUNT],
    /// Gauge values, indexed by `Gauge as usize`.
    pub gauges: [u64; GAUGE_COUNT],
    /// Accumulated nanoseconds per phase, indexed by `Phase as usize`.
    pub phase_nanos: [u64; PHASE_COUNT],
    /// Guard invocations per phase, indexed by `Phase as usize`.
    pub phase_calls: [u64; PHASE_COUNT],
    /// Histogram buckets, indexed by `Hist as usize` then bucket.
    pub hist: [[u64; HIST_BUCKETS]; HIST_COUNT],
}

impl WorkerSnap {
    /// The all-zero snapshot.
    pub const fn zero() -> Self {
        Self {
            counters: [0; COUNTER_COUNT],
            gauges: [0; GAUGE_COUNT],
            phase_nanos: [0; PHASE_COUNT],
            phase_calls: [0; PHASE_COUNT],
            hist: [[0; HIST_BUCKETS]; HIST_COUNT],
        }
    }

    /// Merge another worker's snapshot into this one: counters, phase
    /// times, and histograms sum; gauges (levels) take the max.
    pub fn absorb(&mut self, other: &WorkerSnap) {
        for i in 0..COUNTER_COUNT {
            self.counters[i] += other.counters[i];
        }
        for i in 0..GAUGE_COUNT {
            self.gauges[i] = self.gauges[i].max(other.gauges[i]);
        }
        for i in 0..PHASE_COUNT {
            self.phase_nanos[i] += other.phase_nanos[i];
            self.phase_calls[i] += other.phase_calls[i];
        }
        for h in 0..HIST_COUNT {
            for b in 0..HIST_BUCKETS {
                self.hist[h][b] += other.hist[h][b];
            }
        }
    }

    /// Move this thread's accumulated phase times and histogram samples
    /// into this snapshot, zeroing the thread-local accumulator. A worker
    /// calls it once per chunk, so the snapshot holds exactly what that
    /// chunk recorded.
    pub fn drain_local(&mut self) {
        LOCAL.with(|l| {
            for i in 0..PHASE_COUNT {
                self.phase_nanos[i] += l.phase_nanos[i].replace(0);
                self.phase_calls[i] += l.phase_calls[i].replace(0);
            }
            for (row, cells) in self.hist.iter_mut().zip(&l.hist) {
                for (b, cell) in row.iter_mut().zip(cells) {
                    *b += cell.replace(0);
                }
            }
        });
    }

    /// Add `by` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, by: u64) {
        self.counters[c as usize] += by;
    }

    /// Raise gauge `g` to at least `v` (peak-tracking).
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g as usize];
        *slot = (*slot).max(v);
    }

    /// Counter value.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Gauge value.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Accumulated nanoseconds in phase `p`.
    #[inline]
    pub fn phase_nanos(&self, p: Phase) -> u64 {
        self.phase_nanos[p as usize]
    }

    /// Guard invocations of phase `p`.
    #[inline]
    pub fn phase_calls(&self, p: Phase) -> u64 {
        self.phase_calls[p as usize]
    }

    /// Total samples in histogram `h`.
    pub fn hist_count(&self, h: Hist) -> u64 {
        self.hist[h as usize].iter().sum()
    }

    /// The buckets of histogram `h`.
    #[inline]
    pub fn hist_buckets(&self, h: Hist) -> &[u64; HIST_BUCKETS] {
        &self.hist[h as usize]
    }
}

/// A reusable buffer for registry reads: per-worker snapshots plus their
/// merged total. Allocate once ([`Snapshot::new`]), refill with
/// [`MetricRegistry::snapshot_into`].
pub struct Snapshot {
    workers: Box<[WorkerSnap]>,
    total: WorkerSnap,
}

impl Snapshot {
    /// A snapshot buffer for `workers` slots (at least one).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: vec![WorkerSnap::zero(); workers.max(1)].into_boxed_slice(),
            total: WorkerSnap::zero(),
        }
    }

    /// Per-worker snapshots, in slot order.
    pub fn workers(&self) -> &[WorkerSnap] {
        &self.workers
    }

    /// The merged total (counters/phases/histograms summed, gauges maxed).
    pub fn total(&self) -> &WorkerSnap {
        &self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that flip the global flag.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn buckets_are_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for b in 0..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_low(b)), b.max(bucket_of(0)));
        }
        // Bucket bounds nest: low(b) < low(b+1).
        for b in 1..HIST_BUCKETS - 1 {
            assert!(bucket_low(b) < bucket_low(b + 1));
        }
    }

    #[test]
    fn disabled_guards_record_nothing() {
        let _g = GATE.lock().unwrap();
        set_enabled(false);
        {
            let _t = phase(Phase::Gather);
        }
        hist_record(Hist::TrialNanos, 1234);
        assert!(stopwatch().elapsed_nanos().is_none());
        let reg = MetricRegistry::new(1);
        reg.handle(0).drain_local();
        let mut snap = Snapshot::new(1);
        reg.snapshot_into(&mut snap);
        assert_eq!(snap.total().phase_calls(Phase::Gather), 0);
        assert_eq!(snap.total().hist_count(Hist::TrialNanos), 0);
    }

    #[test]
    fn enabled_guards_accumulate_and_drain() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        {
            let _t = phase(Phase::Gather);
            std::hint::black_box(0u64);
        }
        hist_record(Hist::TrialNanos, 1 << 20);
        set_enabled(false);

        let reg = MetricRegistry::new(2);
        let h = reg.handle(0);
        h.drain_local();
        h.add(Counter::Trials, 3);
        h.gauge_max(Gauge::NetInFlightPeak, 7);
        h.gauge_max(Gauge::NetInFlightPeak, 5); // peak keeps 7

        let mut snap = Snapshot::new(2);
        reg.snapshot_into(&mut snap);
        let t = snap.total();
        assert_eq!(t.phase_calls(Phase::Gather), 1);
        assert!(t.phase_nanos(Phase::Gather) > 0);
        assert_eq!(t.hist[Hist::TrialNanos as usize][bucket_of(1 << 20)], 1);
        assert_eq!(t.counter(Counter::Trials), 3);
        assert_eq!(t.gauge(Gauge::NetInFlightPeak), 7);
        // Worker 1 recorded nothing.
        assert_eq!(snap.workers()[1], WorkerSnap::zero());

        // Drained means drained: a second drain adds nothing.
        h.drain_local();
        reg.snapshot_into(&mut snap);
        assert_eq!(snap.total().phase_calls(Phase::Gather), 1);

        // Reset zeroes every slot.
        reg.reset();
        reg.snapshot_into(&mut snap);
        assert_eq!(*snap.total(), WorkerSnap::zero());
    }

    #[test]
    fn chunk_deltas_drain_the_thread_and_publish_to_the_slot() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        hist_record(Hist::ChunkNanos, 100);
        set_enabled(false);
        let mut delta = WorkerSnap::zero();
        delta.add(Counter::Trials, 2);
        delta.gauge_max(Gauge::NetInFlightPeak, 4);
        delta.drain_local();
        assert_eq!(delta.hist_count(Hist::ChunkNanos), 1);
        let mut again = WorkerSnap::zero();
        again.drain_local();
        assert_eq!(again, WorkerSnap::zero(), "the drain emptied the thread");

        let reg = MetricRegistry::new(1);
        let h = reg.handle(0);
        h.gauge_max(Gauge::NetInFlightPeak, 9);
        h.publish(&delta);
        h.publish(&delta);
        let mut snap = Snapshot::new(1);
        reg.snapshot_into(&mut snap);
        let t = snap.total();
        assert_eq!(t.counter(Counter::Trials), 4);
        assert_eq!(t.hist_count(Hist::ChunkNanos), 2);
        assert_eq!(t.gauge(Gauge::NetInFlightPeak), 9, "gauges take the max");
    }

    #[test]
    fn totals_merge_counters_sum_gauges_max() {
        let reg = MetricRegistry::new(3);
        for w in 0..3 {
            let h = reg.handle(w);
            h.add(Counter::Rounds, 10 * (w as u64 + 1));
            h.gauge_max(Gauge::CursorLag, w as u64);
        }
        let mut snap = Snapshot::new(3);
        reg.snapshot_into(&mut snap);
        assert_eq!(snap.total().counter(Counter::Rounds), 60);
        assert_eq!(snap.total().gauge(Gauge::CursorLag), 2);
        // Handles wrap rather than panic past the slot count.
        reg.handle(5).add(Counter::Rounds, 1);
        reg.snapshot_into(&mut snap);
        assert_eq!(snap.workers()[2].counter(Counter::Rounds), 31);
    }

    #[test]
    fn names_are_stable_and_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.name()));
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "metric names must be unique");
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
