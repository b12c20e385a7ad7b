//! Declarative campaigns: a cartesian grid over simulation axes, executed
//! through one campaign-wide chunk cursor and checkpointed to a JSONL store.
//!
//! A [`CampaignSpec`] expands to a deterministic list of [`CellSpec`]s
//! (fixed axis order, cell seeds derived from the master seed by cell id).
//! [`run_campaign`] runs all its to-do cells through one
//! [`CellStream`], whose workers move straight from one cell's chunks to
//! the next, and appends each completed cell to the store in cell order;
//! with [`RunConfig::resume`] it skips cells already in the store and
//! reproduces the remainder bit-identically — at any thread count, because
//! per-cell aggregation is thread- and chunk-invariant (see
//! [`crate::cell`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::engine::{EngineSpec, ScenarioSpec};
use stabcon_core::init::InitialCondition;
use stabcon_core::protocol::ProtocolSpec;
use stabcon_core::runner::SimSpec;
use stabcon_par::ThreadPool;
use stabcon_util::rng::derive_seed;

use crate::cell::{CellSpec, CellStream};
use crate::metrics::HitMetric;
use crate::observer::TrialObserver;
use crate::store;
use crate::telemetry::{self, CampaignTelemetry, CellProfile};

/// The canonical "√n-bounded" budget used across the harness: `⌊√n/4⌋`.
///
/// Calibration note: the paper's threshold is Θ̃(√n). Our *exact* balancing
/// adversary (which zeroes the two-bin gap every round) already stalls the
/// median rule at `T = √n` for laptop-scale `n`; at `T = √n/2` runs escape
/// but with heavy-tailed escape times; at `T = √n/4` convergence is cleanly
/// `O(log n)` — i.e. the measured crossover constant for the strongest
/// balancer lies between 0.25 and 1. The `threshold` preset sweeps the
/// exponent explicitly ([`BudgetSpec::Power`]) to locate the collapse.
pub fn sqrt_budget(n: usize) -> u64 {
    (((n as f64).sqrt() / 4.0).floor() as u64).max(1)
}

/// An initial condition expressed independently of `n`, so one grid axis
/// covers every population size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitSpec {
    /// Every ball in its own bin (`m = n` worst case).
    AllDistinct,
    /// Two bins split `⌊n/2⌋` / `⌈n/2⌉` (the worst-case two-bin instance).
    TwoBinsHalf,
    /// `m` bins with (near-)equal loads.
    MBinsEqual(u32),
    /// Every ball uniform over `m` bins.
    UniformRandom(u32),
    /// Two bins whose value-0 bin holds a minority sized from `n`.
    TwoBinsMinority(Minority),
    /// Values `0` and `k` alternating over the balls: the two-point
    /// instance on which an averaging rule leaves the initial values.
    ZeroOrK(u32),
}

/// The minority of an [`InitSpec::TwoBinsMinority`] start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Minority {
    /// `⌊√n/4⌋` (at least 1): no more holders than the canonical budget
    /// (see [`sqrt_budget`]) can erase.
    SqrtOver4,
    /// `⌊n/3⌋`: Lemma 11's doubling regime, imbalance `Δ₀ ≈ n/6`.
    Third,
    /// `⌊n/2⌋ − round(c·√n)`: imbalance `Δ₀ = round(c·√n)` on Lemma 15's
    /// scale. No such start exists once `2Δ₀ ≥ n`.
    HalfLessSqrt(u32),
}

impl InitSpec {
    /// Resolve to a concrete [`InitialCondition`] for population `n`, or
    /// `None` where the start does not exist at that `n` (a
    /// [`Minority::HalfLessSqrt`] imbalance of zero or of at least `n/2`).
    pub fn materialize(&self, n: usize) -> Option<InitialCondition> {
        Some(match *self {
            InitSpec::AllDistinct => InitialCondition::AllDistinct,
            InitSpec::TwoBinsHalf => InitialCondition::TwoBins { left: n / 2 },
            InitSpec::MBinsEqual(m) => InitialCondition::MBinsEqual { m },
            InitSpec::UniformRandom(m) => InitialCondition::UniformRandom { m },
            InitSpec::TwoBinsMinority(minority) => {
                let left = match minority {
                    Minority::SqrtOver4 => (sqrt_budget(n) as usize).min(n),
                    Minority::Third => n / 3,
                    Minority::HalfLessSqrt(c) => {
                        let delta0 = (f64::from(c) * (n as f64).sqrt()).round() as usize;
                        if delta0 == 0 || 2 * delta0 >= n {
                            return None;
                        }
                        n / 2 - delta0
                    }
                };
                InitialCondition::TwoBins { left }
            }
            InitSpec::ZeroOrK(k) => InitialCondition::Custom(Arc::new(
                (0..n).map(|i| if i % 2 == 0 { 0 } else { k }).collect(),
            )),
        })
    }

    /// Axis label.
    pub fn label(&self) -> String {
        match *self {
            InitSpec::AllDistinct => "all-distinct".into(),
            InitSpec::TwoBinsHalf => "two-bins-half".into(),
            InitSpec::MBinsEqual(m) => format!("m-equal({m})"),
            InitSpec::UniformRandom(m) => format!("uniform({m})"),
            InitSpec::TwoBinsMinority(Minority::SqrtOver4) => "two-bins(sqrt(n)/4)".into(),
            InitSpec::TwoBinsMinority(Minority::Third) => "two-bins(n/3)".into(),
            InitSpec::TwoBinsMinority(Minority::HalfLessSqrt(c)) => {
                format!("two-bins(n/2-{c}*sqrt(n))")
            }
            InitSpec::ZeroOrK(k) => format!("{{0,{k}}}"),
        }
    }
}

/// An adversary budget expressed independently of `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSpec {
    /// No corruption (forces the no-adversary path).
    Zero,
    /// A fixed budget `T`.
    Fixed(u64),
    /// The harness's canonical `⌊√n/4⌋` (see [`sqrt_budget`]).
    SqrtOver4,
    /// `T = max(1, round(n^α))` with `α = per_mille / 1000`.
    Power {
        /// The exponent α in thousandths.
        per_mille: u16,
    },
}

impl BudgetSpec {
    /// Resolve to a concrete budget for population `n`.
    pub fn resolve(&self, n: usize) -> u64 {
        match *self {
            BudgetSpec::Zero => 0,
            BudgetSpec::Fixed(t) => t,
            BudgetSpec::SqrtOver4 => sqrt_budget(n),
            BudgetSpec::Power { per_mille } => {
                let alpha = f64::from(per_mille) / 1000.0;
                (n as f64).powf(alpha).round().max(1.0) as u64
            }
        }
    }
}

/// A declarative campaign: the cartesian product of every axis.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (recorded in the store header).
    pub name: String,
    /// Master seed; cell `c` uses `derive_seed(seed, c)`.
    pub seed: u64,
    /// Trials per cell.
    pub trials: u64,
    /// Population-size axis.
    pub ns: Vec<usize>,
    /// Initial-condition axis.
    pub inits: Vec<InitSpec>,
    /// Protocol axis.
    pub protocols: Vec<ProtocolSpec>,
    /// Engine axis.
    pub engines: Vec<EngineSpec>,
    /// Network-scenario axis. For message engines each entry **replaces**
    /// the scenario embedded in the `MessageConfig` (configure faults here,
    /// not in the engine axis). Faulted scenarios apply only to message
    /// engines (they describe message traffic); a non-message engine
    /// expands only against the zero-fault entries of this axis, so
    /// idealized cells are never duplicated per fault configuration.
    pub scenarios: Vec<ScenarioSpec>,
    /// Adversary axis (strategy + budget; budget 0 disables corruption).
    pub adversaries: Vec<(AdversarySpec, BudgetSpec)>,
    /// Update-fraction axis: the share of balls that update each round
    /// (the α-asynchrony ablation, dense engines only). A cell below 1
    /// carries an `update` label; a cell at 1 carries none.
    pub update_fractions: Vec<f64>,
    /// Round-budget override (default: the [`SimSpec::new`] heuristic).
    pub max_rounds: Option<u64>,
    /// Extra-metric observer attached to every cell (an observer reads
    /// its parameters from each cell's spec, so it suits any grid).
    pub observer: TrialObserver,
}

impl Default for CampaignSpec {
    /// A compact smoke grid: two populations × {two-bins, all-distinct},
    /// median rule, dense engine, no adversary.
    fn default() -> Self {
        Self {
            name: "smoke".into(),
            seed: 0x5C0E,
            trials: 8,
            ns: vec![128, 256],
            inits: vec![InitSpec::TwoBinsHalf, InitSpec::AllDistinct],
            protocols: vec![ProtocolSpec::Median],
            engines: vec![EngineSpec::DenseSeq],
            scenarios: vec![ScenarioSpec::clean()],
            adversaries: vec![(AdversarySpec::None, BudgetSpec::Zero)],
            update_fractions: vec![1.0],
            max_rounds: None,
            observer: TrialObserver::None,
        }
    }
}

impl CampaignSpec {
    /// Expand the grid into cells, in the fixed axis order
    /// `n → init → protocol → engine → scenario → adversary → update`.
    ///
    /// A faulted scenario combines only with message engines (overriding
    /// the scenario embedded in their `MessageConfig`); non-message engines
    /// skip it, so the idealized cells appear once. An init that does not
    /// exist at some `n` (see [`InitSpec::materialize`]) skips that `n`.
    /// Cell ids — and with them the cell seeds — number the *emitted*
    /// cells consecutively.
    ///
    /// Adversarial cells report [`HitMetric::AlmostStable`], others
    /// [`HitMetric::Consensus`]. The observer decides trajectory recording
    /// and whether trials run to `max_rounds` past stability.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        let mut id = 0u64;
        for &n in &self.ns {
            for init in &self.inits {
                let Some(initial) = init.materialize(n) else {
                    continue;
                };
                for &protocol in &self.protocols {
                    for &engine in &self.engines {
                        // The engine column stays the axis value; the
                        // scenario has its own.
                        let engine_label = engine.label();
                        for &scenario in &self.scenarios {
                            let cell_engine = match engine {
                                EngineSpec::Message(mut cfg) => {
                                    cfg.scenario = scenario;
                                    EngineSpec::Message(cfg)
                                }
                                other if scenario.is_zero_fault() => other,
                                // Faults describe message traffic; idealized
                                // engines have none to inject them into.
                                _ => continue,
                            };
                            for &(adversary, budget) in &self.adversaries {
                                for &fraction in &self.update_fractions {
                                    let t = budget.resolve(n);
                                    let mut sim = SimSpec::new(n)
                                        .init(initial.clone())
                                        .protocol(protocol)
                                        .engine(cell_engine);
                                    if t > 0 {
                                        sim = sim.adversary(adversary, t);
                                    }
                                    if let Some(mr) = self.max_rounds {
                                        sim = sim.max_rounds(mr);
                                    }
                                    if self.observer.needs_trajectory() {
                                        sim = sim.record_trajectory(true);
                                    }
                                    if self.observer.needs_full_horizon() {
                                        sim = sim.full_horizon(true);
                                    }
                                    let metric = if t > 0 {
                                        HitMetric::AlmostStable
                                    } else {
                                        HitMetric::Consensus
                                    };
                                    let mut labels = vec![
                                        ("n".into(), n.to_string()),
                                        ("init".into(), init.label()),
                                        ("protocol".into(), protocol.label()),
                                        ("engine".into(), engine_label.clone()),
                                        ("scenario".into(), scenario.label()),
                                        ("adversary".into(), adversary.label().into_owned()),
                                        ("T".into(), t.to_string()),
                                    ];
                                    if fraction < 1.0 {
                                        sim = sim.update_fraction(fraction);
                                        labels.push(("update".into(), fraction.to_string()));
                                    }
                                    cells.push(CellSpec {
                                        id,
                                        sim,
                                        trials: self.trials,
                                        seed: derive_seed(self.seed, id),
                                        metric,
                                        observer: self.observer,
                                        labels,
                                    });
                                    id += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// A 64-bit FNV-1a fingerprint of the expanded grid. Stored in the
    /// header so `resume` refuses a store produced by a different spec.
    ///
    /// Hashes only semantically meaningful, stable inputs — cell ids,
    /// seeds, trial counts, metric and axis labels, and the explicit
    /// stopping overrides — never derived `Debug` output, so refactors
    /// that don't change campaign semantics keep old stores resumable.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_cells(&self.expand())
    }

    fn fingerprint_cells(&self, cells: &[CellSpec]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        eat(&self.seed.to_le_bytes());
        eat(&self.trials.to_le_bytes());
        eat(&self.max_rounds.unwrap_or(0).to_le_bytes());
        // The retired stability-window and almost-factor overrides, at
        // their unset values, so every stored fingerprint stays valid.
        eat(&0u64.to_le_bytes());
        eat(&(-1.0f64).to_le_bytes());
        for cell in cells {
            eat(&cell.id.to_le_bytes());
            eat(&cell.seed.to_le_bytes());
            eat(&cell.trials.to_le_bytes());
            eat(cell.metric.label().as_bytes());
            eat(cell.observer.label().as_bytes());
            for (k, v) in &cell.labels {
                eat(k.as_bytes());
                eat(v.as_bytes());
            }
        }
        h
    }

    /// The store header for this spec.
    pub fn header(&self) -> store::StoreHeader {
        self.header_with(&self.expand())
    }

    fn header_with(&self, cells: &[CellSpec]) -> store::StoreHeader {
        store::StoreHeader {
            name: self.name.clone(),
            seed: self.seed,
            trials: self.trials,
            cells: cells.len() as u64,
            fingerprint: self.fingerprint_cells(cells),
        }
    }
}

/// Execution knobs. None of them change the bytes of any record.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads for the shared pool.
    pub threads: usize,
    /// Trials per scheduler chunk; `None` auto-tunes per cell via
    /// [`crate::cell::chunk_for`].
    pub chunk: Option<u64>,
    /// Stop after this many *newly run* cells (checkpoint test hook / CI
    /// smoke interruption).
    pub max_cells: Option<u64>,
    /// Continue an existing store instead of refusing to overwrite it.
    pub resume: bool,
    /// Print live progress lines to stderr (arms the telemetry registry).
    pub progress: bool,
    /// Write periodic telemetry snapshots and per-cell profiles to this
    /// JSONL sink (arms the telemetry registry). See [`crate::telemetry`].
    pub telemetry: Option<PathBuf>,
    /// When appended cells are forced to stable storage (fsync policy) —
    /// never changes the bytes written, only the crash window. See
    /// [`store::Durability`].
    pub durability: store::Durability,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            threads: stabcon_par::default_threads(),
            chunk: None,
            max_cells: None,
            resume: false,
            progress: false,
            telemetry: None,
            durability: store::Durability::None,
        }
    }
}

/// What a campaign invocation did.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Cells in the grid.
    pub cells_total: u64,
    /// Cells executed by this invocation.
    pub cells_run: u64,
    /// Cells skipped because the store already had them.
    pub cells_skipped: u64,
    /// Trials executed by this invocation.
    pub trials_run: u64,
    /// The store path.
    pub store_path: PathBuf,
    /// Per-cell phase profiles for cells run with telemetry armed
    /// (empty otherwise). The CLI renders these as the final table.
    pub profiles: Vec<CellProfile>,
}

impl CampaignOutcome {
    /// Whether every grid cell is now in the store.
    pub fn complete(&self) -> bool {
        self.cells_run + self.cells_skipped == self.cells_total
    }
}

/// Run (or resume) a campaign against the JSONL store at `path`.
///
/// Fresh runs refuse an existing store; `resume` validates the stored
/// header against this spec's fingerprint, truncates any torn tail, skips
/// completed cells, and appends the remainder — producing a store
/// byte-identical to an uninterrupted run regardless of `threads`/`chunk`.
pub fn run_campaign(
    spec: &CampaignSpec,
    path: &Path,
    cfg: &RunConfig,
) -> Result<CampaignOutcome, String> {
    let cells = spec.expand();
    let header = spec.header_with(&cells);
    let (mut file, done) = store::open_for_append(path, &header, cfg.resume, cfg.durability)?;

    let pool = ThreadPool::new(cfg.threads);
    let mut outcome = CampaignOutcome {
        cells_total: cells.len() as u64,
        cells_run: 0,
        cells_skipped: 0,
        trials_run: 0,
        store_path: path.to_path_buf(),
        profiles: Vec::new(),
    };
    // Wall-clock timings never enter the fingerprinted store; they go to
    // the sidecar (always) and the telemetry sink (when requested).
    let mut timings = telemetry::open_timings(path, cfg.resume)?;
    // The resume skip and the `max_cells` cut come first, so the cursor
    // never issues a chunk of a cell this invocation will not append.
    let mut todo = Vec::new();
    for cell in &cells {
        if done.contains(&cell.id) {
            outcome.cells_skipped += 1;
        } else if cfg.max_cells.is_some_and(|k| todo.len() as u64 >= k) {
            break;
        } else {
            todo.push(cell.clone());
        }
    }
    let mut tel = if cfg.progress || cfg.telemetry.is_some() {
        Some(CampaignTelemetry::create(
            &spec.name,
            pool.threads().max(1),
            cells.len() as u64,
            todo.iter().map(|c| c.trials).sum(),
            cfg.progress,
            cfg.telemetry.as_deref(),
        )?)
    } else {
        None
    };
    let mut stream = CellStream::start(&pool, &todo, cfg.chunk, tel.as_ref());
    for cell in &todo {
        let done = stream
            .next_cell(tel.as_mut())
            .expect("one outcome per cell");
        let trials = done.agg.trials();
        file.append(&store::cell_line(cell, &done.agg))
            .map_err(|e| format!("append cell {}: {e}", cell.id))?;
        telemetry::append_timing(&mut timings, cell.id, trials, done.elapsed_secs)?;
        if let Some(t) = tel.as_mut() {
            t.end_cell(cell, trials, done.elapsed_secs);
        }
        outcome.cells_run += 1;
        outcome.trials_run += trials;
    }
    if let Some(t) = tel {
        outcome.profiles = t.finish();
    }
    file.finish()
        .map_err(|e| format!("sync store on finish: {e}"))?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("stabcon-campaign-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn tiny() -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            trials: 4,
            ns: vec![64, 96],
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn grid_expansion_shape_and_seeds() {
        let spec = tiny();
        let cells = spec.expand();
        assert_eq!(cells.len(), 2 * 2); // ns × inits
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i as u64);
            assert_eq!(c.seed, derive_seed(spec.seed, i as u64));
            assert_eq!(c.metric, HitMetric::Consensus);
            assert_eq!(c.labels.len(), 7);
        }
        // Adversarial axis flips the metric and sets the budget.
        let adv = CampaignSpec {
            adversaries: vec![(AdversarySpec::Random, BudgetSpec::SqrtOver4)],
            ..tiny()
        };
        for c in adv.expand() {
            assert_eq!(c.metric, HitMetric::AlmostStable);
        }
    }

    #[test]
    fn scenario_axis_applies_to_message_engines_only() {
        use stabcon_core::engine::MessageConfig;
        let hostile = ScenarioSpec::clean().with_latency(1, 3);
        let spec = CampaignSpec {
            ns: vec![64],
            inits: vec![InitSpec::TwoBinsHalf],
            engines: vec![
                EngineSpec::DenseSeq,
                EngineSpec::Message(MessageConfig::default()),
            ],
            scenarios: vec![ScenarioSpec::clean(), hostile],
            ..CampaignSpec::default()
        };
        let cells = spec.expand();
        // Dense × clean, message × clean, message × hostile: the dense
        // engine skips the faulted scenario.
        assert_eq!(cells.len(), 3);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i as u64, "emitted cells are numbered densely");
        }
        let scen_label = |c: &CellSpec| {
            c.labels
                .iter()
                .find(|(k, _)| k == "scenario")
                .expect("scenario label")
                .1
                .clone()
        };
        assert_eq!(scen_label(&cells[0]), "none");
        assert_eq!(scen_label(&cells[1]), "none");
        assert_eq!(scen_label(&cells[2]), hostile.label());
        // The hostile cell's engine actually carries the scenario…
        let EngineSpec::Message(cfg) = cells[2].sim.engine_spec() else {
            panic!("expected a message cell");
        };
        assert_eq!(cfg.scenario, hostile);
        // …while its engine *label* stays the clean axis value.
        let eng_label = cells[2]
            .labels
            .iter()
            .find(|(k, _)| k == "engine")
            .expect("engine label");
        assert!(!eng_label.1.contains("scen="), "{}", eng_label.1);
        // The scenario axis is fingerprint-covered (it changes cell labels).
        let clean_only = CampaignSpec {
            scenarios: vec![ScenarioSpec::clean()],
            ..spec.clone()
        };
        assert_ne!(spec.fingerprint(), clean_only.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_the_grid() {
        let a = tiny();
        assert_eq!(a.fingerprint(), tiny().fingerprint());
        let b = CampaignSpec {
            trials: 5,
            ..tiny()
        };
        let c = CampaignSpec {
            ns: vec![64],
            ..tiny()
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // The observer changes the store's record layout, so it must be
        // part of the grid fingerprint.
        let d = CampaignSpec {
            observer: TrialObserver::LastUnsettledRound,
            ..tiny()
        };
        assert_ne!(a.fingerprint(), d.fingerprint());
        for cell in d.expand() {
            assert_eq!(cell.observer, TrialObserver::LastUnsettledRound);
        }
    }

    #[test]
    fn fresh_run_refuses_existing_store() {
        let path = tmp("refuse.jsonl");
        std::fs::write(&path, "junk\n").expect("write");
        let err = run_campaign(&tiny(), &path, &RunConfig::default()).unwrap_err();
        assert!(err.contains("store exists"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_then_resume_is_idempotent() {
        let path = tmp("idem.jsonl");
        std::fs::remove_file(&path).ok();
        let cfg = RunConfig {
            threads: 2,
            ..RunConfig::default()
        };
        let first = run_campaign(&tiny(), &path, &cfg).expect("run");
        assert!(first.complete());
        assert_eq!(first.cells_run, 4);
        let bytes = std::fs::read(&path).expect("read");

        let again = run_campaign(
            &tiny(),
            &path,
            &RunConfig {
                resume: true,
                ..cfg
            },
        )
        .expect("resume");
        assert_eq!(again.cells_run, 0);
        assert_eq!(again.cells_skipped, 4);
        assert_eq!(std::fs::read(&path).expect("read"), bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_spec() {
        let path = tmp("mismatch.jsonl");
        std::fs::remove_file(&path).ok();
        run_campaign(&tiny(), &path, &RunConfig::default()).expect("run");
        let other = CampaignSpec {
            seed: 999,
            ..tiny()
        };
        let err = run_campaign(
            &other,
            &path,
            &RunConfig {
                resume: true,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("different campaign spec"), "{err}");
        assert!(err.contains("seed"), "must name the differing field: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_works_with_seeds_above_f64_precision() {
        // Seeds are u64; the store round-trip must not squeeze them
        // through f64 (2⁵³ + 1 is the first integer that would be lost).
        let path = tmp("bigseed.jsonl");
        std::fs::remove_file(&path).ok();
        let spec = CampaignSpec {
            seed: (1 << 53) + 1,
            ..tiny()
        };
        run_campaign(&spec, &path, &RunConfig::default()).expect("run");
        let resumed = run_campaign(
            &spec,
            &path,
            &RunConfig {
                resume: true,
                ..RunConfig::default()
            },
        )
        .expect("resume with large seed");
        assert_eq!(resumed.cells_skipped, 4);
        std::fs::remove_file(&path).ok();
    }
}
