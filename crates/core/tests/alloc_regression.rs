//! Allocation regression gate: once a [`TrialWorkspace`]'s buffers are
//! warm, running more trials of a dense cell must allocate O(1) — i.e.
//! (almost) nothing — per trial. A counting `#[global_allocator]` in this
//! dedicated test binary pins that down, so a future change that quietly
//! reintroduces per-trial (or worse, per-round) mallocs fails here instead
//! of silently eating the campaign-throughput win.
//!
//! The threshold is deliberately a small constant, not zero: the contract
//! is O(1) per trial, independent of `n`, `max_rounds`, and trial count.
//!
//! The counter is per thread: the test harness runs these tests in
//! parallel, and every trial here runs on the calling thread, so a global
//! count would charge one test with another's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::engine::EngineSpec;
use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_core::workspace::TrialWorkspace;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates every operation to `System`; the counter is the only
// addition and is a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_per_trial(sim: &SimSpec, warmup: u64, measured: u64) -> f64 {
    let mut ws = TrialWorkspace::new();
    for seed in 0..warmup {
        let r = sim.run_seeded_into(seed, &mut ws);
        ws.recycle(r);
    }
    let before = allocations();
    for seed in warmup..warmup + measured {
        let r = sim.run_seeded_into(seed, &mut ws);
        ws.recycle(r);
    }
    (allocations() - before) as f64 / measured as f64
}

#[test]
fn dense_cell_steady_state_is_allocation_free() {
    let sim = SimSpec::new(4096).init(InitialCondition::UniformRandom { m: 8 });
    let per_trial = allocations_per_trial(&sim, 4, 24);
    assert!(
        per_trial <= 2.0,
        "dense trial steady state allocates {per_trial} times per trial (expected ≈ 0)"
    );
}

#[test]
fn adaptive_cell_steady_state_is_o1() {
    // The adaptive engine additionally exercises the handoff snapshot and
    // the histogram engine's in-place rounds.
    let sim = SimSpec::new(4096)
        .init(InitialCondition::UniformRandom { m: 8 })
        .engine(EngineSpec::Adaptive {
            threads: 1,
            handoff_support: 64,
        });
    let per_trial = allocations_per_trial(&sim, 4, 24);
    assert!(
        per_trial <= 4.0,
        "adaptive trial steady state allocates {per_trial} times per trial"
    );
}

#[test]
fn load_sampled_dense_cell_steady_state_is_o1() {
    // n = 2¹⁸ with a narrow support: every full-participation round takes
    // the load-sampled dense path (n ≥ SAMPLED_N_MIN, support ≤
    // SAMPLED_SUPPORT_MAX), which used to build a fresh `PackedAlias` —
    // five vectors — per *round*. The workspace-parked `LoadSampler` now
    // rebuilds value table, alias, and Vose worklists in place, so whole
    // trials through the sampled path must stay O(1) allocations.
    let n = stabcon_core::engine::dense::SAMPLED_N_MIN;
    let sim = SimSpec::new(n)
        .init(InitialCondition::TwoBins { left: n / 2 })
        .max_rounds(400);
    let per_trial = allocations_per_trial(&sim, 2, 4);
    assert!(
        per_trial <= 2.0,
        "load-sampled trial steady state allocates {per_trial} times per trial (expected ≈ 0)"
    );
}

#[test]
fn message_cell_steady_state_is_o1() {
    // The message engine routes real request/response traffic. Its
    // buffers — targets, the response table, the scenario's per-target
    // counts, request ranks and inboxes, the delay rings and the fault
    // bitmaps — are workspace-parked and sized by `n`, `k` or the round's
    // traffic, so after warm-up no trial grows them: `reset` re-keys
    // without allocating. Every fault knob is on, once with latency (the
    // ring path) and once without (the in-place path). `DropSpec::Random`
    // keeps the drop policy alloc-free (`StarveSet` sorts, which allocates
    // by design).
    use stabcon_core::engine::{MessageConfig, Rejoin, ScenarioSpec};
    let n = 1024;
    let faults = ScenarioSpec::clean()
        .with_drop_per_mille(100)
        .with_partition(500, 3, 20)
        .with_churn(32, 5, 25, Rejoin::Adversarial)
        .with_byzantine(4);
    for scenario in [faults.with_latency(0, 2), faults] {
        let cfg = MessageConfig {
            scenario,
            ..MessageConfig::default()
        };
        let sim = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 })
            .engine(EngineSpec::Message(cfg));
        let per_trial = allocations_per_trial(&sim, 4, 16);
        assert!(
            per_trial <= 2.0,
            "message trial under {} allocates {per_trial} times per trial (expected ≈ 0)",
            scenario.label()
        );
    }
}

#[test]
fn telemetry_enabled_trial_is_still_allocation_free() {
    // The stabcon-obs layer must be observation-only in the allocator
    // sense too: with the global flag armed, a steady-state trial — phase
    // guards firing inside the kernel, per-trial histogram records, counter
    // adds, a TLS drain, and a full registry snapshot per trial — stays
    // ≈0 allocations. The registry and snapshot allocate once up front;
    // everything per-trial lands in const-init thread-locals and
    // fixed-slot atomics.
    use stabcon_obs as obs;
    let registry = obs::MetricRegistry::new(1);
    let mut snap = obs::Snapshot::new(1);
    let handle = registry.handle(0);
    let sim = SimSpec::new(4096).init(InitialCondition::UniformRandom { m: 8 });
    obs::set_enabled(true);
    let mut ws = TrialWorkspace::new();
    let mut run_one = |seed: u64| {
        let clock = obs::stopwatch();
        let r = sim.run_seeded_into(seed, &mut ws);
        if let Some(nanos) = clock.elapsed_nanos() {
            obs::hist_record(obs::Hist::TrialNanos, nanos);
        }
        handle.add(obs::Counter::Trials, 1);
        handle.add(obs::Counter::Rounds, r.rounds_executed);
        ws.recycle(r);
        handle.drain_local();
    };
    for seed in 0..4 {
        run_one(seed);
    }
    let before = allocations();
    for seed in 4..28 {
        run_one(seed);
        registry.snapshot_into(&mut snap);
    }
    let per_trial = (allocations() - before) as f64 / 24.0;
    obs::set_enabled(false);
    assert!(
        per_trial <= 2.0,
        "telemetry-enabled trial steady state allocates {per_trial} times per trial (expected ≈ 0)"
    );
    assert_eq!(snap.total().counter(obs::Counter::Trials), 28);
    assert!(snap.total().hist_count(obs::Hist::TrialNanos) >= 24);
}

#[test]
fn all_distinct_worst_case_universe_is_o1() {
    // m = n: the ranked universe, its load counts, and the value set are
    // all n-sized and must still be reused, not reallocated.
    let sim = SimSpec::new(2048).init(InitialCondition::AllDistinct);
    let per_trial = allocations_per_trial(&sim, 4, 16);
    assert!(
        per_trial <= 2.0,
        "all-distinct steady state allocates {per_trial} times per trial"
    );
}

#[test]
fn adversarial_cells_steady_state_is_o1() {
    // Figure 1's adversaries at budget ⌊√n/4⌋ read the runner's loads and
    // park their touched set and draws in the workspace: no strategy
    // allocates per round. The adaptive two-bins cells run on the parked
    // histogram from round 0, their moves in place; the all-distinct
    // random cell hands off to it mid-trial.
    let n = 2048;
    let budget = ((n as f64).sqrt() / 4.0).floor() as u64;
    let adaptive = EngineSpec::Adaptive {
        threads: 1,
        handoff_support: 64,
    };
    let two_bins = InitialCondition::TwoBins { left: n / 2 };
    for (init, adversary, engine) in [
        (
            InitialCondition::AllDistinct,
            AdversarySpec::Balancer,
            EngineSpec::DenseSeq,
        ),
        (
            InitialCondition::AllDistinct,
            AdversarySpec::MedianPusher,
            EngineSpec::DenseSeq,
        ),
        (
            two_bins.clone(),
            AdversarySpec::Random,
            EngineSpec::DenseSeq,
        ),
        (two_bins.clone(), AdversarySpec::Balancer, adaptive),
        (two_bins, AdversarySpec::Random, adaptive),
        (
            InitialCondition::AllDistinct,
            AdversarySpec::Random,
            adaptive,
        ),
    ] {
        let label = format!(
            "{} on {} ({})",
            adversary.label(),
            init.label(),
            engine.label()
        );
        let sim = SimSpec::new(n)
            .init(init)
            .engine(engine)
            .adversary(adversary, budget);
        let per_trial = allocations_per_trial(&sim, 4, 16);
        assert!(
            per_trial <= 2.0,
            "{label} allocates {per_trial} times per trial (expected ≈ 0)"
        );
    }
}
