//! A trillion-process consensus under a √n/4 balancing adversary: the
//! worst-case tied two-bin start, below the √n threshold.
//!
//! The dense engine stores 4 bytes per process; at n = 2^40 that is 4 TiB.
//! The adaptive engine instead starts a narrow initial condition straight
//! on its histogram: the processes that move in one direction travel as
//! one pool through the median rule's closed-form landing law, and the
//! balancer moves loads between bins — `O(m)` binomial draws per round no
//! matter how large n is. The stabilization rounds fold into an exact
//! `SparseCounts` sketch, so the printed mean, p95 and max are exact.
//!
//! ```sh
//! cargo run --release --example huge_population
//! ```

use stabcon::core::adversary::AdversarySpec;
use stabcon::core::engine::adaptive::DEFAULT_HANDOFF_SUPPORT;
use stabcon::core::engine::EngineSpec;
use stabcon::core::init::InitialCondition;
use stabcon::core::runner::SimSpec;
use stabcon::core::workspace::TrialWorkspace;
use stabcon::util::stats::SparseCounts;

fn main() {
    let n: usize = 1 << 40; // ~1.1e12 processes
    println!("population: 2^40 = {n} processes, two tied initial opinions\n");

    // Budget: T = √n/4 = 262144 corrupted processes per round.
    let t = ((n as f64).sqrt() / 4.0) as u64;
    let spec = SimSpec::new(n)
        .init(InitialCondition::TwoBins { left: n / 2 })
        .engine(EngineSpec::Adaptive {
            threads: 1,
            handoff_support: DEFAULT_HANDOFF_SUPPORT,
        })
        .adversary(AdversarySpec::Balancer, t)
        .max_rounds(10_000);

    let trials = 25;
    let mut rounds = SparseCounts::new();
    let mut winners = std::collections::BTreeMap::<u32, u32>::new();
    let mut ws = TrialWorkspace::new();
    let start = std::time::Instant::now();
    for s in 0..trials {
        let r = spec.run_seeded_into(1000 + s, &mut ws);
        let hit = r
            .almost_stable_round
            .expect("must stabilize below threshold");
        rounds.push(hit);
        *winners.entry(r.winner).or_insert(0) += 1;
    }
    let elapsed = start.elapsed();

    println!("adversary            : balancing, T = {t} per round");
    println!("trials               : {trials}");
    println!(
        "rounds to stability  : mean {:.1}, p95 {:.1}, max {}",
        rounds.mean(),
        rounds.quantile(0.95),
        rounds.max().expect("at least one trial")
    );
    println!("(round, trials)      : {:?}", rounds.pairs());
    println!("winning opinions     : {winners:?}");
    println!(
        "wall clock           : {:.2?} total ({:.1?} per trillion-process trial)",
        elapsed,
        elapsed / trials as u32
    );
    println!("\n(The same run on the dense engine would need ~4 TiB of RAM.)");
}
