//! The exact two-bin oracle: every engine against the chain itself, not
//! against another engine.
//!
//! On two bins the median rule's state is `k`, the load of value 0. With
//! `p = k/n` a ball at 0 stays unless both samples are 1, and a ball at 1
//! moves only if both are 0, so `k′ ~ Bin(k, 1 − (1 − p)²) + Bin(n − k, p²)`.
//! The balancer is a function of `k`, applied before each step. Iterating
//! the (n + 1)-state chain gives the exact law of the consensus round and
//! of `k` after `r` rounds. Each engine's empirical CDF over fixed seeds
//! must sit within the DKW band `sup|F̂ − F| ≤ √(ln(2/α) / 2N)`, with
//! `α = 10⁻⁶` split Bonferroni-style over the cases.

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::engine::EngineSpec;
use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_core::workspace::TrialWorkspace;

const N: usize = 64;
const TRIALS: u64 = 4000;
/// Balancer budgets, and the rounds after which the law of `k` is judged.
const BUDGETS: [u64; 2] = [2, 4];
const ROUNDS: [usize; 2] = [3, 8];
/// Per engine: the consensus round, and `k` per budget and round count.
const CASES: usize = 3 * (1 + BUDGETS.len() * ROUNDS.len());

/// One round of the exact chain: the balancer (unless `budget` is 0) moves
/// up to `budget` balls from the larger bin toward an even split, reviving
/// a dead bin the same way; then the median-rule step.
fn advance(law: &[f64], budget: u64) -> Vec<f64> {
    let binomial = |m: usize, q: f64| -> Vec<f64> {
        let mut choose = 1.0;
        (0..=m)
            .map(|j| {
                let p = choose * q.powi(j as i32) * (1.0 - q).powi((m - j) as i32);
                choose *= (m - j) as f64 / (j + 1) as f64;
                p
            })
            .collect()
    };
    let mut next = vec![0.0; N + 1];
    for (k, &pk) in law.iter().enumerate() {
        let flips = (k.abs_diff(N - k) / 2).min(budget as usize);
        let k = if k > N - k { k - flips } else { k + flips };
        let p = k as f64 / N as f64;
        let stay = binomial(k, 1.0 - (1.0 - p) * (1.0 - p));
        let join = binomial(N - k, p * p);
        for (a, &pa) in stay.iter().enumerate() {
            for (b, &pb) in join.iter().enumerate() {
                next[a + b] += pk * pa * pb;
            }
        }
    }
    next
}

/// `sup_x |F̂(x) − F(x)|` of `samples` against the exact point masses
/// (a sample past the last mass counts only in F̂'s deficit).
fn sup_gap(samples: &[usize], pmf: &[f64]) -> f64 {
    let mut counts = vec![0usize; pmf.len()];
    samples
        .iter()
        .filter(|&&x| x < pmf.len())
        .for_each(|&x| counts[x] += 1);
    let (mut f_hat, mut f, mut gap) = (0.0, 0.0, 0.0f64);
    for (c, p) in counts.iter().zip(pmf) {
        f_hat += *c as f64 / samples.len() as f64;
        f += p;
        gap = gap.max((f_hat - f).abs());
    }
    gap
}

#[test]
fn every_engine_follows_the_exact_two_bin_chain() {
    let eps = ((2.0 * CASES as f64 / 1e-6).ln() / (2.0 * TRIALS as f64)).sqrt();
    let tied: Vec<f64> = (0..=N)
        .map(|k| if k == N / 2 { 1.0 } else { 0.0 })
        .collect();
    // P(consensus round = r): the mass newly absorbed at 0 or n by round r.
    let mut law = tied.clone();
    let mut absorbed = 0.0;
    let consensus_pmf: Vec<f64> = (0..200)
        .map(|_| {
            let now = law[0] + law[N];
            law = advance(&law, 0);
            now - std::mem::replace(&mut absorbed, now)
        })
        .collect();
    let engines = [
        ("DenseSeq", EngineSpec::DenseSeq),
        ("DensePar(2)", EngineSpec::DensePar { threads: 2 }),
        // Two bins are under the handoff: aggregated from round 0.
        (
            "Adaptive",
            EngineSpec::Adaptive {
                threads: 1,
                handoff_support: 64,
            },
        ),
    ];
    let mut ws = TrialWorkspace::new();
    let mut failures = Vec::new();
    let mut judge = |case: String, samples: &[usize], pmf: &[f64]| {
        let gap = sup_gap(samples, pmf);
        if gap > eps {
            failures.push(format!("{case}: sup|F̂ − F| = {gap:.4} > ε = {eps:.4}"));
        }
    };
    for (e, (name, engine)) in engines.into_iter().enumerate() {
        let spec = SimSpec::new(N)
            .init(InitialCondition::TwoBins { left: N / 2 })
            .engine(engine);
        let seeds = |base: u64| (0..TRIALS).map(move |i| (e as u64) << 32 | base << 16 | i);
        let rounds: Vec<usize> = seeds(0)
            .map(|seed| {
                let r = spec.run_seeded_into(seed, &mut ws).consensus_round;
                r.map_or(usize::MAX, |c| c as usize)
            })
            .collect();
        judge(
            format!("{name} / no adversary / consensus round"),
            &rounds,
            &consensus_pmf,
        );
        for budget in BUDGETS {
            let balanced = spec
                .clone()
                .adversary(AdversarySpec::Balancer, budget)
                .max_rounds(ROUNDS[1] as u64)
                .full_horizon(true)
                .record_trajectory(true);
            // k after each round count of ROUNDS, per trial.
            let ks: Vec<[usize; 2]> = seeds(budget)
                .map(|seed| {
                    let traj = balanced.run_seeded_into(seed, &mut ws).trajectory;
                    let traj = traj.expect("recorded");
                    ROUNDS.map(|r| match traj[r].plurality_value {
                        0 => traj[r].plurality_count as usize,
                        _ => N - traj[r].plurality_count as usize,
                    })
                })
                .collect();
            for (j, r) in ROUNDS.into_iter().enumerate() {
                let exact = (0..r).fold(tied.clone(), |law, _| advance(&law, budget));
                let samples: Vec<usize> = ks.iter().map(|k| k[j]).collect();
                judge(
                    format!("{name} / balancer T = {budget} / k after r = {r}"),
                    &samples,
                    &exact,
                );
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
