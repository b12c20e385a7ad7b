//! The exact chain oracles: every engine against the median-rule chain
//! itself, not against another engine.
//!
//! * **Two bins.** The state is `k`, the load of value 0. With `p = k/n` a
//!   ball at 0 stays unless both samples are 1, and a ball at 1 moves only
//!   if both are 0, so `k′ ~ Bin(k, 1 − (1 − p)²) + Bin(n − k, p²)`. The
//!   balancer is a function of `k`, the median pusher a coin and a
//!   function of `k`, and the random adversary a kernel of `k` (see
//!   [`random`]), applied before each step. A round where each ball
//!   takes part with probability `q` (the partial kernel) has
//!   `k′ ~ Bin(k, 1 − q(1 − p)²) + Bin(n − k, q·p²)`.
//! * **Three values.** The state is the load vector. A ball in bin `b`
//!   lands at `c < b` with probability `F(c)² − F(c−1)²`, at `c > b` with
//!   `G(c)² − G(c+1)²` (`G(c) = 1 − F(c−1)`), and stays otherwise; each
//!   bin's balls spread by that multinomial.
//!
//! Iterating a chain gives the exact law of the consensus round and of `k`
//! after `r` rounds. Each engine's empirical CDF over fixed seeds must sit
//! within the DKW band `sup|F̂ − F| ≤ √(ln(2/α) / 2N)`, with `α = 10⁻⁶`
//! split Bonferroni-style over every case of this file ([`CASES`]).
//!
//! The message engine joins the two-bin cases with an inbox cap of at
//! least `2n` ([`LOSSLESS_CAP_MULT`]), so that no request can drop: a
//! ball's two targets are uniform through its private numbering, and at
//! zero fault the engine is the same chain.
//!
//! The adaptive engine is judged twice on three values: aggregated from
//! round 0, and with a floor of 2 bins (`n/40` is 0 at `n = 30`), so the
//! trial starts dense and hands off at the random round where the first
//! value dies.
//!
//! At these populations the dense kernels never split a round: below
//! 4,096 balls they run the sequential body, so the chain judges
//! `DenseSeq`'s code, and `DensePar(2)` here is that code on other seeds.
//! [`dense_par_split_replays_dense_seq`] carries the verdict to the
//! parallel split: at [`SPLIT_N`] balls, a whole `DensePar(2)` trial must
//! equal the `DenseSeq` trial of the same seed, trajectory included.

use stabcon_core::adversary::AdversarySpec;
use stabcon_core::engine::dense::{self, LoadSampler};
use stabcon_core::engine::{hist, EngineSpec, MessageConfig};
use stabcon_core::histogram::Histogram;
use stabcon_core::init::InitialCondition;
use stabcon_core::protocol::MedianRule;
use stabcon_core::runner::SimSpec;
use stabcon_core::value::Value;
use stabcon_core::workspace::TrialWorkspace;
use stabcon_util::rng::Xoshiro256pp;

const N: usize = 64;
const TRIALS: u64 = 4000;
/// Balancer budgets, and the rounds after which the law of `k` is judged.
const BUDGETS: [u64; 2] = [2, 4];
const ROUNDS: [usize; 2] = [3, 8];
/// The random adversary's budget: four draws from 64 processes hit one
/// process twice in about 9% of rounds, so its last write must win.
const RANDOM_BUDGET: u64 = 4;
/// The three-value population: three equal bins of 10.
const N3: usize = 30;
/// Rounds of each exact consensus-round law.
const HORIZON: usize = 200;
/// A population above the dense kernels' 4,096-ball split cutoff.
const SPLIT_N: usize = 8192;
/// The median pusher's budget: the canonical `⌊√n/4⌋`. It spends at most
/// one ball a round on two bins, so any budget ≥ 1 gives the same chain.
const PUSHER_BUDGET: u64 = 2;
/// Inbox cap multiplier with `cap_mult · log₂ N ≥ 2N`: every ball's two
/// requests fit any inbox, so the message engine drops none.
const LOSSLESS_CAP_MULT: usize = (2 * N).div_ceil(N.ilog2() as usize);
/// Every judged case: three engines × (the consensus round with no
/// adversary and under the median pusher, and `k` per round count under
/// each balancer budget and the random adversary) and the message engine's
/// consensus round on two bins; the partial and the load-sampled kernel on
/// two bins; the histogram step and four engines on three values.
const CASES: usize = 3 * (2 + (BUDGETS.len() + 1) * ROUNDS.len()) + 1 + 2 + 5;

/// Where an adversary leaves the two-bin state `k` before a step: the
/// outcomes with their probabilities.
type Outcomes = Vec<(usize, f64)>;

fn no_adversary(k: usize) -> Outcomes {
    vec![(k, 1.0)]
}

/// `C(n, j)` as a float.
fn choose(n: usize, j: usize) -> f64 {
    (0..j).fold(1.0, |c, i| c * (n - i) as f64 / (i + 1) as f64)
}

/// The random adversary on two bins: `budget` draws of a uniform process
/// and a uniform value. They hit `d` distinct processes, by the occupancy
/// law of the draws; `j ~ Hypergeometric(n, k, d)` of those leave value 0,
/// and each keeps its last drawn value, so `Bin(d, ½)` land on 0.
fn random(budget: u64) -> impl Fn(usize) -> Outcomes {
    // occupancy[d]: P(d distinct processes), one draw at a time.
    let mut occupancy = vec![1.0];
    for _ in 0..budget {
        let mut next = vec![0.0; occupancy.len() + 1];
        for (d, &p) in occupancy.iter().enumerate() {
            next[d] += p * d as f64 / N as f64;
            next[d + 1] += p * (N - d) as f64 / N as f64;
        }
        occupancy = next;
    }
    move |k| {
        let mut out = Vec::new();
        for (d, &pd) in occupancy.iter().enumerate() {
            for j in d.saturating_sub(N - k)..=d.min(k) {
                let pj = choose(k, j) * choose(N - k, d - j) / choose(N, d);
                for back in 0..=d {
                    let pb = choose(d, back) / 2f64.powi(d as i32);
                    out.push((k - j + back, pd * pj * pb));
                }
            }
        }
        out
    }
}

/// The balancer moves up to `budget` balls from the larger bin toward an
/// even split, reviving a dead bin the same way.
fn balancer(budget: u64) -> impl Fn(usize) -> Outcomes {
    move |k| {
        let flips = (k.abs_diff(N - k) / 2).min(budget as usize);
        no_adversary(if k > N - k { k - flips } else { k + flips })
    }
}

/// The median pusher on two bins: value 0 holds the lower median iff
/// `k ≥ ⌈n/2⌉`. A fair coin picks the first target; the pusher moves one
/// ball out of the median bin when the target is the other bin, and stops
/// at the median bin. A consensus state is held, so the mass absorbed by
/// round `r` is the law of the first consensus round.
fn median_pusher(k: usize) -> Outcomes {
    if k == 0 || k == N {
        return no_adversary(k);
    }
    let pushed = if k >= N.div_ceil(2) { k - 1 } else { k + 1 };
    vec![(k, 0.5), (pushed, 0.5)]
}

/// One round of the exact two-bin chain: the adversary, then the
/// median-rule step, each ball taking part with probability `q`.
fn advance(law: &[f64], adversary: &impl Fn(usize) -> Outcomes, q: f64) -> Vec<f64> {
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
        for (k, pa) in adversary(k) {
            if pk * pa == 0.0 {
                continue;
            }
            let p = k as f64 / N as f64;
            let stay = binomial(k, 1.0 - q * (1.0 - p) * (1.0 - p));
            let join = binomial(N - k, q * p * p);
            for (a, &ps) in stay.iter().enumerate() {
                for (b, &pj) in join.iter().enumerate() {
                    next[a + b] += pk * pa * ps * pj;
                }
            }
        }
    }
    next
}

/// `P(consensus round = r)` for `r < HORIZON`: the mass newly absorbed by
/// round `r`, iterating `step` from `law`.
fn consensus_pmf(
    mut law: Vec<f64>,
    step: impl Fn(&[f64]) -> Vec<f64>,
    absorbed: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut before = 0.0;
    (0..HORIZON)
        .map(|_| {
            let now = absorbed(&law);
            law = step(&law);
            now - std::mem::replace(&mut before, now)
        })
        .collect()
}

/// The two-bin law of the tied start, `k = n/2`.
fn tied() -> Vec<f64> {
    (0..=N)
        .map(|k| if k == N / 2 { 1.0 } else { 0.0 })
        .collect()
}

fn two_bin_consensus_pmf(adversary: impl Fn(usize) -> Outcomes, q: f64) -> Vec<f64> {
    consensus_pmf(
        tied(),
        |law| advance(law, &adversary, q),
        |law| law[0] + law[N],
    )
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

/// Collects every case whose gap leaves the DKW band of its share of α.
#[derive(Default)]
struct Judge(Vec<String>);

impl Judge {
    fn case(&mut self, case: String, samples: &[usize], pmf: &[f64]) {
        let eps = ((2.0 * CASES as f64 / 1e-6).ln() / (2.0 * samples.len() as f64)).sqrt();
        let gap = sup_gap(samples, pmf);
        if gap > eps {
            self.0
                .push(format!("{case}: sup|F̂ − F| = {gap:.4} > ε = {eps:.4}"));
        }
    }

    fn finish(self) {
        assert!(self.0.is_empty(), "{}", self.0.join("\n"));
    }
}

/// Trial seeds of one case: `tag` keeps cases apart.
fn seeds(tag: u64) -> impl Iterator<Item = u64> {
    (0..TRIALS).map(move |i| tag << 16 | i)
}

fn consensus_rounds(spec: &SimSpec, tag: u64, ws: &mut TrialWorkspace) -> Vec<usize> {
    seeds(tag)
        .map(|seed| {
            let r = spec.run_seeded_into(seed, ws).consensus_round;
            r.map_or(usize::MAX, |c| c as usize)
        })
        .collect()
}

#[test]
fn every_engine_follows_the_exact_two_bin_chain() {
    let consensus = two_bin_consensus_pmf(no_adversary, 1.0);
    let pushed = two_bin_consensus_pmf(median_pusher, 1.0);
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
        (
            "Message(zero fault)",
            EngineSpec::Message(MessageConfig {
                cap_mult: LOSSLESS_CAP_MULT,
                ..MessageConfig::default()
            }),
        ),
    ];
    let mut ws = TrialWorkspace::new();
    let mut judge = Judge::default();
    for (e, (name, engine)) in engines.into_iter().enumerate() {
        let spec = SimSpec::new(N)
            .init(InitialCondition::TwoBins { left: N / 2 })
            .engine(engine);
        let tag = |base: u64| (e as u64) << 16 | base;
        let rounds = consensus_rounds(&spec, tag(0), &mut ws);
        judge.case(
            format!("{name} / no adversary / consensus round"),
            &rounds,
            &consensus,
        );
        if matches!(engine, EngineSpec::Message(_)) {
            // An adversary acts on the same dense state under every
            // dense-state engine, and a message round costs many dense ones.
            continue;
        }
        // Threshold 0 and a one-round window: the trial stops at its first
        // consensus round.
        let pusher = spec
            .clone()
            .adversary(AdversarySpec::MedianPusher, PUSHER_BUDGET)
            .almost_factor(0.0)
            .stability_window(1);
        let rounds = consensus_rounds(&pusher, tag(1), &mut ws);
        judge.case(
            format!("{name} / median pusher / consensus round"),
            &rounds,
            &pushed,
        );
        let attacks = [
            (AdversarySpec::Balancer, BUDGETS[0]),
            (AdversarySpec::Balancer, BUDGETS[1]),
            (AdversarySpec::Random, RANDOM_BUDGET),
        ];
        for (a, (adversary, budget)) in attacks.into_iter().enumerate() {
            let kernel: Box<dyn Fn(usize) -> Outcomes> = match adversary {
                AdversarySpec::Random => Box::new(random(budget)),
                _ => Box::new(balancer(budget)),
            };
            let attacked = spec
                .clone()
                .adversary(adversary, budget)
                .max_rounds(ROUNDS[1] as u64)
                .full_horizon(true)
                .record_trajectory(true);
            // k after each round count of ROUNDS, per trial.
            let ks: Vec<[usize; 2]> = seeds(tag(a as u64 + 2))
                .map(|seed| {
                    let traj = attacked.run_seeded_into(seed, &mut ws).trajectory;
                    let traj = traj.expect("recorded");
                    ROUNDS.map(|r| match traj[r].plurality_value {
                        0 => traj[r].plurality_count as usize,
                        _ => N - traj[r].plurality_count as usize,
                    })
                })
                .collect();
            for (j, r) in ROUNDS.into_iter().enumerate() {
                let exact = (0..r).fold(tied(), |law, _| advance(&law, &kernel, 1.0));
                let samples: Vec<usize> = ks.iter().map(|k| k[j]).collect();
                let adversary = adversary.label();
                judge.case(
                    format!("{name} / {adversary} T = {budget} / k after r = {r}"),
                    &samples,
                    &exact,
                );
            }
        }
    }
    judge.finish();
}

/// The load-sampled kernel driven directly from the tied start, its
/// sampler rebuilt from the loads each round: the consensus round.
fn sampled_consensus_round(seed: u64, sampler: &mut LoadSampler) -> usize {
    let mut old: Vec<Value> = (0..N).map(|i| Value::from(i >= N / 2)).collect();
    let mut new = vec![0; N];
    for round in 0..HORIZON {
        let zeros = old.iter().filter(|&&v| v == 0).count() as u64;
        if zeros == 0 || zeros == N as u64 {
            return round;
        }
        sampler.rebuild([(0, zeros), (1, N as u64 - zeros)], N as u64);
        dense::step_seq_sampled(&old, &mut new, &MedianRule, seed, round as u64, sampler);
        std::mem::swap(&mut old, &mut new);
    }
    usize::MAX
}

#[test]
fn partial_and_sampled_kernels_follow_the_two_bin_chain() {
    // Both kernels run only at large n or under `update_fraction < 1` in a
    // campaign; here they run at n = 64.
    let mut judge = Judge::default();
    let partial = SimSpec::new(N)
        .init(InitialCondition::TwoBins { left: N / 2 })
        .update_fraction(0.5);
    let rounds = consensus_rounds(&partial, 1 << 8, &mut TrialWorkspace::new());
    judge.case(
        "DenseSeq / update_fraction 0.5 / consensus round".into(),
        &rounds,
        &two_bin_consensus_pmf(no_adversary, 0.5),
    );
    let mut sampler = LoadSampler::new();
    let rounds: Vec<usize> = seeds(2 << 8)
        .map(|seed| sampled_consensus_round(seed, &mut sampler))
        .collect();
    judge.case(
        "step_seq_sampled / consensus round".into(),
        &rounds,
        &two_bin_consensus_pmf(no_adversary, 1.0),
    );
    judge.finish();
}

/// Index of the three-value state `(a, b, n − a − b)`.
fn state_index(a: usize, b: usize) -> usize {
    // States with a smaller first load come first: Σ_{a' < a} (n − a' + 1).
    a * (N3 + 1) - a * a.saturating_sub(1) / 2 + b
}

/// Where one ball of bin `b` lands under loads `k`, from the per-ball law.
fn destination_law(k: [usize; 3], b: usize) -> [f64; 3] {
    let f0 = k[0] as f64 / N3 as f64;
    let f1 = (k[0] + k[1]) as f64 / N3 as f64;
    let (g1, g2) = (1.0 - f0, 1.0 - f1);
    match b {
        0 => [1.0 - g1 * g1, g1 * g1 - g2 * g2, g2 * g2],
        1 => [f0 * f0, 1.0 - f0 * f0 - g2 * g2, g2 * g2],
        _ => [f0 * f0, f1 * f1 - f0 * f0, 1.0 - f1 * f1],
    }
}

/// The exact next-state law from loads `k`, as `(a, b)` masses: each bin's
/// balls spread by the multinomial of [`destination_law`].
fn three_value_row(k: [usize; 3]) -> Vec<(usize, usize, f64)> {
    let mut fact = [1.0f64; N3 + 1];
    for i in 1..=N3 {
        fact[i] = fact[i - 1] * i as f64;
    }
    let mut joint = vec![vec![0.0; N3 + 1]; N3 + 1];
    joint[0][0] = 1.0;
    let mut placed = 0;
    for (b, &kb) in k.iter().enumerate() {
        let law = destination_law(k, b);
        // Bin b's balls: x land at 0, y at 1, the rest at 2.
        let spread: Vec<(usize, usize, f64)> = (0..=kb)
            .flat_map(|x| (0..=kb - x).map(move |y| (x, y)))
            .map(|(x, y)| {
                let z = kb - x - y;
                let ways = fact[kb] / (fact[x] * fact[y] * fact[z]);
                let p = law[0].powi(x as i32) * law[1].powi(y as i32) * law[2].powi(z as i32);
                (x, y, ways * p)
            })
            .collect();
        let mut next = vec![vec![0.0; N3 + 1]; N3 + 1];
        for (a, row) in joint.iter().enumerate().take(placed + 1) {
            for (c, &p) in row.iter().enumerate().take(placed + 1 - a) {
                for &(x, y, q) in &spread {
                    next[a + x][c + y] += p * q;
                }
            }
        }
        joint = next;
        placed += kb;
    }
    let mut row = Vec::new();
    for (a, masses) in joint.iter().enumerate() {
        for (b, &p) in masses.iter().enumerate() {
            if p > 0.0 {
                row.push((a, b, p));
            }
        }
    }
    row
}

#[test]
fn every_engine_follows_the_exact_three_value_chain() {
    let states: Vec<[usize; 3]> = (0..=N3)
        .flat_map(|a| (0..=N3 - a).map(move |b| [a, b, N3 - a - b]))
        .collect();
    assert!(states
        .iter()
        .enumerate()
        .all(|(i, s)| state_index(s[0], s[1]) == i));
    let rows: Vec<_> = states.iter().map(|&s| three_value_row(s)).collect();
    let third = N3 / 3;
    let mut start = vec![0.0; states.len()];
    start[state_index(third, third)] = 1.0;
    let consensus = consensus_pmf(
        start,
        |law| {
            let mut next = vec![0.0; law.len()];
            for (row, &p) in rows.iter().zip(law) {
                if p > 0.0 {
                    for &(a, b, q) in row {
                        next[state_index(a, b)] += p * q;
                    }
                }
            }
            next
        },
        |law| law[state_index(N3, 0)] + law[state_index(0, N3)] + law[state_index(0, 0)],
    );

    let mut judge = Judge::default();
    let mut ws = hist::StepScratch::default();
    let rounds: Vec<usize> = seeds(3 << 8)
        .map(|seed| {
            let mut h = Histogram::new(&[(0, third as u64), (1, third as u64), (2, third as u64)]);
            let mut rng = Xoshiro256pp::seed(seed);
            let mut round = 0;
            while h.support_size() > 1 && round < HORIZON {
                hist::step_in_place(&mut h, &mut rng, &mut ws);
                round += 1;
            }
            if h.support_size() == 1 {
                round
            } else {
                usize::MAX
            }
        })
        .collect();
    judge.case(
        "hist::step_in_place / three values / consensus round".into(),
        &rounds,
        &consensus,
    );
    let engines = [
        ("DenseSeq", EngineSpec::DenseSeq),
        ("DensePar(2)", EngineSpec::DensePar { threads: 2 }),
        // Three values are under the handoff: aggregated from round 0.
        (
            "Adaptive",
            EngineSpec::Adaptive {
                threads: 1,
                handoff_support: 64,
            },
        ),
        // Dense until the first value dies, then aggregated.
        (
            "Adaptive(floor 2)",
            EngineSpec::Adaptive {
                threads: 1,
                handoff_support: 2,
            },
        ),
    ];
    let mut ws = TrialWorkspace::new();
    for (e, (name, engine)) in engines.into_iter().enumerate() {
        let spec = SimSpec::new(N3)
            .init(InitialCondition::MBinsEqual { m: 3 })
            .engine(engine);
        let rounds = consensus_rounds(&spec, 4 << 8 | e as u64, &mut ws);
        judge.case(
            format!("{name} / three values / consensus round"),
            &rounds,
            &consensus,
        );
    }
    judge.finish();
}

#[test]
fn dense_par_split_replays_dense_seq() {
    let tied = SimSpec::new(SPLIT_N)
        .init(InitialCondition::TwoBins { left: SPLIT_N / 2 })
        .record_trajectory(true);
    let cases = [
        ("no adversary", tied.clone()),
        (
            "balancer T = 2",
            tied.clone().adversary(AdversarySpec::Balancer, 2),
        ),
        ("update_fraction 0.5", tied.update_fraction(0.5)),
    ];
    for (name, spec) in cases {
        let par = spec.clone().engine(EngineSpec::DensePar { threads: 2 });
        for seed in 0..3 {
            let seq = spec.run_seeded(seed);
            assert!(seq.consensus_round.is_some(), "{name}: seed {seed} stalled");
            assert_eq!(par.run_seeded(seed), seq, "{name}: seed {seed}");
        }
    }
}
