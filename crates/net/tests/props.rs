//! Property-based tests for the network model.

use proptest::prelude::*;
use rand::RngCore;
use stabcon_net::{
    log_inbox_cap, run_round, DropPolicy, FeistelPerm, KeepFirst, NetScenario, ProcessId,
    RandomDrop, Responses, RoundConfig, ScenarioSpec, StarveSet,
};
use stabcon_util::rng::{gen_index, Xoshiro256pp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn feistel_is_a_bijection(n in 1u64..2000, key in any::<u64>()) {
        let perm = FeistelPerm::new(n, key);
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let img = perm.apply(i);
            prop_assert!(img < n);
            prop_assert!(!seen[img as usize], "collision at {}", img);
            seen[img as usize] = true;
        }
    }

    #[test]
    fn inbox_cap_formula_monotone(n in 2usize..1_000_000, c in 1usize..8) {
        let cap = log_inbox_cap(n, c);
        prop_assert!(cap >= 1);
        prop_assert!(log_inbox_cap(n, c + 1) >= cap);
        prop_assert!(log_inbox_cap(n * 2, c) >= cap);
    }

    #[test]
    fn round_conserves_messages(seed in any::<u64>(), n in 2usize..64, cap in 1usize..16) {
        // Random target pattern: every process sends k = 2 requests.
        let mut rng = Xoshiro256pp::seed(seed);
        let values: Vec<u32> = (0..n as u32).collect();
        let targets: Vec<ProcessId> = (0..n * 2)
            .map(|_| stabcon_util::rng::gen_index(&mut rng, n as u64) as ProcessId)
            .collect();
        let cfg = RoundConfig { inbox_cap: cap, self_bypass: true };
        let mut responses = Responses::new();
        let m = run_round(&values, &targets, 2, &cfg, &mut RandomDrop, &mut rng, &mut responses);
        prop_assert_eq!(m.delivered + m.dropped, m.requests);
        prop_assert_eq!(m.requests + m.self_requests, (n * 2) as u64);
        let received: u64 = responses.iter().map(|r| r.len() as u64).sum();
        prop_assert_eq!(received, m.delivered + m.self_requests);
    }

    #[test]
    fn no_inbox_exceeds_cap(seed in any::<u64>(), n in 2usize..64, cap in 1usize..8) {
        // Adversarial pattern: everyone floods process 0.
        let values: Vec<u32> = vec![7; n];
        let targets: Vec<ProcessId> = vec![0; n * 2];
        let cfg = RoundConfig { inbox_cap: cap, self_bypass: false };
        let mut rng = Xoshiro256pp::seed(seed);
        let mut responses = Responses::new();
        let m = run_round(&values, &targets, 2, &cfg, &mut KeepFirst, &mut rng, &mut responses);
        prop_assert!(m.delivered <= cap as u64);
        let received: usize = responses.iter().map(|r| r.len()).sum();
        prop_assert!(received <= cap);
    }

    #[test]
    fn responses_always_carry_responder_value(seed in any::<u64>(), n in 2usize..48) {
        let mut rng = Xoshiro256pp::seed(seed);
        let values: Vec<u32> = (0..n as u32).map(|i| i * 100).collect();
        let targets: Vec<ProcessId> = (0..n * 2)
            .map(|_| stabcon_util::rng::gen_index(&mut rng, n as u64) as ProcessId)
            .collect();
        let cfg = RoundConfig { inbox_cap: n, self_bypass: true };
        let mut responses = Responses::new();
        run_round(&values, &targets, 2, &cfg, &mut RandomDrop, &mut rng, &mut responses);
        for resp in responses.iter() {
            for &(who, v) in resp {
                prop_assert_eq!(v, values[who as usize]);
            }
        }
    }

    #[test]
    fn zero_fault_route_round_equals_run_round(
        seed in any::<u64>(),
        n in 1usize..600,
        k in 1usize..3,
        cap in 1usize..8,
        which in 0usize..3,
    ) {
        // The scenario router with every fault knob off against the
        // synchronous oracle: same responses, metrics and drop-policy
        // randomness, round after round.
        let mut draw = Xoshiro256pp::seed(seed);
        let values: Vec<u32> = (0..n as u32).map(|i| i % 5).collect();
        let cfg = RoundConfig { inbox_cap: cap, self_bypass: true };
        let policy = || -> Box<dyn DropPolicy> {
            match which {
                0 => Box::new(RandomDrop),
                1 => Box::new(KeepFirst),
                _ => Box::new(StarveSet::first_k(n, n / 3)),
            }
        };
        let (mut pa, mut pb) = (policy(), policy());
        let mut scen: NetScenario<u32> = NetScenario::new(n, ScenarioSpec::clean(), seed);
        let mut rng_a = Xoshiro256pp::seed(seed ^ 1);
        let mut rng_b = Xoshiro256pp::seed(seed ^ 1);
        let mut resp_a = Responses::new();
        let mut resp_b = Responses::new();
        for round in 0..3u64 {
            let targets: Vec<ProcessId> = (0..n * k)
                .map(|_| gen_index(&mut draw, n as u64) as ProcessId)
                .collect();
            let ma = run_round(&values, &targets, k, &cfg, pa.as_mut(), &mut rng_a, &mut resp_a);
            let mb = scen.route_round(
                round, &values, &targets, k, &cfg, pb.as_mut(), &mut rng_b, &mut resp_b, None,
            );
            prop_assert_eq!(ma, mb, "round {} metrics", round);
            prop_assert_eq!(&resp_a, &resp_b, "round {} responses", round);
            prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "round {} rng", round);
        }
    }

    #[test]
    fn starve_set_victims_lose_first(seed in any::<u64>(), n in 8usize..48, victims in 1usize..8) {
        // All processes request process 0; victims' requests must be the
        // dropped ones whenever non-victim demand covers the cap.
        let values: Vec<u32> = vec![1; n];
        let targets: Vec<ProcessId> = vec![0; n]; // k = 1
        let cap = (n - victims).clamp(1, 4);
        let cfg = RoundConfig { inbox_cap: cap, self_bypass: false };
        let mut rng = Xoshiro256pp::seed(seed);
        let mut policy = StarveSet::first_k(n, victims);
        let mut responses = Responses::new();
        run_round(&values, &targets, 1, &cfg, &mut policy, &mut rng, &mut responses);
        // Victims (processes 0..victims) must have received nothing, since
        // there were ≥ cap non-victim requesters.
        for (i, resp) in responses.iter().enumerate().take(victims) {
            prop_assert!(resp.is_empty(), "victim {} was served: {:?}", i, resp);
        }
    }
}
