//! End-to-end integration tests of the Good Samaritan Protocol
//! (Theorem 18): optimistic termination in good executions, fallback
//! termination otherwise, and the five problem properties throughout.
//! All executions run through the declarative `ScenarioSpec` → `Sim` API.

use wireless_sync::prelude::*;
use wireless_sync::sync::good_samaritan::GoodSamaritanConfig;

fn run(spec: &ScenarioSpec, seed: u64) -> SyncOutcome {
    Sim::from_spec(spec).expect("valid spec").run_one(seed)
}

fn oblivious(t_actual: u32) -> ComponentSpec {
    ComponentSpec::named("oblivious-random").with("t_actual", u64::from(t_actual))
}

/// A "good execution": all nodes wake together and an oblivious adversary
/// disrupts only `t' < t` frequencies. The protocol should terminate well
/// before the fallback portion (which starts after the optimistic total).
#[test]
fn good_execution_terminates_in_optimistic_portion() {
    let n = 8;
    let f = 16;
    let t = 8;
    let spec = ScenarioSpec::new("good-samaritan", n, f, t)
        .with_adversary(oblivious(2))
        .with_activation(ActivationSchedule::Simultaneous)
        .with_max_rounds(400_000);
    // The default factory parameters mirror GoodSamaritanConfig::new, so the
    // schedule thresholds can be computed from the same config.
    let config = GoodSamaritanConfig::new(spec.upper_bound(), f, t);

    let mut optimistic_wins = 0;
    let trials = 5;
    for seed in 0..trials {
        let outcome = run(&spec, seed);
        assert!(
            outcome.result.all_synchronized,
            "seed {seed}: every node must synchronize"
        );
        assert!(
            outcome.properties.safety_holds(),
            "seed {seed}: safety violated: {:?}",
            outcome.properties.violations
        );
        assert!(
            outcome.leaders >= 1,
            "seed {seed}: a leader must be elected"
        );
        let completion = outcome.completion_round().unwrap();
        if completion < config.fallback_start() {
            optimistic_wins += 1;
        }
    }
    assert!(
        optimistic_wins >= trials - 1,
        "good executions should terminate during the optimistic portion \
         ({optimistic_wins}/{trials} did)"
    );
}

/// With staggered activation (not a good execution) the protocol must still
/// terminate — via the fallback if necessary — within the round cap.
#[test]
fn staggered_activation_still_terminates() {
    let spec = ScenarioSpec::new("good-samaritan", 4, 8, 3)
        .with_adversary("random")
        .with_activation(ActivationSchedule::Staggered { gap: 50 })
        .with_max_rounds(400_000);
    let outcome = run(&spec, 3);
    assert!(outcome.result.all_synchronized);
    assert!(outcome.properties.safety_holds());
    assert!(outcome.leaders >= 1);
}

/// Smaller actual disruption should not make the protocol slower: compare
/// t' = 1 with t' = t on the same seeds (adaptivity, the heart of
/// Theorem 18's optimistic claim).
#[test]
fn lower_actual_disruption_is_not_slower() {
    let n = 8;
    let f = 16;
    let t = 8;
    let quiet = ScenarioSpec::new("good-samaritan", n, f, t)
        .with_adversary(oblivious(1))
        .with_max_rounds(600_000);
    let noisy = ScenarioSpec::new("good-samaritan", n, f, t)
        .with_adversary(oblivious(t))
        .with_max_rounds(600_000);

    let mut quiet_total = 0u64;
    let mut noisy_total = 0u64;
    for seed in 0..3 {
        let q = run(&quiet, seed);
        let no = run(&noisy, seed);
        assert!(q.result.all_synchronized && no.result.all_synchronized);
        quiet_total += q.completion_round().unwrap();
        noisy_total += no.completion_round().unwrap();
    }
    assert!(
        quiet_total <= noisy_total,
        "quiet executions ({quiet_total}) should not be slower than noisy ones ({noisy_total})"
    );
}
