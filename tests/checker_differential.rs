//! The property checker walks only the engine's active set. These tests
//! pin that it reports exactly what the dense reference (the same two
//! passes over all N node views, `support/checker_reference.rs`) reports,
//! on executions built to hit every violation path: scripted outputs
//! (⊥ after a number, skipped and repeated numbers, disagreements) under
//! staggered and bursty activation and crash/restart churn. They also
//! assert the engine's active-set invariant on every round of those runs.

use proptest::prelude::*;

use wireless_sync::prelude::*;
use wireless_sync::radio::action::Action;

#[path = "support/checker_reference.rs"]
mod checker_reference;

use checker_reference::{run_checked, spec_engine, Checked};

/// A protocol that sleeps every round and outputs from a per-local-round
/// script, cycled. Entry `(kind, v)`: kind 0 is ⊥, kind 1 the fixed number
/// `v`, anything else `v + local_round` (a correct count while it lasts).
/// It never reports itself synchronized, so runs last to the round cap.
#[derive(Debug, Clone)]
struct ScriptedOutput {
    script: Vec<(u8, u64)>,
    local_round: u64,
}

impl Protocol for ScriptedOutput {
    type Msg = ();

    fn on_activate(&mut self, _info: ActivationInfo, _rng: &mut SimRng) {
        self.local_round = 0;
    }

    fn choose_action(&mut self, _local_round: u64, _rng: &mut SimRng) -> Action<()> {
        Action::Sleep
    }

    fn on_feedback(&mut self, local_round: u64, _feedback: Feedback<()>, _rng: &mut SimRng) {
        self.local_round = local_round;
    }

    fn output(&self) -> Option<u64> {
        let (kind, v) = self.script[self.local_round as usize % self.script.len()];
        match kind {
            0 => None,
            1 => Some(v),
            _ => Some(v + self.local_round),
        }
    }

    fn is_synchronized(&self) -> bool {
        false
    }
}

/// Runs scripted nodes under `schedule` with an optional churn layer.
fn run_scripted(
    scripts: &[Vec<(u8, u64)>],
    schedule: ActivationSchedule,
    churn: Option<(f64, u64)>,
    max_rounds: u64,
    seed: u64,
) -> Checked {
    let config = SimConfig::new(scripts.len(), 4, 1).with_max_rounds(max_rounds);
    let mut engine = Engine::new(
        config,
        |id: NodeId| ScriptedOutput {
            script: scripts[id.index()].clone(),
            local_round: 0,
        },
        RandomAdversary::new(1),
        schedule,
        seed,
    )
    .unwrap();
    if let Some((rate, downtime)) = churn {
        engine.attach_fault(Box::new(ChurnLayer::new(rate, downtime)));
    }
    run_checked(engine)
}

fn schedule(kind: u8, gap: u64, batch_size: usize) -> ActivationSchedule {
    match kind {
        0 => ActivationSchedule::Staggered { gap },
        1 => ActivationSchedule::Batches { batch_size, gap },
        2 => ActivationSchedule::UniformWindow {
            window: gap * 4 + 1,
        },
        _ => ActivationSchedule::Simultaneous,
    }
}

fn assert_checkers_agree(checked: &Checked) {
    assert_eq!(checked.checker, checked.dense);
    assert_eq!(
        checked.invariant.rounds_checked,
        checked.result.rounds_executed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random scripts, schedules and churn the active-set checker's
    /// report equals the dense reference's: the same violations in the
    /// same order, the same total and the same round count.
    #[test]
    fn checker_matches_dense_reference_on_scripted_outputs(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0u64..6), 1..8),
            2..10,
        ),
        schedule_kind in 0u8..4,
        gap in 0u64..4,
        batch_size in 1usize..4,
        churn_rate in 0u32..3,
        downtime in 1u64..5,
        seed in 0u64..1_000,
    ) {
        let churn = (churn_rate > 0).then(|| (0.05 * f64::from(churn_rate), downtime));
        let checked = run_scripted(&scripts, schedule(schedule_kind, gap, batch_size), churn, 48, seed);
        assert_checkers_agree(&checked);
    }
}

/// More violations than the checker records in detail: both checkers must
/// keep the same first `MAX_RECORDED` and count the rest identically, and
/// the run must reach every violation kind and real crash/restart churn.
#[test]
fn checker_matches_dense_reference_past_the_recording_cap() {
    // Node i: i, i+1 (a correct step), ⊥ (synch commit), 7, then the cycle
    // restarts at i (a correctness violation unless i = 8); distinct nodes
    // disagree in most rounds.
    let scripts: Vec<Vec<(u8, u64)>> = (0..8u64)
        .map(|i| vec![(1, i), (1, i + 1), (0, 0), (1, 7)])
        .collect();
    for (seed, schedule) in [
        ActivationSchedule::Staggered { gap: 1 },
        ActivationSchedule::Batches {
            batch_size: 3,
            gap: 5,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let checked = run_scripted(&scripts, schedule, Some((0.1, 3)), 200, seed as u64);
        assert_checkers_agree(&checked);
        let report = &checked.checker;
        assert!(report.total_violations > 64, "{report:?}");
        assert_eq!(report.violations.len(), 64);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SynchCommit { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Correctness { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Agreement { .. })));
        assert!(
            checked.invariant.restarts > 0,
            "churn never restarted a node"
        );
    }
}

/// Real protocols under staggered and bursty activation, with and without
/// churn: the active-set invariant holds on every round and the checkers
/// agree.
#[test]
fn active_set_invariant_holds_under_staggered_and_bursty_activation() {
    let churn = || {
        ComponentSpec::named("churn")
            .with("churn_rate", 0.01)
            .with("downtime", 5u64)
    };
    let specs = [
        ScenarioSpec::new("trapdoor", 64, 8, 2)
            .with_adversary("random")
            .with_activation(ActivationSchedule::Staggered { gap: 1 }),
        ScenarioSpec::new("trapdoor", 48, 8, 2)
            .with_adversary("random")
            .with_activation(ActivationSchedule::Batches {
                batch_size: 8,
                gap: 20,
            })
            .with_fault(churn()),
        ScenarioSpec::new("good-samaritan", 24, 16, 4)
            .with_adversary("random")
            .with_activation(ActivationSchedule::Batches {
                batch_size: 6,
                gap: 12,
            }),
        ScenarioSpec::new("good-samaritan", 24, 16, 4)
            .with_adversary("adaptive-greedy")
            .with_activation(ActivationSchedule::Staggered { gap: 3 })
            .with_fault(churn()),
    ];
    for (seed, spec) in specs.iter().enumerate() {
        let spec = spec.clone().with_max_rounds(3_000);
        let checked = run_checked(spec_engine(&spec, seed as u64));
        assert_checkers_agree(&checked);
        assert!(checked.invariant.max_active > 0, "{spec:?}: nothing ran");
    }
}
