//! Golden-outcome regression tests for the radio engine — now driven
//! entirely through the declarative spec API.
//!
//! Each case below pins the exact [`SyncOutcome`] — rounds executed, leader
//! count, property verdicts, per-node summaries, and every engine metric —
//! of one `(protocol, adversary, N, seed)` combination. The pinned digests
//! were captured from the engine *before* the flat structure-of-arrays
//! round-dispatch rewrite and before the registry/spec API redesign; the
//! current engine, running each case via `ScenarioSpec` → `Sim::from_spec`
//! (JSON-round-tripped on the way, so the serialized form is covered too),
//! must reproduce them bit for bit — proving that the registry's
//! type-erased protocol path and the declarative spec layer are
//! observationally identical to the original statically-typed runners.
//!
//! The digest is FNV-1a over the `Debug` rendering of the full outcome, so
//! any divergence anywhere in the outcome (a metric off by one, a changed
//! sync round, a different violation) changes the digest. The side fields
//! (rounds, leaders, synced, violations) are asserted separately so a
//! failure points at what moved before anyone has to diff debug dumps.
//!
//! To re-record after an *intentional* semantic change, run
//!
//! ```sh
//! cargo test --test engine_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use wireless_sync::prelude::*;
use wireless_sync::radio::activation::ActivationSchedule;

/// 64-bit FNV-1a, the digest of a full outcome's `Debug` rendering.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn digest(outcome: &SyncOutcome) -> u64 {
    fnv1a(format!("{outcome:?}").as_bytes())
}

/// Runs one spec through the full declarative pipeline: serialize to JSON,
/// parse back (pinning the wire format into the digest check), validate,
/// resolve against the registry, execute.
fn run_spec(spec: ScenarioSpec, seed: u64) -> SyncOutcome {
    let round_tripped =
        ScenarioSpec::from_json(&spec.to_json()).expect("golden specs round-trip through JSON");
    assert_eq!(round_tripped, spec, "JSON round trip must be lossless");
    Sim::from_spec(&round_tripped)
        .expect("golden specs are valid")
        .run_one(seed)
}

/// The fixed scenario grid: `(name, spec, seed)` for eight
/// protocol/adversary/activation combinations spanning every protocol
/// family, adaptive and oblivious adversaries, staggered and randomized
/// activation, and one known-dirty execution.
fn golden_specs() -> Vec<(&'static str, ScenarioSpec, u64)> {
    vec![
        (
            "trapdoor/random/n8",
            ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random"),
            42,
        ),
        (
            "trapdoor/fixed-band/staggered/n16",
            ScenarioSpec::new("trapdoor", 16, 8, 3)
                .with_adversary("fixed-band")
                .with_activation(ActivationSchedule::Staggered { gap: 2 }),
            7,
        ),
        (
            "trapdoor/adaptive-greedy/uniform/n12",
            ScenarioSpec::new("trapdoor", 12, 16, 5)
                .with_adversary("adaptive-greedy")
                .with_activation(ActivationSchedule::UniformWindow { window: 8 }),
            13,
        ),
        (
            "good-samaritan/oblivious/n8",
            ScenarioSpec::new("good-samaritan", 8, 8, 4)
                .with_adversary(ComponentSpec::named("oblivious-random").with("t_actual", 2u64)),
            11,
        ),
        (
            "good-samaritan/bursty/n10",
            ScenarioSpec::new("good-samaritan", 10, 16, 5).with_adversary(
                ComponentSpec::named("bursty")
                    .with("period", 16u64)
                    .with("burst_len", 4u64),
            ),
            3,
        ),
        (
            "wakeup/sweep/n6",
            ScenarioSpec::new("wakeup", 6, 8, 2).with_adversary("sweep"),
            9,
        ),
        (
            "round-robin/random/n6",
            ScenarioSpec::new("round-robin", 6, 8, 2).with_adversary("random"),
            21,
        ),
        (
            "single-frequency/fixed-band/late-joiner/n4",
            ScenarioSpec::new("single-frequency", 4, 4, 1)
                .with_adversary("fixed-band")
                .with_activation(ActivationSchedule::LateJoiner { late: 3 })
                .with_max_rounds(2_000),
            5,
        ),
    ]
}

fn cases() -> Vec<(&'static str, SyncOutcome)> {
    golden_specs()
        .into_iter()
        .map(|(name, spec, seed)| (name, run_spec(spec, seed)))
        .collect()
}

/// `(name, digest, rounds_executed, leaders, all_synchronized,
/// total_violations)` captured from the pre-refactor engine.
const GOLDEN: &[(&str, u64, u64, usize, bool, u64)] = &[
    ("trapdoor/random/n8", 0xe2d21497700237cf, 195, 1, true, 0),
    (
        "trapdoor/fixed-band/staggered/n16",
        0x961573dd899aabbe,
        413,
        1,
        true,
        0,
    ),
    (
        "trapdoor/adaptive-greedy/uniform/n12",
        0xd3cbeb5377995ad1,
        642,
        1,
        true,
        0,
    ),
    (
        "good-samaritan/oblivious/n8",
        0x9501da306cadf9cd,
        425,
        1,
        true,
        0,
    ),
    (
        "good-samaritan/bursty/n10",
        0xb2c5f60684239808,
        847,
        1,
        true,
        0,
    ),
    ("wakeup/sweep/n6", 0xee9f4b32d765d19d, 90, 2, true, 0),
    ("round-robin/random/n6", 0xde3d9a1abafc2179, 185, 4, true, 0),
    (
        "single-frequency/fixed-band/late-joiner/n4",
        0xd3136354bef51a5d,
        27,
        4,
        true,
        9,
    ),
];

#[test]
fn spec_driven_outcomes_match_pre_refactor_golden_digests() {
    let produced = cases();
    assert_eq!(produced.len(), GOLDEN.len());
    for ((name, outcome), &(g_name, g_digest, g_rounds, g_leaders, g_synced, g_violations)) in
        produced.iter().zip(GOLDEN)
    {
        assert_eq!(*name, g_name, "case order drifted");
        assert_eq!(
            outcome.result.rounds_executed, g_rounds,
            "{name}: rounds_executed moved"
        );
        assert_eq!(outcome.leaders, g_leaders, "{name}: leader count moved");
        assert_eq!(
            outcome.result.all_synchronized, g_synced,
            "{name}: synchronization verdict moved"
        );
        assert_eq!(
            outcome.properties.total_violations, g_violations,
            "{name}: violation count moved"
        );
        assert_eq!(
            digest(outcome),
            g_digest,
            "{name}: full-outcome digest moved — the spec-driven registry \
             path is no longer observationally identical to the pre-refactor \
             statically-typed engine"
        );
    }
}

/// The probe pipeline must be invisible to outcomes: running every pinned
/// case with the full declarative probe stack attached (`metrics`,
/// `checker`, `trace` — the three registry probes, reporting the
/// outcome's metrics and property verdict and a trace summary) reproduces the identical golden digests, and the trial's
/// store digest is unchanged by the probes (instrumented and outcome-only
/// runs share cache entries).
#[test]
fn probe_stack_runs_reproduce_the_golden_digests() {
    for ((name, spec, seed), &(g_name, g_digest, ..)) in golden_specs().iter().zip(GOLDEN) {
        assert_eq!(*name, g_name, "case order drifted");
        let probed_spec = spec
            .clone()
            .with_probe("metrics")
            .with_probe("checker")
            .with_probe("trace");
        assert_eq!(
            wireless_sync::sync::store::spec_digest(&probed_spec),
            wireless_sync::sync::store::spec_digest(spec),
            "{name}: declaring probes must not move the spec's store digest"
        );
        let sim = Sim::from_spec(&probed_spec).expect("probed golden specs are valid");
        let probed = sim.run_probed(*seed);
        assert_eq!(
            digest(&probed.outcome),
            g_digest,
            "{name}: attaching the metrics+checker+trace probe stack changed \
             the outcome digest — probes must never perturb an execution"
        );
        let outputs = probed
            .probes
            .expect("executed trials produce probe outputs");
        assert_eq!(outputs.len(), 3, "{name}: one output per declared probe");
        assert_eq!(outputs[0].name, "metrics");
        assert_eq!(outputs[1].name, "checker");
        assert_eq!(outputs[2].name, "trace");
        // The metrics probe reports the engine's counters.
        assert_eq!(
            outputs[0].value.get("rounds").and_then(|v| v.as_u64()),
            Some(probed.outcome.result.metrics.rounds),
            "{name}: the metrics probe's independent fold disagrees with the engine"
        );
        assert_eq!(
            outputs[0].value.get("deliveries").and_then(|v| v.as_u64()),
            Some(probed.outcome.result.metrics.deliveries),
            "{name}: the metrics probe's delivery count disagrees with the engine"
        );
        // The checker probe reports the outcome's verdict.
        assert_eq!(
            outputs[1].value.get("liveness").and_then(|v| v.as_bool()),
            Some(probed.outcome.properties.liveness),
            "{name}: the incremental checker's liveness verdict disagrees"
        );
        assert_eq!(
            outputs[1]
                .value
                .get("total_violations")
                .and_then(|v| v.as_u64()),
            Some(probed.outcome.properties.total_violations),
            "{name}: the incremental checker's violation count disagrees"
        );
        // The trace probe saw every executed round.
        assert_eq!(
            outputs[2]
                .value
                .get("rounds_recorded")
                .and_then(|v| v.as_u64()),
            Some(probed.outcome.result.rounds_executed),
            "{name}: the trace probe missed rounds"
        );
    }
}

// ---------------------------------------------------------------------------
// Faulty-run goldens: the same digest pinning for executions with fault
// layers attached. These were recorded when the fault subsystem landed and
// pin its exact RNG-stream consumption — a layer drawing one extra (or one
// fewer) random number, or consulting streams in a different order, moves
// every digest below while leaving the fault-free `GOLDEN` table untouched.
// ---------------------------------------------------------------------------

/// `(name, spec, seed)` for six fault configurations: each built-in layer
/// alone, the issue's canonical drop+partition+churn stack, and the full
/// four-layer stack on an adaptive jammer.
fn faulty_golden_specs() -> Vec<(&'static str, ScenarioSpec, u64)> {
    let base = || ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
    let halves = || {
        wireless_sync::sync::json::Value::Array(vec![
            wireless_sync::sync::json::Value::Array((0..4u32).map(Into::into).collect()),
            wireless_sync::sync::json::Value::Array((4..8u32).map(Into::into).collect()),
        ])
    };
    vec![
        (
            "faulty/drop-0.25",
            base().with_fault(ComponentSpec::named("drop").with("drop_rate", 0.25)),
            42,
        ),
        (
            "faulty/capture-0.2",
            base().with_fault(ComponentSpec::named("capture").with("miss_rate", 0.2)),
            42,
        ),
        (
            "faulty/partition-heal-128",
            base().with_fault(
                ComponentSpec::named("partition")
                    .with("groups", halves())
                    .with("heal_at", 128u64),
            ),
            42,
        ),
        (
            "faulty/churn-0.01",
            base().with_fault(
                ComponentSpec::named("churn")
                    .with("churn_rate", 0.01)
                    .with("downtime", 8u64),
            ),
            42,
        ),
        (
            "faulty/drop+partition+churn",
            base()
                .with_fault(ComponentSpec::named("drop").with("drop_rate", 0.15))
                .with_fault(
                    ComponentSpec::named("partition")
                        .with("groups", halves())
                        .with("heal_at", 96u64),
                )
                .with_fault(
                    ComponentSpec::named("churn")
                        .with("churn_rate", 0.005)
                        .with("downtime", 6u64),
                ),
            7,
        ),
        (
            "faulty/full-stack/adaptive-greedy",
            ScenarioSpec::new("trapdoor", 8, 8, 2)
                .with_adversary("adaptive-greedy")
                .with_fault(ComponentSpec::named("drop").with("drop_rate", 0.1))
                .with_fault(ComponentSpec::named("capture").with("miss_rate", 0.1))
                .with_fault(
                    ComponentSpec::named("partition")
                        .with("groups", halves())
                        .with("heal_at", 64u64),
                )
                .with_fault(
                    ComponentSpec::named("churn")
                        .with("churn_rate", 0.005)
                        .with("downtime", 4u64),
                ),
            13,
        ),
    ]
}

/// `(name, digest, rounds_executed, leaders, all_synchronized,
/// total_violations)` recorded when the fault subsystem landed.
const FAULTY_GOLDEN: &[(&str, u64, u64, usize, bool, u64)] = &[
    ("faulty/drop-0.25", 0x207b2637dd01cfba, 195, 1, true, 0),
    ("faulty/capture-0.2", 0x3411d557bd5dba07, 195, 1, true, 0),
    (
        "faulty/partition-heal-128",
        0x90552995a78f6e40,
        200,
        1,
        true,
        0,
    ),
    ("faulty/churn-0.01", 0x156fbe55586da009, 716, 1, true, 35),
    (
        "faulty/drop+partition+churn",
        0x5036ddda8dc136da,
        193,
        1,
        true,
        0,
    ),
    (
        "faulty/full-stack/adaptive-greedy",
        0x95030a2d3c5112a0,
        206,
        1,
        false,
        0,
    ),
];

#[test]
fn fault_layer_runs_match_pinned_golden_digests() {
    let produced: Vec<(&'static str, SyncOutcome)> = faulty_golden_specs()
        .into_iter()
        .map(|(name, spec, seed)| (name, run_spec(spec, seed)))
        .collect();
    assert_eq!(produced.len(), FAULTY_GOLDEN.len());
    for ((name, outcome), &(g_name, g_digest, g_rounds, g_leaders, g_synced, g_violations)) in
        produced.iter().zip(FAULTY_GOLDEN)
    {
        assert_eq!(*name, g_name, "case order drifted");
        assert_eq!(
            outcome.result.rounds_executed, g_rounds,
            "{name}: rounds_executed moved"
        );
        assert_eq!(outcome.leaders, g_leaders, "{name}: leader count moved");
        assert_eq!(
            outcome.result.all_synchronized, g_synced,
            "{name}: synchronization verdict moved"
        );
        assert_eq!(
            outcome.properties.total_violations, g_violations,
            "{name}: violation count moved"
        );
        assert_eq!(
            digest(outcome),
            g_digest,
            "{name}: faulty-run digest moved — a fault layer's RNG-stream \
             consumption or its placement in the round lifecycle changed"
        );
    }
}

/// Re-recording helper for the faulty table.
#[test]
#[ignore = "run with --ignored --nocapture to re-record the faulty golden table"]
fn print_faulty_golden_table() {
    for (name, spec, seed) in faulty_golden_specs() {
        let outcome = run_spec(spec, seed);
        println!(
            "    (\"{name}\", 0x{:016x}, {}, {}, {}, {}),",
            digest(&outcome),
            outcome.result.rounds_executed,
            outcome.leaders,
            outcome.result.all_synchronized,
            outcome.properties.total_violations,
        );
    }
}

/// Re-recording helper: prints the `GOLDEN` table for the current engine.
#[test]
#[ignore = "run with --ignored --nocapture to re-record the golden table"]
fn print_golden_table() {
    for (name, outcome) in cases() {
        println!(
            "    (\"{name}\", 0x{:016x}, {}, {}, {}, {}),",
            digest(&outcome),
            outcome.result.rounds_executed,
            outcome.leaders,
            outcome.result.all_synchronized,
            outcome.properties.total_violations,
        );
    }
}

// ---------------------------------------------------------------------------
// Probe-output pins: the compact JSON each registry probe finalizes into,
// byte for byte, on all fourteen golden cases. The digests above cover the
// outcome only; these cover what a probed run reports beside it.
// ---------------------------------------------------------------------------

/// Labels of the probes declared on every pinned case, in declaration
/// order; `fault-counters` is declared on the faulty cases only.
const PROBE_LABELS: [&str; 6] = [
    "metrics",
    "checker",
    "trace",
    "trace{max_rounds:0}",
    "trace{max_rounds:32}",
    "fault-counters",
];

/// One `"<case> <probe label> <compact JSON>"` line per case and probe.
fn probe_output_lines() -> Vec<String> {
    let plain = golden_specs().into_iter().map(|case| (case, false));
    let faulty = faulty_golden_specs().into_iter().map(|case| (case, true));
    let mut lines = Vec::new();
    for ((name, spec, seed), with_fault_counters) in plain.chain(faulty) {
        let mut spec = spec
            .with_probe("metrics")
            .with_probe("checker")
            .with_probe("trace")
            .with_probe(ComponentSpec::named("trace").with("max_rounds", 0u64))
            .with_probe(ComponentSpec::named("trace").with("max_rounds", 32u64));
        if with_fault_counters {
            spec = spec.with_probe("fault-counters");
        }
        let outputs = Sim::from_spec(&spec)
            .expect("probed golden specs are valid")
            .run_probed(seed)
            .probes
            .expect("executed trials produce probe outputs");
        for (label, output) in PROBE_LABELS.iter().zip(&outputs) {
            assert!(
                label.starts_with(output.name.as_str()),
                "{name}: probe order"
            );
            lines.push(format!("{name} {label} {}", output.value.to_json_compact()));
        }
    }
    lines
}

#[test]
fn probe_outputs_match_pinned_bytes() {
    let produced = probe_output_lines();
    let pinned: Vec<&str> = PINNED_PROBE_OUTPUTS.lines().collect();
    assert_eq!(produced.len(), pinned.len(), "pinned probe line count");
    for (got, want) in produced.iter().zip(pinned) {
        assert_eq!(got, want, "probe output bytes moved");
    }
}

/// Re-recording helper for `PINNED_PROBE_OUTPUTS`.
#[test]
#[ignore = "run with --ignored --nocapture to re-record the probe output pins"]
fn print_probe_output_pins() {
    for line in probe_output_lines() {
        println!("{line}");
    }
}

/// Recorded from the probe pipeline before the observation layer was
/// collapsed onto `Probe` and `SyncOutcome`.
const PINNED_PROBE_OUTPUTS: &str = r#"trapdoor/random/n8 metrics {"rounds":195,"broadcasts":119,"listens":1441,"sleeps":0,"deliveries":83,"receptions":140,"collisions":6,"jammed_solo_broadcasts":22,"disrupted_frequency_rounds":390,"max_active_nodes":8,"adversary_budget_violations":0}
trapdoor/random/n8 checker {"total_violations":0,"rounds_observed":195,"liveness":true,"safety_holds":true,"completion_round":186}
trapdoor/random/n8 trace {"rounds_recorded":195,"total_deliveries":83,"sync_rounds":[172,175,180,186,167,186,175,184]}
trapdoor/random/n8 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
trapdoor/random/n8 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":20,"sync_rounds":[null,null,null,null,null,null,null,null]}
trapdoor/fixed-band/staggered/n16 metrics {"rounds":413,"broadcasts":272,"listens":6096,"sleeps":0,"deliveries":136,"receptions":352,"collisions":9,"jammed_solo_broadcasts":118,"disrupted_frequency_rounds":1239,"max_active_nodes":16,"adversary_budget_violations":0}
trapdoor/fixed-band/staggered/n16 checker {"total_violations":0,"rounds_observed":413,"liveness":true,"safety_holds":true,"completion_round":404}
trapdoor/fixed-band/staggered/n16 trace {"rounds_recorded":413,"total_deliveries":136,"sync_rounds":[335,341,404,341,348,351,401,377,338,341,338,351,377,351,338,351]}
trapdoor/fixed-band/staggered/n16 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
trapdoor/fixed-band/staggered/n16 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":14,"sync_rounds":[null,null,null,null,null,null,null,null,null,null,null,null,null,null,null,null]}
trapdoor/adaptive-greedy/uniform/n12 metrics {"rounds":642,"broadcasts":514,"listens":7147,"sleeps":0,"deliveries":255,"receptions":254,"collisions":13,"jammed_solo_broadcasts":233,"disrupted_frequency_rounds":3210,"max_active_nodes":12,"adversary_budget_violations":0}
trapdoor/adaptive-greedy/uniform/n12 checker {"total_violations":0,"rounds_observed":642,"liveness":true,"safety_holds":true,"completion_round":633}
trapdoor/adaptive-greedy/uniform/n12 trace {"rounds_recorded":642,"total_deliveries":255,"sync_rounds":[549,527,552,573,552,549,633,534,537,549,534,573]}
trapdoor/adaptive-greedy/uniform/n12 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
trapdoor/adaptive-greedy/uniform/n12 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":14,"sync_rounds":[null,null,null,null,null,null,null,null,null,null,null,null]}
good-samaritan/oblivious/n8 metrics {"rounds":425,"broadcasts":308,"listens":3092,"sleeps":0,"deliveries":209,"receptions":229,"collisions":15,"jammed_solo_broadcasts":69,"disrupted_frequency_rounds":850,"max_active_nodes":8,"adversary_budget_violations":0}
good-samaritan/oblivious/n8 checker {"total_violations":0,"rounds_observed":425,"liveness":true,"safety_holds":true,"completion_round":416}
good-samaritan/oblivious/n8 trace {"rounds_recorded":425,"total_deliveries":209,"sync_rounds":[391,416,413,400,400,394,389,388]}
good-samaritan/oblivious/n8 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
good-samaritan/oblivious/n8 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":12,"sync_rounds":[null,null,null,null,null,null,null,null]}
good-samaritan/bursty/n10 metrics {"rounds":847,"broadcasts":446,"listens":8024,"sleeps":0,"deliveries":382,"receptions":395,"collisions":14,"jammed_solo_broadcasts":36,"disrupted_frequency_rounds":1060,"max_active_nodes":10,"adversary_budget_violations":0}
good-samaritan/bursty/n10 checker {"total_violations":0,"rounds_observed":847,"liveness":true,"safety_holds":true,"completion_round":838}
good-samaritan/bursty/n10 trace {"rounds_recorded":847,"total_deliveries":382,"sync_rounds":[838,822,822,826,826,820,822,822,821,837]}
good-samaritan/bursty/n10 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
good-samaritan/bursty/n10 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":19,"sync_rounds":[null,null,null,null,null,null,null,null,null,null]}
wakeup/sweep/n6 metrics {"rounds":90,"broadcasts":87,"listens":453,"sleeps":0,"deliveries":59,"receptions":32,"collisions":3,"jammed_solo_broadcasts":21,"disrupted_frequency_rounds":180,"max_active_nodes":6,"adversary_budget_violations":0}
wakeup/sweep/n6 checker {"total_violations":0,"rounds_observed":90,"liveness":true,"safety_holds":true,"completion_round":81}
wakeup/sweep/n6 trace {"rounds_recorded":90,"total_deliveries":59,"sync_rounds":[47,56,81,54,47,52]}
wakeup/sweep/n6 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
wakeup/sweep/n6 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":17,"sync_rounds":[null,null,null,null,null,null]}
round-robin/random/n6 metrics {"rounds":185,"broadcasts":331,"listens":779,"sleeps":0,"deliveries":243,"receptions":106,"collisions":0,"jammed_solo_broadcasts":88,"disrupted_frequency_rounds":370,"max_active_nodes":6,"adversary_budget_violations":0}
round-robin/random/n6 checker {"total_violations":0,"rounds_observed":185,"liveness":true,"safety_holds":true,"completion_round":176}
round-robin/random/n6 trace {"rounds_recorded":185,"total_deliveries":243,"sync_rounds":[167,167,176,167,176,167]}
round-robin/random/n6 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
round-robin/random/n6 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":31,"sync_rounds":[null,null,null,null,null,null]}
single-frequency/fixed-band/late-joiner/n4 metrics {"rounds":27,"broadcasts":52,"listens":53,"sleeps":0,"deliveries":0,"receptions":0,"collisions":17,"jammed_solo_broadcasts":7,"disrupted_frequency_rounds":27,"max_active_nodes":4,"adversary_budget_violations":0}
single-frequency/fixed-band/late-joiner/n4 checker {"total_violations":9,"rounds_observed":27,"liveness":true,"safety_holds":false,"completion_round":18}
single-frequency/fixed-band/late-joiner/n4 trace {"rounds_recorded":27,"total_deliveries":0,"sync_rounds":[15,15,15,18]}
single-frequency/fixed-band/late-joiner/n4 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
single-frequency/fixed-band/late-joiner/n4 trace{max_rounds:32} {"rounds_recorded":27,"total_deliveries":0,"sync_rounds":[15,15,15,18]}
faulty/drop-0.25 metrics {"rounds":195,"broadcasts":119,"listens":1441,"sleeps":0,"deliveries":65,"receptions":111,"collisions":6,"jammed_solo_broadcasts":22,"disrupted_frequency_rounds":390,"max_active_nodes":8,"adversary_budget_violations":0}
faulty/drop-0.25 checker {"total_violations":0,"rounds_observed":195,"liveness":true,"safety_holds":true,"completion_round":186}
faulty/drop-0.25 trace {"rounds_recorded":195,"total_deliveries":65,"sync_rounds":[177,177,183,186,167,186,183,184]}
faulty/drop-0.25 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
faulty/drop-0.25 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":16,"sync_rounds":[null,null,null,null,null,null,null,null]}
faulty/drop-0.25 fault-counters {"dropped_deliveries":18,"suppressed_receptions":0,"severed_receptions":0,"crashed_node_rounds":0,"restarts":0}
faulty/capture-0.2 metrics {"rounds":195,"broadcasts":128,"listens":1432,"sleeps":0,"deliveries":86,"receptions":124,"collisions":9,"jammed_solo_broadcasts":22,"disrupted_frequency_rounds":390,"max_active_nodes":8,"adversary_budget_violations":0}
faulty/capture-0.2 checker {"total_violations":0,"rounds_observed":195,"liveness":true,"safety_holds":true,"completion_round":186}
faulty/capture-0.2 trace {"rounds_recorded":195,"total_deliveries":86,"sync_rounds":[172,177,180,177,167,186,175,175]}
faulty/capture-0.2 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
faulty/capture-0.2 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":22,"sync_rounds":[null,null,null,null,null,null,null,null]}
faulty/capture-0.2 fault-counters {"dropped_deliveries":0,"suppressed_receptions":33,"severed_receptions":0,"crashed_node_rounds":0,"restarts":0}
faulty/partition-heal-128 metrics {"rounds":200,"broadcasts":176,"listens":1424,"sleeps":0,"deliveries":113,"receptions":92,"collisions":12,"jammed_solo_broadcasts":36,"disrupted_frequency_rounds":400,"max_active_nodes":8,"adversary_budget_violations":0}
faulty/partition-heal-128 checker {"total_violations":0,"rounds_observed":200,"liveness":true,"safety_holds":true,"completion_round":191}
faulty/partition-heal-128 trace {"rounds_recorded":200,"total_deliveries":113,"sync_rounds":[172,175,172,175,167,180,191,172]}
faulty/partition-heal-128 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
faulty/partition-heal-128 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":27,"sync_rounds":[null,null,null,null,null,null,null,null]}
faulty/partition-heal-128 fault-counters {"dropped_deliveries":0,"suppressed_receptions":0,"severed_receptions":81,"crashed_node_rounds":0,"restarts":0}
faulty/churn-0.01 metrics {"rounds":716,"broadcasts":292,"listens":5044,"sleeps":0,"deliveries":219,"receptions":349,"collisions":4,"jammed_solo_broadcasts":65,"disrupted_frequency_rounds":1432,"max_active_nodes":8,"adversary_budget_violations":0}
faulty/churn-0.01 checker {"total_violations":35,"rounds_observed":716,"liveness":true,"safety_holds":false,"completion_round":707}
faulty/churn-0.01 trace {"rounds_recorded":716,"total_deliveries":219,"sync_rounds":[707,664,692,661,660,664,661,673]}
faulty/churn-0.01 trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
faulty/churn-0.01 trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":17,"sync_rounds":[null,null,null,null,null,null,null,null]}
faulty/churn-0.01 fault-counters {"dropped_deliveries":0,"suppressed_receptions":0,"severed_receptions":0,"crashed_node_rounds":392,"restarts":49}
faulty/drop+partition+churn metrics {"rounds":193,"broadcasts":227,"listens":1287,"sleeps":0,"deliveries":103,"receptions":115,"collisions":26,"jammed_solo_broadcasts":52,"disrupted_frequency_rounds":386,"max_active_nodes":8,"adversary_budget_violations":0}
faulty/drop+partition+churn checker {"total_violations":0,"rounds_observed":193,"liveness":true,"safety_holds":true,"completion_round":184}
faulty/drop+partition+churn trace {"rounds_recorded":193,"total_deliveries":103,"sync_rounds":[172,178,184,172,167,172,172,181]}
faulty/drop+partition+churn trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
faulty/drop+partition+churn trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":22,"sync_rounds":[null,null,null,null,null,null,null,null]}
faulty/drop+partition+churn fault-counters {"dropped_deliveries":18,"suppressed_receptions":0,"severed_receptions":46,"crashed_node_rounds":30,"restarts":5}
faulty/full-stack/adaptive-greedy metrics {"rounds":206,"broadcasts":228,"listens":1402,"sleeps":0,"deliveries":77,"receptions":86,"collisions":32,"jammed_solo_broadcasts":73,"disrupted_frequency_rounds":412,"max_active_nodes":8,"adversary_budget_violations":0}
faulty/full-stack/adaptive-greedy checker {"total_violations":0,"rounds_observed":206,"liveness":false,"safety_holds":true,"completion_round":null}
faulty/full-stack/adaptive-greedy trace {"rounds_recorded":206,"total_deliveries":77,"sync_rounds":[179,171,193,169,167,169,169,197]}
faulty/full-stack/adaptive-greedy trace{max_rounds:0} {"rounds_recorded":0,"total_deliveries":0,"sync_rounds":[]}
faulty/full-stack/adaptive-greedy trace{max_rounds:32} {"rounds_recorded":32,"total_deliveries":15,"sync_rounds":[null,null,null,null,null,null,null,null]}
faulty/full-stack/adaptive-greedy fault-counters {"dropped_deliveries":8,"suppressed_receptions":8,"severed_receptions":22,"crashed_node_rounds":18,"restarts":4}
"#;
