//! Spec-validation contract tests for the `"faults"` block: every invalid
//! declaration is rejected at `Sim::from_spec` time with a typed
//! [`SpecError`] (never mid-run), valid declarations round-trip through
//! JSON exactly, the fault-free wire form is byte-unchanged by the
//! feature's existence, and `spec_digest` treats fault layers as part of
//! the cache identity.

use wireless_sync::prelude::*;
use wireless_sync::sync::json::Value;
use wireless_sync::sync::spec::SpecError;
use wireless_sync::sync::store::spec_digest;

fn base() -> ScenarioSpec {
    ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random")
}

fn halves() -> Value {
    Value::Array(vec![
        Value::Array((0..4u32).map(Into::into).collect()),
        Value::Array((4..8u32).map(Into::into).collect()),
    ])
}

#[test]
fn unknown_fault_names_list_the_registered_layers() {
    let err = Sim::from_spec(&base().with_fault("gamma-burst"))
        .err()
        .expect("an unknown fault name must fail validation");
    match &err {
        SpecError::UnknownFault { name, known } => {
            assert_eq!(name, "gamma-burst");
            assert_eq!(known, &["capture", "churn", "drop", "partition"]);
        }
        other => panic!("expected UnknownFault, got {other:?}"),
    }
    // the rendered message carries the full catalogue, so a typo in a spec
    // file is self-correcting from the error alone
    let message = err.to_string();
    for name in ["capture", "churn", "drop", "partition"] {
        assert!(
            message.contains(name),
            "error message misses {name}: {message}"
        );
    }
}

#[test]
fn out_of_range_probabilities_are_rejected() {
    let cases = [
        ("drop", "drop_rate", 1.5),
        ("drop", "drop_rate", -0.1),
        ("capture", "miss_rate", 2.0),
        ("churn", "churn_rate", f64::INFINITY),
    ];
    for (layer, param, value) in cases {
        let spec = base().with_fault(ComponentSpec::named(layer).with(param, value));
        match Sim::from_spec(&spec).err() {
            Some(SpecError::BadParam {
                component,
                param: p,
                expected,
                ..
            }) => {
                assert_eq!(component, layer);
                assert_eq!(p, param);
                assert_eq!(expected, "a probability in [0, 1]");
            }
            other => panic!("{layer}.{param}={value}: expected BadParam, got {other:?}"),
        }
    }
}

#[test]
fn negative_round_counts_and_zero_downtime_are_rejected() {
    // a negative healing round is not a u64
    let spec = base().with_fault(
        ComponentSpec::named("partition")
            .with("groups", halves())
            .with("heal_at", Value::from(-5i64)),
    );
    match Sim::from_spec(&spec).err() {
        Some(SpecError::BadParam {
            component,
            param,
            expected,
            ..
        }) => {
            assert_eq!(component, "partition");
            assert_eq!(param, "heal_at");
            assert_eq!(expected, "a non-negative integer");
        }
        other => panic!("heal_at=-5: expected BadParam, got {other:?}"),
    }

    // a node that crashes for zero rounds never actually restarts
    let spec = base().with_fault(
        ComponentSpec::named("churn")
            .with("churn_rate", 0.1)
            .with("downtime", 0u64),
    );
    match Sim::from_spec(&spec).err() {
        Some(SpecError::BadParam {
            component,
            param,
            expected,
            ..
        }) => {
            assert_eq!(component, "churn");
            assert_eq!(param, "downtime");
            assert_eq!(expected, "a positive number of rounds");
        }
        other => panic!("downtime=0: expected BadParam, got {other:?}"),
    }
}

#[test]
fn partition_group_maps_are_validated_node_by_node() {
    let bad_groups: [(&str, Value); 3] = [
        ("not an array", Value::from("everyone")),
        (
            "out-of-range index",
            Value::Array(vec![Value::Array(vec![
                Value::from(0u32),
                Value::from(99u32),
            ])]),
        ),
        (
            "duplicate index",
            Value::Array(vec![
                Value::Array(vec![Value::from(1u32)]),
                Value::Array(vec![Value::from(1u32)]),
            ]),
        ),
    ];
    for (what, groups) in bad_groups {
        let spec = base().with_fault(ComponentSpec::named("partition").with("groups", groups));
        match Sim::from_spec(&spec).err() {
            Some(SpecError::BadParam {
                component, param, ..
            }) => {
                assert_eq!(component, "partition", "{what}");
                assert_eq!(param, "groups", "{what}");
            }
            other => panic!("{what}: expected BadParam, got {other:?}"),
        }
    }
}

#[test]
fn unknown_fault_parameters_are_rejected_as_typos() {
    let spec = base().with_fault(ComponentSpec::named("drop").with("rate", 0.5));
    assert!(
        Sim::from_spec(&spec).is_err(),
        "a misspelled parameter key must not be silently ignored"
    );
}

#[test]
fn faulty_specs_round_trip_exactly_through_json() {
    let spec = base()
        .with_fault(ComponentSpec::named("drop").with("drop_rate", 0.25))
        .with_fault(ComponentSpec::named("capture").with("miss_rate", 0.1))
        .with_fault(
            ComponentSpec::named("partition")
                .with("groups", halves())
                .with("heal_at", 128u64),
        )
        .with_fault(
            ComponentSpec::named("churn")
                .with("churn_rate", 0.01)
                .with("downtime", 8u64),
        );
    let text = spec.to_json();
    assert!(text.contains("\"faults\""));
    let back = ScenarioSpec::from_json(&text).expect("round trip");
    assert_eq!(back, spec);
    // canonical: serialize → parse → serialize is a fixed point
    assert_eq!(back.to_json(), text);

    // a sweep whose axis targets a fault parameter round-trips too
    let sweep =
        SweepSpec::new(spec, 0..4).with_axis("fault.drop.drop_rate", vec![0.0.into(), 0.5.into()]);
    let back = SweepSpec::from_json(&sweep.to_json()).expect("sweep round trip");
    assert_eq!(back, sweep);
}

#[test]
fn fault_free_wire_form_is_unchanged_by_the_feature() {
    // No "faults" key is ever emitted for a fault-free spec, so specs
    // serialized before the fault subsystem existed parse and re-serialize
    // byte-identically today.
    let plain = base();
    let text = plain.to_json();
    assert!(!text.contains("faults"));
    assert_eq!(ScenarioSpec::from_json(&text).expect("parses"), plain);

    // …and declaring-then-sweeping doesn't resurrect the key: only specs
    // that *declare* layers carry it.
    let rebuilt = ScenarioSpec {
        protocol: ComponentSpec::named("trapdoor"),
        ..plain.clone()
    };
    assert!(!rebuilt.to_json().contains("faults"));
}

#[test]
fn spec_digest_includes_fault_layers() {
    let plain = base();
    let faulty = base().with_fault(ComponentSpec::named("drop").with("drop_rate", 0.25));
    let zero = base().with_fault(ComponentSpec::named("drop").with("drop_rate", 0.0));

    // Faults change the executed physics: no shared cache entries, even at
    // zero intensity (the digest is structural, not semantic).
    assert_ne!(spec_digest(&plain), spec_digest(&faulty));
    assert_ne!(spec_digest(&plain), spec_digest(&zero));
    assert_ne!(spec_digest(&zero), spec_digest(&faulty));

    // Different parameter values digest differently (they are sweep axes).
    let other = base().with_fault(ComponentSpec::named("drop").with("drop_rate", 0.5));
    assert_ne!(spec_digest(&faulty), spec_digest(&other));

    // Probes remain observers: stripping/adding them never moves the
    // digest, faulty or not (the PR 5 contract, restated next to the new
    // one it contrasts with).
    assert_eq!(
        spec_digest(&faulty),
        spec_digest(&faulty.clone().with_probe("metrics").with_probe("trace"))
    );
}
