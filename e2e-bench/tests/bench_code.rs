//! Tests of the benchmark's own code: the seeded generator, the open-loop
//! schedule's lateness accounting, and the failure tally.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use wsync_core::json;
use wsync_e2e_bench::client::{self, Tally};
use wsync_e2e_bench::gen::{self, MixRequest};
use wsync_e2e_bench::openloop::{self, Sample};
use wsync_e2e_bench::workloads::serve_mix::check_run_body;

#[test]
fn the_same_seed_gives_the_same_inputs() {
    assert_eq!(gen::sweep_grid(7, 2), gen::sweep_grid(7, 2));
    assert_eq!(gen::serve_mix(7, 500), gen::serve_mix(7, 500));
    assert_eq!(gen::large_n(7), gen::large_n(7));
    assert_ne!(gen::sweep_grid(7, 2), gen::sweep_grid(8, 2));
    assert_ne!(gen::sweep_grid(7, 2), gen::sweep_grid(7, 3));
    assert_ne!(gen::serve_mix(7, 500), gen::serve_mix(8, 500));
    assert_ne!(gen::large_n(7), gen::large_n(8));
}

#[test]
fn generated_specs_decode() {
    let sweeps = gen::sweep_grid(3, 0);
    for text in [&sweeps.trapdoor, &sweeps.samaritan] {
        let sweep = wsync_core::spec::SweepSpec::from_json(text).expect("sweep decodes");
        assert_eq!(sweep.expand().expect("grid expands").len(), 4);
    }
    for spec in gen::serve_mix(3, 10).specs {
        wsync_core::spec::ScenarioSpec::from_json(&spec.text).expect("mix spec decodes");
    }
    for trial in gen::large_n(3) {
        wsync_core::spec::ScenarioSpec::from_json(&trial.text).expect("large spec decodes");
    }
}

#[test]
fn mix_hits_fall_inside_the_stored_range_and_misses_outside() {
    let inputs = gen::serve_mix(11, 5000);
    let (mut hits, mut misses, mut other) = (0, 0, 0);
    let mut miss_seeds = std::collections::BTreeSet::new();
    for request in &inputs.requests {
        match request {
            MixRequest::Run { spec, seeds, hit } => {
                let stored = &inputs.specs[*spec].stored;
                if *hit {
                    hits += 1;
                    assert!(stored.start <= seeds.start && seeds.end <= stored.end);
                    assert!((seeds.end - seeds.start).is_power_of_two());
                } else {
                    misses += 1;
                    assert!(seeds.start >= stored.end);
                    for seed in seeds.clone() {
                        assert!(miss_seeds.insert((*spec, seed)), "a miss seed repeats");
                    }
                }
            }
            MixRequest::Metrics | MixRequest::Healthz => other += 1,
        }
    }
    assert!((400..600).contains(&misses), "{misses} misses in 5000");
    assert!(
        (50..150).contains(&other),
        "{other} metrics/healthz in 5000"
    );
    assert_eq!(hits + misses + other, 5000);
}

#[test]
fn latency_and_lateness_are_charged_from_the_due_time() {
    let sample = Sample {
        index: 3,
        due_ns: 1_000,
        sent_ns: 4_000,
        done_ns: 9_000,
    };
    assert_eq!(sample.latency_ns(), 8_000);
    assert_eq!(sample.lateness_ns(), 3_000);
    assert_eq!(openloop::due_ns(500, 100.0, 3), 500 + 30_000_000);
}

#[test]
fn a_stall_is_charged_to_every_request_queued_behind_it() {
    // One client, requests due every 10 ms, each taking 30 ms: request i
    // is sent ~20·i ms late and its latency counts that wait.
    let samples = openloop::run(6, 100.0, 1, |_| {
        std::thread::sleep(Duration::from_millis(30))
    });
    assert_eq!(samples.len(), 6);
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.index, i);
        let late_ms = s.lateness_ns() as f64 / 1e6;
        let latency_ms = s.latency_ns() as f64 / 1e6;
        assert!(
            late_ms >= 20.0 * i as f64 - 2.0,
            "request {i} late by {late_ms} ms"
        );
        assert!(
            latency_ms >= late_ms + 29.0,
            "request {i}: latency {latency_ms} ms"
        );
    }
}

/// Serves each canned response to one connection, in order.
fn canned_server(responses: Vec<&'static [u8]>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for response in responses {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            stream.write_all(response).expect("write response");
        }
    });
    addr
}

#[test]
fn a_refusal_or_a_corrupted_body_counts_as_failed() {
    let addr = canned_server(vec![
        b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n{\"error\":\"busy\"}",
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"cached\": 1, \"stats\": {",
        b"HTTP/1.1 200 OK\r\n\r\n{\"cached\": 2, \"executed\": 0, \"stats\": {\"trials\": 2}}",
        b"garbage without a header terminator",
    ]);
    let tally = Tally::new();
    for _ in 0..4 {
        let reply = client::send(addr, "POST", "/run", b"{}");
        tally.record(
            client::json_body(&reply)
                .and_then(|body| check_run_body(&body, r#"{"trials":2}"#, 2, 0)),
        );
    }
    assert_eq!(tally.counts(), (4, 2 + 1));
    let reasons = tally.first_failures();
    assert!(reasons[0].contains("503"), "{reasons:?}");
    assert!(reasons[1].contains("corrupt"), "{reasons:?}");
}

#[test]
fn a_wrong_run_body_counts_as_failed() {
    let body = json::parse(r#"{"cached": 4, "executed": 0, "stats": {"trials": 4}}"#).unwrap();
    assert!(check_run_body(&body, r#"{"trials":4}"#, 4, 0).is_ok());
    assert!(check_run_body(&body, r#"{"trials":5}"#, 4, 0).is_err());
    assert!(check_run_body(&body, r#"{"trials":4}"#, 0, 4).is_err());
    let tally = Tally::new();
    tally.record(check_run_body(&body, r#"{"trials":5}"#, 4, 0));
    tally.check(true, String::new);
    assert_eq!(tally.counts(), (2, 1));
}
