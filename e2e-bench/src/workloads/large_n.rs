//! `large-n`: few, huge records. Single-trial Trapdoor runs with
//! staggered (gap 1) activation at N = 65536 and N = 262144, F = 16,
//! t = 4, capped at 3000 rounds. Each round sends every trial cold as
//! `POST /run` on a fresh server and store, then repeats it warm, and
//! finally reopens the store.
//!
//! Cold and warm bodies must agree, and the record the server stored must
//! equal the in-process `Sim::run_one` outcome (checked once per run).

use std::net::SocketAddr;

use wsync_core::json::Value;
use wsync_core::report::SyncOutcome;
use wsync_core::sim::Sim;
use wsync_core::spec::ScenarioSpec;
use wsync_core::store::ResultStore;

use super::{
    check_same_counts, engine_work, exact_counts, layer_metrics, replay_trials, rss_peak_mb,
    run_rounds, serve_counters, start_server, store_size, traced_open, LayerInputs, Results, Run,
    TRACE_PAIRS,
};
use crate::client;
use crate::clock::{millis, secs, timed};
use crate::gen::{self, LargeTrial};
use crate::report::metric;
use crate::stats::median;

/// Warm `POST /run` repeats per trial and round.
const WARM_REPEATS: usize = 40;

/// Store reopens timed per round (`store_open_s` is their median over
/// every round).
const REOPENS: usize = 3;

/// One round's measurements, per trial in generator order.
#[derive(Debug, Default)]
struct Round {
    setup_ns: u64,
    /// Client latency of each cold `POST /run`.
    cold_ns: Vec<u64>,
    /// Server execution time of each cold `POST /run` (from `/metrics`).
    exec_ns: Vec<u64>,
    /// Every warm `POST /run` latency, per trial.
    warm_ns: Vec<Vec<u64>>,
    open_ns: Vec<u64>,
    layers: LayerInputs,
}

impl Round {
    fn ops_ns(&self) -> u64 {
        self.cold_ns.iter().sum::<u64>() + self.warm_ns.iter().flatten().sum::<u64>()
    }
}

fn mean_ms(values: &[u64]) -> f64 {
    values.iter().map(|&ns| millis(ns)).sum::<f64>() / values.len().max(1) as f64
}

/// Runs the workload.
pub fn run(run: &Run, trace: bool) -> Results {
    let trials = gen::large_n(run.seed);
    let mut rss = f64::NAN;
    let all = run_rounds(
        run,
        trace,
        |index, traced| {
            let round = one_round(run, &trials, index);
            if index == 0 {
                rss = rss_peak_mb();
            }
            if traced && index == 2 * TRACE_PAIRS {
                layer_replay(run, &trials, index);
            }
            round
        },
        |r| r.ops_ns() as f64,
    );
    check_same_counts(
        run,
        all.untraced.iter().chain(&all.traced).map(|r| &r.layers),
    );
    let rounds = &all.untraced;
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    // Per size: cold client latency and server execution time (medians
    // over rounds), and warm latency (median over every round's samples).
    let cold_ms: Vec<f64> = (0..trials.len())
        .map(|i| med(&|r| r.cold_ns.get(i).map_or(f64::NAN, |&ns| millis(ns))))
        .collect();
    let exec_ms: Vec<f64> = (0..trials.len())
        .map(|i| med(&|r| r.exec_ns.get(i).map_or(f64::NAN, |&ns| millis(ns))))
        .collect();
    let warm_ms: Vec<f64> = (0..trials.len())
        .map(|i| {
            let pooled: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.warm_ns.get(i))
                .flat_map(|samples| samples.iter().map(|&ns| millis(ns)))
                .collect();
            median(&pooled)
        })
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let opens: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.open_ns.iter().map(|&ns| secs(ns)))
        .collect();
    let open_s = median(&opens);
    let setup_s = med(&|r| secs(r.setup_ns));
    let mut named = vec![
        metric("large_cold_s", mean(&cold_ms) / 1e3, "s"),
        metric("large_warm_ms", mean(&warm_ms), "ms"),
        metric("large_exec_s", mean(&exec_ms) / 1e3, "s"),
    ];
    for (i, trial) in trials.iter().enumerate() {
        let n = trial.nodes;
        named.push(metric(&format!("large_cold_s_n{n}"), cold_ms[i] / 1e3, "s"));
        named.push(metric(&format!("large_warm_ms_n{n}"), warm_ms[i], "ms"));
    }
    named.extend([
        metric("store_open_s", open_s, "s"),
        metric("setup_s", setup_s, "s"),
        metric("rss_peak_mb", rss, "MB"),
    ]);
    let mut results = Results {
        e2e: vec![
            metric("setup_s", setup_s, "s"),
            metric("rss_peak_mb", rss, "MB"),
            metric("store_open_s", open_s, "s"),
            metric("cold_ms", mean(&exec_ms), "ms"),
            metric("warm_ms", mean(&warm_ms), "ms"),
            metric("http_ms", mean(&cold_ms), "ms"),
        ],
        named,
        counts: exact_counts(&rounds[0].layers),
        layers: Vec::new(),
    };
    if let Some(last) = all.traced.last() {
        let mut layers = last.layers.clone();
        layers.trace_overhead = all.overhead;
        // The shares are of the median cold request over every round, so
        // one disturbed round does not skew the split.
        let colds: Vec<f64> = all
            .untraced
            .iter()
            .chain(&all.traced)
            .map(|r| mean_ms(&r.cold_ns))
            .collect();
        layers.large_cold_s = median(&colds) / 1e3;
        results.layers = layer_metrics(&layers, &run.tracer.snapshot());
    }
    results
}

/// A `/run` body with the cache accounting removed: what must be equal
/// between the cold and the warm answer.
fn without_accounting(body: &Value) -> String {
    match body {
        Value::Object(members) => Value::Object(
            members
                .iter()
                .filter(|(k, _)| k != "cached" && k != "executed")
                .cloned()
                .collect(),
        )
        .to_json_compact(),
        other => other.to_json_compact(),
    }
}

/// Sends one `POST /run`; returns the decoded body (counted as failed if
/// it is not a `200` JSON body), the latency, and the bytes sent and read.
fn post_run(
    run: &Run,
    addr: SocketAddr,
    body: &str,
    request: u64,
) -> (Option<Value>, u64, (u64, u64)) {
    let (reply, ns) = timed(|| {
        run.tracer.span("http.run", None, request, |_| {
            client::send(addr, "POST", "/run", body.as_bytes())
        })
    });
    let bytes = reply.as_ref().map_or((0, 0), |r| (r.bytes_out, r.bytes_in));
    (run.tally.record(client::json_body(&reply)), ns, bytes)
}

fn accounting(body: &Value) -> (Option<u64>, Option<u64>) {
    (
        body.get("cached").and_then(Value::as_u64),
        body.get("executed").and_then(Value::as_u64),
    )
}

fn one_round(run: &Run, trials: &[LargeTrial], index: usize) -> Round {
    let mut round = Round::default();
    let tally = &run.tally;
    let dir = run.fresh_dir(&format!("round{index}"));
    let (addr, setup_ns) = timed(|| start_server(&dir));
    round.setup_ns = setup_ns;
    let Some(addr) = tally.record(addr) else {
        return round;
    };
    let first = serve_counters(run, addr);
    let mut digests: Vec<Option<u64>> = Vec::new();
    for (i, trial) in trials.iter().enumerate() {
        let body = gen::run_body(&trial.text, &(trial.seed..trial.seed + 1));
        let before = serve_counters(run, addr);
        let (cold, ns, bytes) = post_run(run, addr, &body, i as u64);
        round.layers.bytes_out += bytes.0;
        round.layers.bytes_in += bytes.1;
        let after = serve_counters(run, addr);
        round.cold_ns.push(ns);
        round
            .exec_ns
            .push((after.exec_micros - before.exec_micros) * 1_000);
        let Some(cold) = cold else {
            digests.push(None);
            continue;
        };
        tally.check(accounting(&cold) == (Some(0), Some(1)), || {
            format!("cold /run accounting {:?}", accounting(&cold))
        });
        let digest = cold
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        tally.check(digest.is_some(), || {
            "cold /run without a digest".to_string()
        });
        digests.push(digest);
        let expected = without_accounting(&cold);
        let mut warm_ns = Vec::with_capacity(WARM_REPEATS);
        for _ in 0..WARM_REPEATS {
            let (warm, ns, bytes) = post_run(run, addr, &body, i as u64);
            round.layers.bytes_out += bytes.0;
            round.layers.bytes_in += bytes.1;
            warm_ns.push(ns);
            let Some(warm) = warm else { continue };
            tally.check(accounting(&warm) == (Some(1), Some(0)), || {
                format!("warm /run accounting {:?}", accounting(&warm))
            });
            tally.check(without_accounting(&warm) == expected, || {
                format!("N={}: warm body differs from cold body", trial.nodes)
            });
        }
        round.warm_ns.push(warm_ns);
    }
    let last = serve_counters(run, addr);
    let mut store = None;
    for _ in 0..REOPENS {
        let (opened, open_ns) = timed(|| traced_open(run, &dir, 0));
        round.open_ns.push(open_ns);
        store = opened;
    }
    eprintln!(
        "round {index}: setup {:.3} ms, cold {:?} ms, exec {:?} ms, warm p50 {:?} ms, open {:?} ms",
        millis(round.setup_ns),
        round
            .cold_ns
            .iter()
            .map(|&ns| millis(ns).round())
            .collect::<Vec<_>>(),
        round
            .exec_ns
            .iter()
            .map(|&ns| millis(ns).round())
            .collect::<Vec<_>>(),
        round
            .warm_ns
            .iter()
            .map(|w| median(&w.iter().map(|&ns| millis(ns)).collect::<Vec<_>>()))
            .collect::<Vec<_>>(),
        round
            .open_ns
            .iter()
            .map(|&ns| millis(ns).round())
            .collect::<Vec<_>>()
    );
    let (records, bytes) = store_size(&dir);
    let ops_ns = round.ops_ns();
    let layers = &mut round.layers;
    if let Some(store) = &store {
        layers.records_loaded = store.loaded_records() as u64;
        for (trial, digest) in trials.iter().zip(&digests) {
            let stored = digest.and_then(|d| store.get(d, trial.seed));
            let Some(stored) = tally.record(
                stored.ok_or_else(|| format!("N={}: the cold /run left no record", trial.nodes)),
            ) else {
                continue;
            };
            let (rounds, actions) = engine_work(&stored);
            layers.engine_rounds += rounds;
            layers.node_actions += actions;
            if index == 0 {
                verify_against_sim(run, trial, digest.unwrap_or(0), &stored);
            }
        }
    }
    layers.records_written = records;
    layers.bytes_written = bytes;
    layers.sweep_executed = trials.len() as u64;
    layers.sweep_cached = (trials.len() * WARM_REPEATS) as u64;
    layers.hit_ratio = WARM_REPEATS as f64 / (WARM_REPEATS + 1) as f64;
    layers.exec_requests = (trials.len() * (WARM_REPEATS + 1)) as u64;
    layers.client_ms_per_exec_request = millis(ops_ns) / layers.exec_requests as f64;
    layers.serve.requests = last.requests - first.requests;
    layers.serve.rejected = last.rejected - first.rejected;
    layers.serve.exec_micros = last.exec_micros - first.exec_micros;
    round
}

/// The stored record must be exactly what `Sim::run_one` computes in
/// process for the same spec and seed.
fn verify_against_sim(run: &Run, trial: &LargeTrial, digest: u64, stored: &SyncOutcome) {
    let sim = ScenarioSpec::from_json(&trial.text)
        .and_then(|spec| Sim::from_spec(&spec))
        .map_err(|e| e.to_string());
    let Some(sim) = run.tally.record(sim) else {
        return;
    };
    run.tally.check(sim.digest() == digest, || {
        format!(
            "N={}: /run digest {digest:016x} differs from Sim::digest",
            trial.nodes
        )
    });
    run.tally.check(&sim.run_one(trial.seed) == stored, || {
        format!("N={}: stored record differs from Sim::run_one", trial.nodes)
    });
}

/// The traced round's layer replay: each trial through spec decode,
/// build and digest, the bare engine, `Sim::run_one`, encode, store put
/// and get, on a scratch store, which is then reopened.
fn layer_replay(run: &Run, trials: &[LargeTrial], index: usize) {
    let dir = run.fresh_dir(&format!("round{index}-replay"));
    let Some(store) = run
        .tally
        .record(ResultStore::open(&dir).map_err(|e| e.to_string()))
    else {
        return;
    };
    run.tracer.set_enabled(true);
    for (i, trial) in trials.iter().enumerate() {
        replay_trials(run, &trial.text, &[trial.seed], &store, i as u64);
    }
    drop(store);
    traced_open(run, &dir, 0);
    run.tracer.set_enabled(false);
}
