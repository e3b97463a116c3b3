//! `serve-mix`: the service path. An open-loop stream of `POST /run`
//! requests at a fixed offered rate against a store populated in set-up:
//! ~88% cache hits with seed-range widths 1–256, ~10% misses on fresh
//! seeds (store writes beside reads), and an occasional `GET /metrics` or
//! `GET /healthz`. Once per run a hits-only capacity ladder finds the
//! highest offered rate whose tail latency meets the limit.
//!
//! Every `/run` body must carry the `stats`, `cached` and `executed` an
//! in-process `SweepRunner` reference computes for the same spec and
//! seeds.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};

use wsync_core::batch::BatchRunner;
use wsync_core::json::Value;
use wsync_core::sim::Sim;
use wsync_core::spec::ScenarioSpec;
use wsync_core::store::{spec_digest, ResultStore};
use wsync_core::sweep::SweepRunner;

use super::{
    as_ms, check_same_counts, compact, engine_work, exact_counts, layer_metrics, replay_trials,
    rss_peak_mb, run_rounds, serve_counters, start_server, stats_value, store_size, traced_open,
    LayerInputs, Results, Run, BATCH_WORKERS, CLIENTS, TRACE_PAIRS,
};
use crate::client::{self, Reply};
use crate::clock::{millis, secs, timed};
use crate::gen::{self, MixRequest, MixSpec};
use crate::openloop::{self, Sample};
use crate::report::metric;
use crate::stats::{median, quantile, supported_tail};

/// Offered rate of the measured stream, requests per second.
pub const RATE: f64 = 200.0;
/// Requests per round (five seconds at [`RATE`]).
pub const STREAM_REQUESTS: usize = 1000;
/// The capacity ladder's offered rates, requests per second.
pub const LADDER: [f64; 5] = [200.0, 400.0, 800.0, 1600.0, 3200.0];
/// Seconds of traffic per ladder rung.
const RUNG_SECONDS: f64 = 0.5;
/// Store reopens timed per round (`store_open_s` is their median over
/// every round). One reopen of this store takes ~20 ms and the host's
/// speed wanders over seconds, so many samples per round are needed for
/// a steady median.
const REOPENS: usize = 20;
/// The latency limit a ladder rung's tail (and its late-request backlog)
/// must meet, in ms.
pub const LATENCY_LIMIT_MS: f64 = 25.0;

/// What the reference says one `/run` must answer.
#[derive(Debug, Clone)]
struct Expected {
    stats: String,
    cached: u64,
    executed: u64,
}

/// The reference answer for each distinct `(spec, seed start, seed end)`.
type References = BTreeMap<(usize, u64, u64), Expected>;

/// One round's measurements.
#[derive(Debug, Default)]
struct Round {
    setup_ns: u64,
    open_ns: Vec<u64>,
    hit_ns: Vec<u64>,
    miss_ns: Vec<u64>,
    run_ns: Vec<u64>,
    lateness_ns: Vec<u64>,
    layers: LayerInputs,
}

/// Runs the workload.
pub fn run(run: &Run, trace: bool) -> Results {
    let inputs = gen::serve_mix(run.seed, STREAM_REQUESTS);
    let specs: Vec<ScenarioSpec> = inputs
        .specs
        .iter()
        .map(|s| ScenarioSpec::from_json(&s.text).expect("generated specs decode"))
        .collect();
    let (expected, work) = reference(run, &inputs.specs, &specs, &inputs.requests);
    let mut max_rps = 0.0;
    let mut rss = f64::NAN;
    let all = run_rounds(
        run,
        trace,
        |index, traced| {
            let (mut round, addr) = one_round(run, &inputs, &specs, &expected, index);
            round.layers.engine_rounds = work.0;
            round.layers.node_actions = work.1;
            if index == 0 {
                rss = rss_peak_mb();
                if let (false, Some(addr)) = (trace, addr) {
                    max_rps = ladder(run, addr, &inputs.specs);
                }
            }
            if traced && index == 2 * TRACE_PAIRS {
                layer_replay(run, &inputs, index);
            }
            round
        },
        // The stream's length is fixed by its schedule, so the tracing
        // overhead is judged on the median request latency instead.
        |r| median(&as_ms(&r.run_ns)),
    );
    check_same_counts(
        run,
        all.untraced.iter().chain(&all.traced).map(|r| &r.layers),
    );
    let rounds = &all.untraced;
    let pooled = |f: &dyn Fn(&Round) -> &Vec<u64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| as_ms(f(r))).collect()
    };
    let (hits, misses, runs, late) = (
        pooled(&|r| &r.hit_ns),
        pooled(&|r| &r.miss_ns),
        pooled(&|r| &r.run_ns),
        pooled(&|r| &r.lateness_ns),
    );
    let tail = supported_tail(runs.len());
    let p99 = quantile(&runs, tail);
    let p95 = quantile(&runs, 0.95);
    // The gated figure is the median over all `/run`s: on a shared 2-core
    // machine every tail statistic moves with the neighbours' load far
    // more than with the service's own cost. The tails are printed.
    let p50 = median(&runs);
    let setup_s = median(&rounds.iter().map(|r| secs(r.setup_ns)).collect::<Vec<_>>());
    let opens: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.open_ns.iter().map(|&ns| secs(ns)))
        .collect();
    let open_s = median(&opens);
    let mut results = Results {
        e2e: vec![
            metric("setup_s", setup_s, "s"),
            metric("rss_peak_mb", rss, "MB"),
            metric("store_open_s", open_s, "s"),
            metric("cold_ms", median(&misses), "ms"),
            metric("warm_ms", median(&hits), "ms"),
            metric("http_ms", p50, "ms"),
        ],
        named: vec![
            metric("run_p50_ms", p50, "ms"),
            metric("run_p90_ms", quantile(&runs, 0.9), "ms"),
            metric("run_p95_ms", p95, "ms"),
            metric(
                "run_mean_ms",
                runs.iter().sum::<f64>() / runs.len().max(1) as f64,
                "ms",
            ),
            metric(&format!("run_p{}_ms", (tail * 100.0).round()), p99, "ms"),
            metric("run_hit_p50_ms", median(&hits), "ms"),
            metric("run_miss_p50_ms", median(&misses), "ms"),
            metric("serve_max_rps", max_rps, "req/s"),
            metric("gen_lateness_p99_ms", quantile(&late, 0.99), "ms"),
            metric("run_samples", runs.len() as f64, "count"),
            metric("store_open_s", open_s, "s"),
            metric("setup_s", setup_s, "s"),
            metric("rss_peak_mb", rss, "MB"),
        ],
        counts: exact_counts(&rounds[0].layers),
        layers: Vec::new(),
    };
    if let Some(last) = all.traced.last() {
        let mut layers = last.layers.clone();
        layers.trace_overhead = all.overhead;
        results.layers = layer_metrics(&layers, &run.tracer.snapshot());
    }
    results
}

/// Stores every spec's set-up seed range into the store at `dir`.
fn populate(run: &Run, dir: &Path, mix: &[MixSpec], specs: &[ScenarioSpec]) -> Option<()> {
    let store = run
        .tally
        .record(ResultStore::open(dir).map_err(|e| e.to_string()))?;
    let runner = SweepRunner::with_runner(BatchRunner::with_workers(BATCH_WORKERS))
        .record_only(Arc::new(store));
    for (m, spec) in mix.iter().zip(specs) {
        let report = runner.run_points(vec![(String::new(), spec.clone())], m.stored.clone());
        run.tally.record(report.map_err(|e| e.to_string()))?;
    }
    Some(())
}

/// The in-process reference: every distinct `/run` of the stream through
/// `SweepRunner` on a populated store of its own, plus the engine work of
/// the misses (the only trials the stream executes).
fn reference(
    run: &Run,
    mix: &[MixSpec],
    specs: &[ScenarioSpec],
    requests: &[MixRequest],
) -> (References, (u64, u64)) {
    let dir = run.fresh_dir("reference");
    let mut expected = BTreeMap::new();
    let mut work = (0u64, 0u64);
    if populate(run, &dir, mix, specs).is_none() {
        return (expected, work);
    }
    let Some(store) = run
        .tally
        .record(ResultStore::open(&dir).map_err(|e| e.to_string()))
    else {
        return (expected, work);
    };
    let runner =
        SweepRunner::with_runner(BatchRunner::with_workers(BATCH_WORKERS)).store(Arc::new(store));
    for request in requests {
        let MixRequest::Run { spec, seeds, hit } = request else {
            continue;
        };
        let key = (*spec, seeds.start, seeds.end);
        if expected.contains_key(&key) {
            continue;
        }
        let report = runner.run_points_each(
            vec![(String::new(), specs[*spec].clone())],
            seeds.clone(),
            |_, outcome| {
                if !hit {
                    let (rounds, actions) = engine_work(outcome);
                    work.0 += rounds;
                    work.1 += actions;
                }
            },
        );
        let Some(report) = run.tally.record(report.map_err(|e| e.to_string())) else {
            continue;
        };
        let width = seeds.end - seeds.start;
        expected.insert(
            key,
            Expected {
                stats: stats_value(&report.points[0].stats).to_json_compact(),
                cached: if *hit { width } else { 0 },
                executed: if *hit { 0 } else { width },
            },
        );
    }
    (expected, work)
}

fn send_request(addr: SocketAddr, mix: &[MixSpec], request: &MixRequest) -> std::io::Result<Reply> {
    match request {
        MixRequest::Run { spec, seeds, .. } => client::send(
            addr,
            "POST",
            "/run",
            gen::run_body(&mix[*spec].text, seeds).as_bytes(),
        ),
        MixRequest::Metrics => client::send(addr, "GET", "/metrics", b""),
        MixRequest::Healthz => client::send(addr, "GET", "/healthz", b""),
    }
}

/// Checks one `/run` body against what the reference expects.
pub fn check_run_body(body: &Value, stats: &str, cached: u64, executed: u64) -> Result<(), String> {
    let field = |key: &str| body.get(key).and_then(Value::as_u64);
    if field("cached") != Some(cached) || field("executed") != Some(executed) {
        return Err(format!(
            "cached/executed {:?}/{:?}, expected {cached}/{executed}",
            field("cached"),
            field("executed")
        ));
    }
    let got = compact(body.get("stats"));
    if got != stats {
        return Err(format!("stats {got}, expected {stats}"));
    }
    Ok(())
}

fn one_round(
    run: &Run,
    inputs: &gen::ServeMixInputs,
    specs: &[ScenarioSpec],
    expected: &References,
    index: usize,
) -> (Round, Option<SocketAddr>) {
    let mut round = Round::default();
    let dir = run.fresh_dir(&format!("round{index}"));
    let (addr, setup_ns) = timed(|| {
        populate(run, &dir, &inputs.specs, specs)?;
        run.tally.record(start_server(&dir))
    });
    round.setup_ns = setup_ns;
    let Some(addr) = addr else {
        return (round, None);
    };
    let before = run.tracer.enabled().then(|| serve_counters(run, addr));
    let replies: Mutex<Vec<Option<std::io::Result<Reply>>>> =
        Mutex::new((0..inputs.requests.len()).map(|_| None).collect());
    let samples = openloop::run(inputs.requests.len(), RATE, CLIENTS, |i| {
        let request = &inputs.requests[i];
        let name = match request {
            MixRequest::Run { .. } => "http.run",
            MixRequest::Metrics => "http.metrics",
            MixRequest::Healthz => "http.healthz",
        };
        let reply = run.tracer.span(name, None, i as u64, |_| {
            send_request(addr, &inputs.specs, request)
        });
        replies.lock().expect("reply lock poisoned")[i] = Some(reply);
    });
    let replies = replies.into_inner().expect("clients joined");
    let mut exec_client_ns = 0u64;
    for ((request, reply), sample) in inputs.requests.iter().zip(&replies).zip(&samples) {
        let reply = reply.as_ref().expect("every request was sent");
        if let Ok(r) = reply {
            round.layers.bytes_out += r.bytes_out;
            round.layers.bytes_in += r.bytes_in;
        }
        round.lateness_ns.push(sample.lateness_ns());
        let body = client::json_body(reply);
        match request {
            MixRequest::Run { spec, seeds, hit } => {
                let latency = sample.latency_ns();
                round.run_ns.push(latency);
                if *hit {
                    round.hit_ns.push(latency);
                } else {
                    round.miss_ns.push(latency);
                }
                round.layers.exec_requests += 1;
                exec_client_ns += latency - sample.lateness_ns();
                let want = expected
                    .get(&(*spec, seeds.start, seeds.end))
                    .ok_or_else(|| "no reference for request".to_string());
                run.tally.record(body.and_then(|b| {
                    let want = want?;
                    check_run_body(&b, &want.stats, want.cached, want.executed)
                }));
            }
            MixRequest::Healthz => {
                run.tally.record(body.and_then(|b| {
                    (b.get("status").and_then(Value::as_str) == Some("ok"))
                        .then_some(())
                        .ok_or_else(|| "healthz not ok".to_string())
                }));
            }
            MixRequest::Metrics => {
                run.tally.record(body.and_then(|b| {
                    b.get("requests")
                        .and_then(Value::as_u64)
                        .map(|_| ())
                        .ok_or_else(|| "metrics without a request count".to_string())
                }));
            }
        }
    }
    let mut store = None;
    for _ in 0..REOPENS {
        let (opened, open_ns) = timed(|| traced_open(run, &dir, 0));
        round.open_ns.push(open_ns);
        store = opened;
    }
    let runs_ms = as_ms(&round.run_ns);
    eprintln!(
        "round {index}: setup {:.1} ms, run p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, miss p50 {:.3} ms, open p50 {:.2} ms",
        millis(round.setup_ns),
        median(&runs_ms),
        quantile(&runs_ms, 0.9),
        quantile(&runs_ms, 0.99),
        median(&as_ms(&round.miss_ns)),
        median(&as_ms(&round.open_ns)),
    );
    let (records, bytes) = store_size(&dir);
    let layers = &mut round.layers;
    layers.records_loaded = store.map_or(0, |s| s.loaded_records() as u64);
    layers.records_written = records;
    layers.bytes_written = bytes;
    let (cached, executed): (u64, u64) = expected
        .values()
        .fold((0, 0), |(c, e), x| (c + x.cached, e + x.executed));
    layers.hit_ratio = cached as f64 / (cached + executed) as f64;
    layers.client_ms_per_exec_request = millis(exec_client_ns) / layers.exec_requests as f64;
    layers.lateness_p99_ms = quantile(&as_ms(&round.lateness_ns), 0.99);
    if let Some(before) = before {
        let after = serve_counters(run, addr);
        layers.serve.requests = after.requests - before.requests;
        layers.serve.rejected = after.rejected - before.rejected;
        layers.serve.exec_micros = after.exec_micros - before.exec_micros;
    }
    (round, Some(addr))
}

/// The capacity ladder: hits-only traffic at each rung's rate; returns the
/// highest rate whose tail latency, and whose late-request backlog at the
/// end of the rung, stay within [`LATENCY_LIMIT_MS`].
fn ladder(run: &Run, addr: SocketAddr, mix: &[MixSpec]) -> f64 {
    let mut best = 0.0;
    for (rung, &rate) in LADDER.iter().enumerate() {
        let count = (rate * RUNG_SECONDS) as usize;
        let requests = gen::serve_mix_hits(run.seed ^ rung as u64, mix, count);
        let replies: Mutex<Vec<Option<std::io::Result<Reply>>>> =
            Mutex::new((0..count).map(|_| None).collect());
        let samples: Vec<Sample> = openloop::run(count, rate, CLIENTS, |i| {
            let reply = send_request(addr, mix, &requests[i]);
            replies.lock().expect("reply lock poisoned")[i] = Some(reply);
        });
        let replies = replies.into_inner().expect("clients joined");
        let mut all_ok = true;
        for (request, reply) in requests.iter().zip(&replies) {
            let MixRequest::Run { seeds, .. } = request else {
                continue;
            };
            let width = seeds.end - seeds.start;
            let ok =
                client::json_body(reply.as_ref().expect("every request was sent")).and_then(|b| {
                    let trials = b
                        .get("stats")
                        .and_then(|s| s.get("trials"))
                        .and_then(Value::as_u64);
                    if trials != Some(width) {
                        return Err(format!(
                            "ladder /run reported {trials:?} trials for {width}"
                        ));
                    }
                    check_run_body(&b, &compact(b.get("stats")), width, 0)
                });
            all_ok &= run.tally.record(ok).is_some();
        }
        let latencies: Vec<f64> = samples.iter().map(|s| millis(s.latency_ns())).collect();
        let tail = quantile(&latencies, supported_tail(latencies.len()));
        let backlog: Vec<f64> = samples[samples.len() * 9 / 10..]
            .iter()
            .map(|s| millis(s.lateness_ns()))
            .collect();
        if !all_ok || tail > LATENCY_LIMIT_MS || median(&backlog) > LATENCY_LIMIT_MS {
            break;
        }
        best = rate;
    }
    best
}

/// The traced round's layer replay: every `/run` of the stream, in order,
/// through spec decode/build/digest and a store get per seed; misses also
/// through the bare engine, `Sim::run_one` and a store put.
fn layer_replay(run: &Run, inputs: &gen::ServeMixInputs, index: usize) {
    let dir = run.work.join(format!("round{index}"));
    run.tracer.set_enabled(true);
    let store = traced_open(run, &dir, 0);
    let replay_dir = run.fresh_dir(&format!("round{index}-replay"));
    let scratch = run
        .tally
        .record(ResultStore::open(&replay_dir).map_err(|e| e.to_string()));
    if let (Some(store), Some(scratch)) = (store, scratch) {
        for (i, request) in inputs.requests.iter().enumerate() {
            let MixRequest::Run { spec, seeds, hit } = request else {
                continue;
            };
            let text = &inputs.specs[*spec].text;
            if *hit {
                replay_hit(run, text, seeds.clone(), &store, i as u64);
            } else {
                let seeds: Vec<u64> = seeds.clone().collect();
                replay_trials(run, text, &seeds, &scratch, i as u64);
            }
        }
    }
    run.tracer.set_enabled(false);
}

fn replay_hit(run: &Run, text: &str, seeds: Range<u64>, store: &ResultStore, request: u64) {
    let tracer = &run.tracer;
    tracer.span("bench.replay", None, request, |parent| {
        let spec = tracer.span("spec.decode", parent, request, |_| {
            ScenarioSpec::from_json(text)
        });
        let Some(spec) = run.tally.record(spec.map_err(|e| e.to_string())) else {
            return;
        };
        let sim = tracer.span("spec.build", parent, request, |_| Sim::from_spec(&spec));
        run.tally.record(sim.map(|_| ()).map_err(|e| e.to_string()));
        let digest = tracer.span("spec.digest", parent, request, |_| spec_digest(&spec));
        for seed in seeds {
            let got = tracer.span("store.get", parent, request, |_| store.get(digest, seed));
            run.tally
                .check(got.is_some(), || format!("stored seed {seed} missing"));
        }
    });
}
