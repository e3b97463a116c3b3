//! `sweep-grid`: the research path. Two `SweepSpec`s (fixed-seed
//! Trapdoor, adaptive Good Samaritan) run three ways each round:
//!
//! 1. cold through `SweepRunner` on an empty store (the
//!    `run_experiments --spec --out` path);
//! 2. cold as `POST /sweep` fabric jobs, streamed through `GET /jobs/<id>`;
//! 3. warm replay from a freshly opened store, repeated.
//!
//! Every pass must agree on every point's statistics, and the in-process
//! and fabric stores must hold the same sorted shard bytes.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use wsync_core::batch::BatchRunner;
use wsync_core::fabric::{self, FabricConfig, WorkerSummary};
use wsync_core::json::{self, Value};
use wsync_core::report::SyncOutcome;
use wsync_core::spec::{ScenarioSpec, SweepSpec};
use wsync_core::store::ResultStore;
use wsync_core::sweep::{SweepReport, SweepRunner};

use super::{
    check_same_counts, compact, engine_work, exact_counts, layer_metrics, replay_trials,
    rss_peak_mb, run_rounds, serve_counters, shard_lines, start_server, stats_value, store_size,
    LayerInputs, Results, Run, BATCH_WORKERS, TRACE_PAIRS,
};
use crate::client;
use crate::clock::{millis, now_ns, secs, timed};
use crate::gen;
use crate::report::metric;
use crate::stats::median;

/// Warm replays per round.
const WARM_REPEATS: usize = 9;

/// One round's timings and exact figures.
#[derive(Debug, Default)]
struct Round {
    setup_ns: u64,
    cold_ns: u64,
    cold_trials: u64,
    fabric_ns: u64,
    fabric_trials: u64,
    warm_ns: Vec<u64>,
    warm_trials: u64,
    open_ns: Vec<u64>,
    layers: LayerInputs,
}

/// A grid point as a fabric job stream reports it.
#[derive(Debug, Default)]
struct StreamedPoint {
    stats: String,
    seeds_used: Option<u64>,
}

/// What one `GET /jobs/<id>` stream said.
#[derive(Debug, Default)]
struct JobStream {
    points: Vec<StreamedPoint>,
    executed: u64,
    shards_claimed: u64,
    leases_reclaimed: u64,
    points_stopped: u64,
    done: bool,
    bytes_out: u64,
    bytes_in: u64,
}

/// Runs the workload.
pub fn run(run: &Run, trace: bool) -> Results {
    let mut rss = f64::NAN;
    let rounds = run_rounds(
        run,
        trace,
        |index, traced| {
            // A traced run keeps one input set, so that its rounds can be
            // compared with each other; a measured run draws a fresh set
            // per round.
            let inputs = gen::sweep_grid(run.seed, if trace { 0 } else { index as u64 });
            let texts = [inputs.trapdoor.as_str(), inputs.samaritan.as_str()];
            let mut round = one_round(run, &texts, index);
            if index == 0 {
                rss = rss_peak_mb();
            }
            if traced && index == 2 * TRACE_PAIRS {
                layer_replay(run, &texts, index, &mut round);
            }
            round
        },
        |r| (r.cold_ns + r.fabric_ns + r.warm_ns.iter().sum::<u64>()) as f64,
    );
    if trace {
        check_same_counts(
            run,
            rounds
                .untraced
                .iter()
                .chain(&rounds.traced)
                .map(|r| &r.layers),
        );
    }
    let untraced = &rounds.untraced;
    // Per-trial times over all rounds' trials (ratio of sums), since the
    // rounds' input sets differ in size.
    let per_trial = |ns: &dyn Fn(&Round) -> u64, trials: &dyn Fn(&Round) -> u64| {
        millis(untraced.iter().map(ns).sum()) / untraced.iter().map(trials).sum::<u64>() as f64
    };
    let cold_ms = per_trial(&|r| r.cold_ns, &|r| r.cold_trials);
    let fabric_ms = per_trial(&|r| r.fabric_ns, &|r| r.fabric_trials);
    // A warm pass is a few milliseconds, so one stalled pass can dwarf a
    // round's others: take each round's median pass, per trial, and the
    // median over rounds (a warm pass costs the same per record whatever
    // the input set).
    let warm_ms = median(
        &untraced
            .iter()
            .map(|r| millis(median_u64(&r.warm_ns)) / r.warm_trials as f64)
            .collect::<Vec<_>>(),
    );
    let open_s = median(
        &untraced
            .iter()
            .flat_map(|r| r.open_ns.iter().map(|&ns| secs(ns)))
            .collect::<Vec<_>>(),
    );
    let setup_s = median(
        &untraced
            .iter()
            .map(|r| secs(r.setup_ns))
            .collect::<Vec<_>>(),
    );
    let mut results = Results {
        e2e: vec![
            metric("setup_s", setup_s, "s"),
            metric("rss_peak_mb", rss, "MB"),
            metric("store_open_s", open_s, "s"),
            metric("cold_ms", cold_ms, "ms"),
            metric("warm_ms", warm_ms, "ms"),
            metric("http_ms", fabric_ms, "ms"),
        ],
        named: vec![
            metric("sweep_trials_per_s", 1e3 / cold_ms, "trials/s"),
            metric("fabric_trials_per_s", 1e3 / fabric_ms, "trials/s"),
            metric("resume_trials_per_s", 1e3 / warm_ms, "trials/s"),
            metric("store_open_s", open_s, "s"),
            metric("setup_s", setup_s, "s"),
            metric("rss_peak_mb", rss, "MB"),
        ],
        counts: exact_counts(&untraced[0].layers),
        layers: Vec::new(),
    };
    if let Some(last) = rounds.traced.last() {
        let mut layers = last.layers.clone();
        layers.trace_overhead = rounds.overhead;
        results.layers = layer_metrics(&layers, &run.tracer.snapshot());
    }
    results
}

fn median_u64(values: &[u64]) -> u64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>()) as u64
}

fn decode(run: &Run, text: &str) -> Option<SweepSpec> {
    let sweep = run
        .tracer
        .span("spec.decode", None, 0, |_| SweepSpec::from_json(text));
    run.tally.record(sweep.map_err(|e| e.to_string()))
}

fn points_of(sweep: &SweepSpec) -> Vec<(String, ScenarioSpec)> {
    sweep
        .expand()
        .map(|points| points.into_iter().map(|p| (p.label, p.spec)).collect())
        .unwrap_or_default()
}

fn one_round(run: &Run, texts: &[&str; 2], index: usize) -> Round {
    let mut round = Round::default();
    let tracer = &run.tracer;
    let inproc = run.fresh_dir(&format!("round{index}-inproc"));
    let fabric_dir = run.fresh_dir(&format!("round{index}-fabric"));
    let (addr, setup_ns) = timed(|| start_server(&fabric_dir));
    round.setup_ns = setup_ns;
    let Some(addr) = run.tally.record(addr) else {
        return round;
    };
    let before = tracer.enabled().then(|| serve_counters(run, addr));

    // 1. Cold, in process, on an empty store.
    let start = now_ns();
    let store = tracer.span("store.open", None, 0, |_| ResultStore::open(&inproc));
    let Some(store) = run.tally.record(store.map_err(|e| e.to_string())) else {
        return round;
    };
    let store = Arc::new(store);
    let runner = SweepRunner::with_runner(BatchRunner::with_workers(BATCH_WORKERS));
    let mut cold: Vec<(SweepSpec, SweepReport)> = Vec::new();
    for text in texts {
        let Some(sweep) = decode(run, text) else {
            return round;
        };
        let report = tracer.span("sweep.run", None, 0, |_| {
            runner.clone().record_only(Arc::clone(&store)).run(&sweep)
        });
        let Some(report) = run.tally.record(report.map_err(|e| e.to_string())) else {
            return round;
        };
        cold.push((sweep, report));
    }
    drop(store);
    round.cold_ns = now_ns() - start;
    round.cold_trials = cold.iter().map(|(_, r)| r.executed_trials()).sum();

    // 2. Cold, as fabric jobs behind the server.
    let start = now_ns();
    let mut streams = Vec::new();
    for (request, text) in texts.iter().enumerate() {
        streams.push(fabric_job(run, addr, text, request as u64));
    }
    round.fabric_ns = now_ns() - start;
    round.fabric_trials = streams.iter().map(|s| s.executed).sum();

    // 3. Warm replay from a freshly opened store, repeated.
    let mut warm: Vec<SweepReport> = Vec::new();
    let mut work = (0u64, 0u64);
    for repeat in 0..WARM_REPEATS {
        let start = now_ns();
        let (store, open_ns) =
            timed(|| tracer.span("store.open", None, 0, |_| ResultStore::open(&inproc)));
        round.open_ns.push(open_ns);
        let Some(store) = run.tally.record(store.map_err(|e| e.to_string())) else {
            return round;
        };
        round.layers.records_loaded = store.loaded_records() as u64;
        let runner = runner.clone().store(Arc::new(store));
        warm.clear();
        for text in texts {
            let Some(sweep) = decode(run, text) else {
                return round;
            };
            let count = |_: usize, o: &SyncOutcome| {
                if repeat == 0 {
                    let (rounds, actions) = engine_work(o);
                    work.0 += rounds;
                    work.1 += actions;
                }
            };
            let report = tracer.span("sweep.run", None, 0, |_| {
                match (&sweep.stop, sweep.seeds()) {
                    (None, Ok(seeds)) => runner.run_points_each(points_of(&sweep), seeds, count),
                    (Some(rule), _) => {
                        sweep
                            .effective_seeds()
                            .map_err(Into::into)
                            .and_then(|seeds| {
                                runner.run_points_adaptive_each(
                                    points_of(&sweep),
                                    seeds,
                                    rule,
                                    count,
                                )
                            })
                    }
                    (None, Err(e)) => Err(e.into()),
                }
            });
            let Some(report) = run.tally.record(report.map_err(|e| e.to_string())) else {
                return round;
            };
            warm.push(report);
        }
        round.warm_ns.push(now_ns() - start);
    }
    round.warm_trials = warm.iter().map(SweepReport::cached_trials).sum();

    verify(run, &cold, &warm, &streams, &inproc, &fabric_dir);
    eprintln!(
        "round {index}: setup {:.3} ms, cold {:.1} ms, fabric {:.1} ms, warm {:.2} ms",
        millis(round.setup_ns),
        millis(round.cold_ns),
        millis(round.fabric_ns),
        millis(median_u64(&round.warm_ns))
    );

    let (records, bytes) = store_size(&inproc);
    let executed = round.cold_trials;
    let cached = round.warm_trials;
    let layers = &mut round.layers;
    layers.engine_rounds = work.0;
    layers.node_actions = work.1;
    layers.records_written = records;
    layers.bytes_written = bytes;
    layers.sweep_executed = executed;
    layers.sweep_cached = cached;
    layers.sweep_saved = cold
        .iter()
        .filter(|(sweep, _)| sweep.stop.is_some())
        .map(|(sweep, report)| {
            let budget = sweep.effective_seeds().map_or(0, |s| s.end - s.start);
            budget * report.points.len() as u64 - report.total_trials()
        })
        .sum();
    layers.hit_ratio = cached as f64 * WARM_REPEATS as f64
        / (cached as f64 * WARM_REPEATS as f64 + executed as f64 * 2.0);
    layers.shards_claimed = streams.iter().map(|s| s.shards_claimed).sum();
    layers.leases_reclaimed = streams.iter().map(|s| s.leases_reclaimed).sum();
    layers.points_stopped = streams.iter().map(|s| s.points_stopped).sum();
    layers.fabric_vs_inprocess = round.fabric_ns as f64 / round.cold_ns as f64;
    layers.bytes_out = streams.iter().map(|s| s.bytes_out).sum();
    layers.bytes_in = streams.iter().map(|s| s.bytes_in).sum();
    layers.exec_requests = streams.len() as u64;
    layers.client_ms_per_exec_request = millis(round.fabric_ns) / streams.len() as f64;
    if let Some(before) = before {
        let after = serve_counters(run, addr);
        layers.serve.requests = after.requests - before.requests;
        layers.serve.rejected = after.rejected - before.rejected;
        layers.serve.exec_micros = after.exec_micros - before.exec_micros;
    }
    round
}

/// `POST /sweep`, then stream `GET /jobs/<id>` to the end.
fn fabric_job(run: &Run, addr: SocketAddr, text: &str, request: u64) -> JobStream {
    let tracer = &run.tracer;
    let mut out = JobStream::default();
    let reply = tracer.span("http.sweep", None, request, |_| {
        client::send(addr, "POST", "/sweep", text.as_bytes())
    });
    let mut count_bytes = |reply: &std::io::Result<client::Reply>| {
        if let Ok(r) = reply {
            out.bytes_out += r.bytes_out;
            out.bytes_in += r.bytes_in;
        }
    };
    count_bytes(&reply);
    let accepted = match &reply {
        Ok(r) if r.status == 202 => std::str::from_utf8(&r.body)
            .ok()
            .and_then(|t| json::parse(t).ok())
            .and_then(|v| v.get("job").and_then(Value::as_str).map(str::to_string))
            .ok_or_else(|| "202 without a job id".to_string()),
        Ok(r) => Err(format!("POST /sweep answered {}", r.status)),
        Err(e) => Err(format!("transport: {e}")),
    };
    let Some(job) = run.tally.record(accepted) else {
        return out;
    };
    let reply = tracer.span("http.job_stream", None, request, |_| {
        client::send(addr, "GET", &format!("/jobs/{job}"), b"")
    });
    count_bytes(&reply);
    let body = match &reply {
        Ok(r) if r.status == 200 => Ok(String::from_utf8_lossy(&r.body).into_owned()),
        Ok(r) => Err(format!("GET /jobs answered {}", r.status)),
        Err(e) => Err(format!("transport: {e}")),
    };
    let Some(body) = run.tally.record(body) else {
        return out;
    };
    for line in body.lines() {
        let Some(event) = run
            .tally
            .record(json::parse(line).map_err(|e| format!("job line: {e}")))
        else {
            continue;
        };
        let field = |key: &str| event.get(key).and_then(Value::as_u64).unwrap_or(0);
        match event.get("event").and_then(Value::as_str) {
            Some("point") => out.points.push(StreamedPoint {
                stats: compact(event.get("stats")),
                seeds_used: event.get("seeds_used").and_then(Value::as_u64),
            }),
            // A claim whose shard a peer completed between the claimant's
            // check and its claim executes nothing; that benign race is
            // timing-dependent, so only claims that executed trials count.
            Some("shard_complete") if field("executed") > 0 => out.shards_claimed += 1,
            Some("lease_reclaimed") => out.leases_reclaimed += 1,
            Some("point_stopped") => out.points_stopped += 1,
            Some("done") => {
                out.done = true;
                out.executed = field("executed") + field("cached");
            }
            Some("error") => {
                run.tally
                    .record::<()>(Err(format!("job error: {}", compact(event.get("message")))));
            }
            _ => {}
        }
    }
    run.tally
        .check(out.done, || format!("job {job} stream ended without done"));
    out
}

fn verify(
    run: &Run,
    cold: &[(SweepSpec, SweepReport)],
    warm: &[SweepReport],
    streams: &[JobStream],
    inproc: &Path,
    fabric_dir: &Path,
) {
    let tally = &run.tally;
    for (((sweep, cold), warm), stream) in cold.iter().zip(warm).zip(streams) {
        tally.check(warm.executed_trials() == 0, || {
            format!("warm replay executed {} trials", warm.executed_trials())
        });
        tally.check(stream.points.len() == cold.points.len(), || {
            format!(
                "fabric job streamed {} points, in-process ran {}",
                stream.points.len(),
                cold.points.len()
            )
        });
        for ((c, w), f) in cold.points.iter().zip(&warm.points).zip(&stream.points) {
            let expected = stats_value(&c.stats).to_json_compact();
            tally.check(stats_value(&w.stats).to_json_compact() == expected, || {
                format!("warm stats differ at {}", c.label)
            });
            tally.check(f.stats == expected, || {
                format!(
                    "fabric stats differ at {}: {} vs {expected}",
                    c.label, f.stats
                )
            });
            tally.check(c.seeds_used() == w.seeds_used(), || {
                format!("warm seeds used differ at {}", c.label)
            });
            if sweep.stop.is_some() {
                tally.check(f.seeds_used == Some(c.seeds_used()), || {
                    format!("fabric seeds used differ at {}", c.label)
                });
            }
        }
    }
    let (a, b) = (shard_lines(inproc), shard_lines(fabric_dir));
    tally.check(a == b, || {
        "in-process and fabric shard bytes differ".to_string()
    });
}

/// The traced round's layer replay: every trial of the cold pass through
/// the bare engine, `Sim::run_one` and the store, and each sweep drained
/// by two direct `fabric::run_worker` threads on a fresh directory.
fn layer_replay(run: &Run, texts: &[&str; 2], index: usize, round: &mut Round) {
    let replay_dir = run.fresh_dir(&format!("round{index}-replay"));
    let Some(store) = run
        .tally
        .record(ResultStore::open(&replay_dir).map_err(|e| e.to_string()))
    else {
        return;
    };
    let fabric_dir = run.fresh_dir(&format!("round{index}-direct-fabric"));
    run.tracer.set_enabled(true);
    let mut request = 0u64;
    let mut summaries: Vec<WorkerSummary> = Vec::new();
    for text in texts {
        let Some(sweep) = decode(run, text) else {
            continue;
        };
        let runner =
            SweepRunner::with_runner(BatchRunner::with_workers(BATCH_WORKERS)).store(Arc::new(
                ResultStore::open(run.work.join(format!("round{index}-inproc")))
                    .expect("the round's in-process store reopens"),
            ));
        let Some(report) = run
            .tally
            .record(runner.run(&sweep).map_err(|e| e.to_string()))
        else {
            continue;
        };
        for point in &report.points {
            let start = report.seed_start;
            let seeds: Vec<u64> = (start..start + point.seeds_used()).collect();
            replay_trials(run, &point.spec.to_json(), &seeds, &store, request);
            request += 1;
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..BATCH_WORKERS)
                .map(|k| {
                    let (dir, sweep) = (&fabric_dir, &sweep);
                    scope.spawn(move || {
                        let config = FabricConfig::new(format!("bench-w{k}"));
                        run.tracer.span("fabric.run_worker", None, k as u64, |_| {
                            fabric::run_worker(dir, sweep, &config, |_| {})
                        })
                    })
                })
                .collect();
            for handle in handles {
                let summary = handle.join().expect("fabric worker thread panicked");
                if let Some(summary) = run.tally.record(summary.map_err(|e| e.to_string())) {
                    summaries.push(summary);
                }
            }
        });
    }
    run.tracer.set_enabled(false);
    let _ = fabric::clean_stop_markers(&fabric_dir);
    let direct = shard_lines(&fabric_dir);
    run.tally.check(
        direct == shard_lines(&run.work.join(format!("round{index}-inproc"))),
        || "direct fabric workers left different shard bytes".to_string(),
    );
    let spans = run.tracer.snapshot();
    let run_one_s = secs(crate::trace::total(&spans, "sim.run_one").0);
    let layers = &mut round.layers;
    layers.worker_util = run_one_s / (secs(round.cold_ns) * BATCH_WORKERS as f64);
    layers.idle_passes = summaries.iter().map(|s| s.idle_passes).sum();
    layers.leases_reclaimed += summaries.iter().map(|s| s.leases_reclaimed).sum::<u64>();
}
