//! The three workloads and what they share: the in-process server, store
//! inspection, the layer replay of a traced run, and the per-layer
//! metric set every workload reports.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use wsync_core::batch::BatchStats;
use wsync_core::json::Value;
use wsync_core::registry;
use wsync_core::report::SyncOutcome;
use wsync_core::sim::Sim;
use wsync_core::spec::ScenarioSpec;
use wsync_core::store::{outcome_to_value, spec_digest, ResultStore};
use wsync_radio::engine::{Engine, ExecutionResult};
use wsync_serve::{ServeConfig, Server};

use crate::client::{self, Tally};
use crate::clock::{millis, now_ns, secs};
use crate::report::{metric, Metric};
use crate::trace::{self, Span, Tracer};

pub mod large_n;
pub mod serve_mix;
pub mod sweep_grid;

/// Client threads (and so connections in flight) at most.
pub const CLIENTS: usize = 2;
/// Worker threads of every in-process `BatchRunner`.
pub const BATCH_WORKERS: usize = 2;
/// Fabric worker threads per `POST /sweep` job.
pub const FABRIC_WORKERS: usize = 2;

/// Traced rounds in a traced run. Each follows an untraced round on the
/// same inputs, and the tracing overhead is the median ratio over these
/// pairs, so slow drift in the machine's speed cancels out.
pub const TRACE_PAIRS: usize = 3;

/// Everything one benchmark run shares across its rounds.
#[derive(Debug)]
pub struct Run {
    /// The workload seed.
    pub seed: u64,
    /// How long to keep measuring, in nanoseconds.
    pub budget_ns: u64,
    /// When measuring started.
    pub start_ns: u64,
    /// The run's scratch directory (stores live here).
    pub work: PathBuf,
    /// The span recorder (enabled in a traced run).
    pub tracer: Tracer,
    /// Attempted and failed operations and checks.
    pub tally: Tally,
}

impl Run {
    /// Whether the measuring budget is spent.
    pub fn out_of_time(&self) -> bool {
        now_ns().saturating_sub(self.start_ns) >= self.budget_ns
    }

    /// A fresh, empty directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
        dir
    }
}

/// The rounds a run measured, untraced and traced.
#[derive(Debug)]
pub struct Rounds<R> {
    /// Untraced rounds, in order; the end-to-end metrics come from these.
    pub untraced: Vec<R>,
    /// Traced rounds, in order (empty unless tracing).
    pub traced: Vec<R>,
    /// Median over the pairs of traced ÷ untraced operation time, − 1.
    pub overhead: f64,
}

/// Runs `one_round(index, traced)` the way `--trace` asks. A measured
/// run repeats untraced rounds until the budget is spent, and always runs
/// at least two. A traced run runs one untraced warm-up round, then
/// [`TRACE_PAIRS`] pairs of an untraced and a traced round. `ops` gives
/// the operation time a round's tracing overhead is judged on.
pub fn run_rounds<R>(
    run: &Run,
    trace: bool,
    mut one_round: impl FnMut(usize, bool) -> R,
    ops: impl Fn(&R) -> f64,
) -> Rounds<R> {
    let mut rounds = Rounds {
        untraced: Vec::new(),
        traced: Vec::new(),
        overhead: f64::NAN,
    };
    let mut ratios = Vec::new();
    for index in 0.. {
        let traced = trace && index >= 2 && index % 2 == 0;
        run.tracer.set_enabled(traced);
        let round = one_round(index, traced);
        run.tracer.set_enabled(false);
        if traced {
            if let Some(before) = rounds.untraced.last() {
                ratios.push(ops(&round) / ops(before) - 1.0);
            }
            rounds.traced.push(round);
        } else {
            rounds.untraced.push(round);
        }
        let done = if trace {
            rounds.traced.len() == TRACE_PAIRS
        } else {
            rounds.untraced.len() >= 2 && run.out_of_time()
        };
        if done {
            break;
        }
    }
    rounds.overhead = crate::stats::median(&ratios);
    rounds
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Results {
    /// The gated end-to-end metrics (`BENCHMARK.json` `end_to_end`).
    pub e2e: Vec<Metric>,
    /// The workload's own end-to-end figures, under their descriptive names.
    pub named: Vec<Metric>,
    /// Exact work counts (repeat bit-for-bit for a given seed).
    pub counts: Vec<(&'static str, u64)>,
    /// Per-layer metrics (`BENCHMARK.json` `per_layer`, traced run only).
    pub layers: Vec<Metric>,
}

/// Binds a `wsync-serve` server on a loopback port over `dir` and serves
/// it from a background thread. `Server::run` has no shutdown, so the
/// thread ends with the process.
pub fn start_server(dir: &Path) -> Result<SocketAddr, String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: dir.to_path_buf(),
        fabric_workers: FABRIC_WORKERS,
        max_handlers: 8,
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    std::thread::spawn(move || server.run());
    Ok(addr)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(records, bytes)` held by the shard files of the store at `dir`.
pub fn store_size(dir: &Path) -> (u64, u64) {
    shard_lines(dir)
        .iter()
        .flatten()
        .fold((0, 0), |(n, b), line| (n + 1, b + line.len() as u64 + 1))
}

/// Each shard file's lines, sorted — the form in which stores written in
/// different orders must be byte-identical.
pub fn shard_lines(dir: &Path) -> Vec<Vec<String>> {
    (0..wsync_core::store::SHARD_COUNT)
        .map(|shard| {
            let path = dir.join(format!("shard-{shard:02}.jsonl"));
            let mut lines: Vec<String> = std::fs::read_to_string(path)
                .unwrap_or_default()
                .lines()
                .map(str::to_string)
                .collect();
            lines.sort();
            lines
        })
        .collect()
}

/// The `stats` object `wsync-serve` reports for a batch.
pub fn stats_value(stats: &BatchStats) -> Value {
    Value::Object(vec![
        ("trials".to_string(), Value::Int(stats.trials as i64)),
        ("sync_rate".to_string(), Value::Float(stats.sync_rate())),
        (
            "single_leader_rate".to_string(),
            Value::Float(stats.single_leader_rate()),
        ),
        ("clean_rate".to_string(), Value::Float(stats.clean_rate())),
        (
            "mean_rounds_to_sync".to_string(),
            Value::Float(stats.rounds_to_sync.mean),
        ),
        (
            "mean_completion_round".to_string(),
            Value::Float(stats.completion_rounds.mean),
        ),
    ])
}

/// Compact JSON of an optional value, for comparisons and messages.
pub fn compact(value: Option<&Value>) -> String {
    value.map_or("<missing>".to_string(), Value::to_json_compact)
}

/// Engine work of one outcome: `(rounds, broadcasts + listens)`.
pub fn engine_work(outcome: &SyncOutcome) -> (u64, u64) {
    let m = &outcome.result.metrics;
    (m.rounds, m.broadcasts + m.listens)
}

/// One trial on a bare engine: the spec's protocol and adversary, no
/// checker, no probes, no store.
pub fn bare_engine(spec: &ScenarioSpec, seed: u64) -> Result<ExecutionResult, String> {
    let scenario = spec.scenario();
    let ctor = registry::resolve_protocol(spec.protocol.name())
        .and_then(|f| f.instantiate(&scenario, &spec.protocol.params))
        .map_err(|e| e.to_string())?;
    let adversary = registry::build_adversary(&scenario.adversary, &scenario, seed)
        .map_err(|e| e.to_string())?;
    let mut engine = Engine::new(
        scenario.sim_config(),
        ctor,
        adversary,
        scenario.activation.clone(),
        seed,
    )
    .map_err(|e| e.to_string())?;
    Ok(engine.run())
}

/// The traced run's layer replay of one scenario's trials: decode, build
/// and digest the spec, then run each seed on a bare engine and through
/// `Sim::run_one`, encode the outcome, put it into `store` and get it
/// back — each call in its own span, each output checked.
pub fn replay_trials(run: &Run, spec_text: &str, seeds: &[u64], store: &ResultStore, request: u64) {
    let tracer = &run.tracer;
    tracer.span("bench.replay", None, request, |parent| {
        let spec = tracer.span("spec.decode", parent, request, |_| {
            ScenarioSpec::from_json(spec_text)
        });
        let Some(spec) = run.tally.record(spec.map_err(|e| e.to_string())) else {
            return;
        };
        let sim = tracer.span("spec.build", parent, request, |_| Sim::from_spec(&spec));
        let Some(sim) = run.tally.record(sim.map_err(|e| e.to_string())) else {
            return;
        };
        let digest = tracer.span("spec.digest", parent, request, |_| spec_digest(&spec));
        for &seed in seeds {
            let bare = tracer.span("engine.run", parent, request, |_| bare_engine(&spec, seed));
            let outcome = tracer.span("sim.run_one", parent, request, |_| sim.run_one(seed));
            run.tally.check(bare.as_ref() == Ok(&outcome.result), || {
                format!("bare engine and Sim::run_one disagree on seed {seed}")
            });
            let line = tracer.span("store.encode", parent, request, |_| {
                outcome_to_value(&outcome).to_json_compact()
            });
            std::hint::black_box(line);
            let put = tracer.span("store.put", parent, request, |_| {
                store.put(digest, seed, &outcome)
            });
            run.tally.record(put.map_err(|e| e.to_string()));
            let got = tracer.span("store.get", parent, request, |_| store.get(digest, seed));
            run.tally.check(got.as_ref() == Some(&outcome), || {
                format!("store get after put differs for seed {seed}")
            });
        }
    });
}

/// Opens the store at `dir` inside a `store.open` span.
pub fn traced_open(run: &Run, dir: &Path, request: u64) -> Option<ResultStore> {
    let store = run.tracer.span("store.open", None, request, |_| {
        ResultStore::open_shared(dir)
    });
    run.tally.record(store.map_err(|e| e.to_string()))
}

/// Service counters read from `GET /metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests handled.
    pub requests: u64,
    /// Connections refused at the handler cap.
    pub rejected: u64,
    /// Microseconds spent executing `/run` and `/sweep` work.
    pub exec_micros: u64,
}

/// Reads the service counters.
pub fn serve_counters(run: &Run, addr: SocketAddr) -> ServeCounters {
    let reply = client::send(addr, "GET", "/metrics", b"");
    let Some(body) = run.tally.record(client::json_body(&reply)) else {
        return ServeCounters::default();
    };
    let field = |key: &str| body.get(key).and_then(Value::as_u64).unwrap_or(0);
    ServeCounters {
        requests: field("requests"),
        rejected: field("rejected"),
        exec_micros: field("exec_micros"),
    }
}

/// Figures a workload gathers for the shared per-layer metric set; a
/// layer the workload does not touch stays zero.
#[derive(Debug, Default, Clone)]
pub struct LayerInputs {
    /// Engine rounds of the measured trials (exact).
    pub engine_rounds: u64,
    /// Broadcasts + listens of the measured trials (exact).
    pub node_actions: u64,
    /// Records in the workload's main store after a round (exact).
    pub records_written: u64,
    /// Bytes of those records (exact).
    pub bytes_written: u64,
    /// Records loaded by the last store open.
    pub records_loaded: u64,
    /// Trials served from the store / trials requested.
    pub hit_ratio: f64,
    /// Sweep trials executed, cached and saved by stopping (exact).
    pub sweep_executed: u64,
    /// See `sweep_executed`.
    pub sweep_cached: u64,
    /// See `sweep_executed`.
    pub sweep_saved: u64,
    /// Σ trial time ÷ (wall × workers) of the in-process cold sweep.
    pub worker_util: f64,
    /// Fabric shard claims that executed trials (exact).
    pub shards_claimed: u64,
    /// Fabric idle passes, reclaimed leases and early-stopped points.
    pub idle_passes: u64,
    /// See `idle_passes`.
    pub leases_reclaimed: u64,
    /// See `idle_passes`.
    pub points_stopped: u64,
    /// Fabric job wall ÷ in-process cold wall for the same trials.
    pub fabric_vs_inprocess: f64,
    /// Service counters over the measured requests.
    pub serve: ServeCounters,
    /// Bytes the client sent over the measured requests.
    pub bytes_out: u64,
    /// Bytes the client read over the measured requests.
    pub bytes_in: u64,
    /// Mean client latency of the requests that execute work, in ms.
    pub client_ms_per_exec_request: f64,
    /// Requests that execute work (`/run`, `/sweep`).
    pub exec_requests: u64,
    /// Open-loop generator lateness, p99, in ms.
    pub lateness_p99_ms: f64,
    /// Traced ÷ untraced wall of the same measured operations, minus 1.
    pub trace_overhead: f64,
    /// The cold request time the large-N shares are taken of, in s.
    pub large_cold_s: f64,
}

/// Checks that every round's exact counts equal the first round's (the
/// rounds must have replayed the same inputs).
pub fn check_same_counts<'a>(run: &Run, rounds: impl IntoIterator<Item = &'a LayerInputs>) {
    let mut rounds = rounds.into_iter().map(exact_counts);
    let Some(first) = rounds.next() else {
        return;
    };
    for later in rounds {
        run.tally.check(later == first, || {
            format!("exact counts differ between rounds: {first:?} vs {later:?}")
        });
    }
}

/// The exact counts, under their per-layer names.
pub fn exact_counts(inputs: &LayerInputs) -> Vec<(&'static str, u64)> {
    vec![
        ("engine.rounds", inputs.engine_rounds),
        ("engine.node_actions", inputs.node_actions),
        ("store.records_written", inputs.records_written),
        ("store.bytes_written", inputs.bytes_written),
        ("sweep.trials_executed", inputs.sweep_executed),
        ("sweep.trials_cached", inputs.sweep_cached),
        ("sweep.trials_saved", inputs.sweep_saved),
        ("fabric.shards_claimed", inputs.shards_claimed),
    ]
}

/// The full per-layer metric set, from the workload's figures and the
/// traced run's spans.
pub fn layer_metrics(inputs: &LayerInputs, spans: &[Span]) -> Vec<Metric> {
    let sum_s = |name: &str| secs(trace::total(spans, name).0);
    let mean_us = |name: &str| {
        let (ns, n) = trace::total(spans, name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let busy_s = sum_s("engine.run");
    let run_one_s = sum_s("sim.run_one");
    let replayed_actions: u64 = inputs.node_actions;
    let mut out = vec![
        metric("engine.rounds", inputs.engine_rounds as f64, "count"),
        metric("engine.node_actions", inputs.node_actions as f64, "count"),
        metric("engine.busy_s", busy_s, "s"),
        metric(
            "engine.ns_per_node_action",
            ratio(busy_s * 1e9, replayed_actions as f64),
            "ns",
        ),
        metric("sim.run_one_s", run_one_s, "s"),
        metric(
            "sim.non_engine_frac",
            if run_one_s > 0.0 {
                1.0 - busy_s / run_one_s
            } else {
                0.0
            },
            "ratio",
        ),
        metric("spec.decode_us", mean_us("spec.decode"), "us"),
        metric("spec.build_us", mean_us("spec.build"), "us"),
        metric("spec.digest_us", mean_us("spec.digest"), "us"),
        metric(
            "store.records_written",
            inputs.records_written as f64,
            "count",
        ),
        metric("store.bytes_written", inputs.bytes_written as f64, "B"),
        metric(
            "store.bytes_per_record",
            ratio(inputs.bytes_written as f64, inputs.records_written as f64),
            "B",
        ),
        metric("store.encode_s", sum_s("store.encode"), "s"),
        metric("store.put_s", sum_s("store.put"), "s"),
        metric("store.get_us", mean_us("store.get"), "us"),
        metric("store.open_s", mean_us("store.open") / 1e6, "s"),
        metric(
            "store.records_loaded",
            inputs.records_loaded as f64,
            "count",
        ),
        metric("store.hit_ratio", inputs.hit_ratio, "ratio"),
        metric(
            "sweep.trials_executed",
            inputs.sweep_executed as f64,
            "count",
        ),
        metric("sweep.trials_cached", inputs.sweep_cached as f64, "count"),
        metric("sweep.trials_saved", inputs.sweep_saved as f64, "count"),
        metric("sweep.worker_util", inputs.worker_util, "ratio"),
        metric(
            "fabric.shards_claimed",
            inputs.shards_claimed as f64,
            "count",
        ),
        metric("fabric.idle_passes", inputs.idle_passes as f64, "count"),
        metric(
            "fabric.leases_reclaimed",
            inputs.leases_reclaimed as f64,
            "count",
        ),
        metric(
            "fabric.points_stopped",
            inputs.points_stopped as f64,
            "count",
        ),
        metric(
            "fabric.vs_inprocess_ratio",
            inputs.fabric_vs_inprocess,
            "ratio",
        ),
        metric("serve.requests", inputs.serve.requests as f64, "count"),
        metric("serve.rejected", inputs.serve.rejected as f64, "count"),
        metric("serve.bytes_in", inputs.bytes_out as f64, "B"),
        metric("serve.bytes_out", inputs.bytes_in as f64, "B"),
        metric(
            "serve.exec_us_per_request",
            ratio(inputs.serve.exec_micros as f64, inputs.exec_requests as f64),
            "us",
        ),
        metric(
            "serve.outside_handler_ms",
            if inputs.exec_requests > 0 {
                inputs.client_ms_per_exec_request
                    - inputs.serve.exec_micros as f64 / 1e3 / inputs.exec_requests as f64
            } else {
                0.0
            },
            "ms",
        ),
        metric("gen.lateness_p99_ms", inputs.lateness_p99_ms, "ms"),
        metric("trace.overhead_frac", inputs.trace_overhead, "ratio"),
    ];
    let by_layer = trace::self_time_by_layer(spans);
    for layer in [
        "bench", "engine", "fabric", "http", "sim", "spec", "store", "sweep",
    ] {
        let name = format!("self.{layer}_s");
        out.push(Metric {
            name,
            value: secs(by_layer.get(layer).copied().unwrap_or(0)),
            unit: "s",
        });
    }
    // Where a cold large-N request spends its time: the bare engine, the
    // rest of `Sim::run_one` (checker, outcome assembly), and the store
    // put (encode + append), each per replayed trial as a share of the
    // median cold request time.
    let (cold_s, trials) = (inputs.large_cold_s, trace::total(spans, "sim.run_one").1);
    let per_trial = |s: f64| if trials > 0 { s / trials as f64 } else { 0.0 };
    out.push(metric(
        "large.engine_share",
        ratio(per_trial(busy_s), cold_s),
        "ratio",
    ));
    out.push(metric(
        "large.sim_share",
        ratio(per_trial(run_one_s - busy_s), cold_s),
        "ratio",
    ));
    out.push(metric(
        "large.store_share",
        ratio(per_trial(sum_s("store.put")), cold_s),
        "ratio",
    ));
    out
}

/// Milliseconds of a list of nanosecond samples, as floats.
pub fn as_ms(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&ns| millis(ns)).collect()
}
