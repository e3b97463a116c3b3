//! `e2e-bench --workload <sweep-grid|serve-mix|large-n> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints one line per
//! metric, the exact work counts, and finally one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced
//! round and layer replay give the per-layer ones. Stores are written
//! under `.bench_work/` in the current directory and removed at the end;
//! the traced run's spans stay there as JSON lines.

use std::path::PathBuf;
use std::process::ExitCode;

use wsync_e2e_bench::client::Tally;
use wsync_e2e_bench::clock::now_ns;
use wsync_e2e_bench::report::{metric, result_line, Metric};
use wsync_e2e_bench::trace::Tracer;
use wsync_e2e_bench::workloads::{large_n, serve_mix, sweep_grid, Run};

const USAGE: &str = "usage: e2e-bench --workload <sweep-grid|serve-mix|large-n> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep-grid", "serve-mix", "large-n"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn print_metrics(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{kind} {} = {} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let run = Run {
        seed: args.seed,
        budget_ns: (args.seconds * 1e9) as u64,
        start_ns: now_ns(),
        work: work.clone(),
        tracer: Tracer::new(false),
        tally: Tally::new(),
    };
    let results = match args.workload.as_str() {
        "sweep-grid" => sweep_grid::run(&run, args.trace),
        "serve-mix" => serve_mix::run(&run, args.trace),
        _ => large_n::run(&run, args.trace),
    };
    let _ = std::fs::remove_dir_all(&work);
    let (attempted, failed) = run.tally.counts();
    for why in run.tally.first_failures() {
        eprintln!("failed: {why}");
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    if args.trace {
        let spans = root.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = run.tracer.write_jsonl(&spans) {
            eprintln!("cannot write {}: {e}", spans.display());
        }
        print_metrics("layer", &results.layers);
    } else {
        print_metrics("metric", &results.named);
        print_metrics("metric", &[metric("failed_frac", failed_frac, "ratio")]);
    }
    for (name, value) in &results.counts {
        println!("count {name} = {value}");
    }
    let metrics = if args.trace {
        &results.layers
    } else {
        &results.e2e
    };
    let correct = failed == 0 && attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, metrics)
    );
    ExitCode::SUCCESS
}
