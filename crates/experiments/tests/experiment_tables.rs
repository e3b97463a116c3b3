//! Every experiment table at `Effort::Smoke`, pinned byte for byte.
//!
//! The smoke tables are deterministic (fixed seeds, seed-ordered batch
//! results, no wall-clock columns), so any drift means a change to a
//! protocol, an adversary, the engine or an experiment's wiring. To
//! re-record after an *intentional* change, run
//!
//! ```text
//! cargo test -p wsync-experiments --test experiment_tables -- --ignored
//! ```
//!
//! and review the diff of `tests/golden/smoke_tables.txt`.

use wsync_experiments::{run_all, Effort};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/smoke_tables.txt");

fn render_smoke_tables() -> String {
    run_all(Effort::Smoke)
        .iter()
        .map(|report| format!("{}\n", report.to_plain_text()))
        .collect()
}

#[test]
fn smoke_tables_match_the_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("committed golden file");
    let actual = render_smoke_tables();
    if actual != golden {
        let first_diff = golden
            .lines()
            .zip(actual.lines())
            .position(|(g, a)| g != a)
            .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
        panic!(
            "smoke tables drifted from {GOLDEN_PATH} at line {}:\n  golden: {:?}\n  actual: {:?}",
            first_diff + 1,
            golden.lines().nth(first_diff),
            actual.lines().nth(first_diff),
        );
    }
}

/// Re-recording helper: writes the current smoke tables to the golden file.
#[test]
#[ignore = "run with --ignored to re-record the golden smoke tables"]
fn print_smoke_tables() {
    let text = render_smoke_tables();
    std::fs::write(GOLDEN_PATH, &text).expect("golden file is writable");
    println!(
        "re-recorded {} line(s) to {GOLDEN_PATH}",
        text.lines().count()
    );
}
