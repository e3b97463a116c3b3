//! The benchmark's wall-clock boundary: every timing in the benchmark is
//! a nanosecond offset from one process-wide origin, read here. Nothing
//! measured here is ever passed to the programs under test.

use std::sync::OnceLock;
// lint:allow(wall-clock): benchmark timing is wall-clock by definition; confined to this module
use std::time::Instant;

// lint:allow(wall-clock): the process-wide origin every timestamp is measured from
fn origin() -> &'static Instant {
    // lint:allow(wall-clock): the origin is read once, on first use
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    // lint:allow(wall-clock): see above
    ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide origin.
pub fn now_ns() -> u64 {
    u64::try_from(origin().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` and returns its result with the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now_ns();
    let out = f();
    (out, now_ns().saturating_sub(start))
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds as milliseconds.
pub fn millis(ns: u64) -> f64 {
    ns as f64 / 1e6
}
