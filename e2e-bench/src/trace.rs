//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), start and end, the span that
//! caused it and a request id. Spans are recorded only in a traced run,
//! kept in memory, and written out as JSON lines when the run ends. No
//! span sits inside the programs under test: each one wraps a public
//! call made from the benchmark's own code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::clock::now_ns;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `store.put`.
    pub name: &'static str,
    /// Start, in nanoseconds since the process origin.
    pub start_ns: u64,
    /// End (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request or trial the span belongs to.
    pub request: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. A disabled tracer runs the wrapped calls and
/// records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts or stops recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking call")
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// pass as the parent of nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled() {
            return f(None);
        }
        let id = {
            let mut spans = self.spans();
            let start = now_ns();
            spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = now_ns();
        self.spans()[id].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {id}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "request": {}}}"#,
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// Total nanoseconds and count of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, child_ns) in spans.iter().zip(covered) {
        *by_layer.entry(span.layer()).or_insert(0) += span.duration_ns().saturating_sub(child_ns);
    }
    by_layer
}
