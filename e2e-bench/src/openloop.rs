//! The open-loop request schedule.
//!
//! Request `i` is due at `start + i / rate`, whatever happened to earlier
//! requests. A pool of client threads takes requests in order; a request
//! whose due time has passed is sent at once. Latency is charged from the
//! due time, so a stall also counts against every request queued behind
//! it, and the gap between due and send time is the generator's lateness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::clock::now_ns;

/// The timing of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Position in the stream.
    pub index: usize,
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When a client actually sent it.
    pub sent_ns: u64,
    /// When its response was complete.
    pub done_ns: u64,
}

impl Sample {
    /// Latency charged from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Due time of request `index` in a stream starting at `start_ns` with
/// `rate` requests per second.
pub fn due_ns(start_ns: u64, rate: f64, index: usize) -> u64 {
    start_ns + (index as f64 * 1e9 / rate) as u64
}

/// Sends `count` requests at `rate` per second from `clients` threads,
/// calling `send(i)` for request `i`; returns the samples in index order.
pub fn run(count: usize, rate: f64, clients: usize, send: impl Fn(usize) + Sync) -> Vec<Sample> {
    let start = now_ns() + 1_000_000;
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let due = due_ns(start, rate, index);
                let now = now_ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let sent = now_ns();
                send(index);
                let sample = Sample {
                    index,
                    due_ns: due,
                    sent_ns: sent,
                    done_ns: now_ns(),
                };
                samples
                    .lock()
                    .expect("sample lock poisoned by a panicking client")
                    .push(sample);
            });
        }
    });
    let mut samples = samples.into_inner().expect("clients joined");
    samples.sort_by_key(|s| s.index);
    samples
}
