//! Open-loop load driver: fixed arrival rate, coordinated-omission-free
//! latencies.
//!
//! A closed-loop driver (issue, wait, issue) silently stops generating
//! load exactly when the server is slow — each stall pushes every later
//! request's start time back, so the latency log *omits* the waiting
//! that a real independent client population would have experienced.
//! This driver instead fixes the arrival schedule up front: request `i`
//! is *due* at `start + i/rate`, and its recorded latency runs from
//! that scheduled instant to its response — queueing delay included,
//! whether the queue formed in the sender, the transport, or the
//! server. One thread paces submissions on the schedule while a second
//! collects completions (any order — the ids map back to schedule
//! slots), so a slow response never delays the next arrival.

use std::time::{Duration, Instant};

use crate::client::{Client, ClientError, Result};
use crate::protocol::{Request, Response, ServerError};
use lsm_obs::LatencyHistogram;

/// What one open-loop run measured.
pub struct OpenLoopSummary {
    /// Requests submitted (== responses collected).
    pub ops: usize,
    /// Responses that were admission sheds (`RETRY_AFTER`). Their
    /// latencies are still recorded — a shed is a completion, and hiding
    /// it would understate tail latency exactly when the server is
    /// overloaded.
    pub shed: usize,
    /// Responses carrying any other typed server error.
    pub errors: usize,
    /// Wall-clock from first scheduled arrival to last response.
    pub elapsed: Duration,
    /// Scheduled-arrival-to-response latencies, nanoseconds.
    pub hist: LatencyHistogram,
}

impl OpenLoopSummary {
    /// Completions per second actually achieved.
    pub fn achieved_rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }

    /// Latency (ns) at quantile `q` (e.g. `0.999`).
    pub fn latency_at(&self, q: f64) -> u64 {
        self.hist.value_at(q)
    }
}

/// Drive `ops` requests through `client` at `rate` arrivals per second;
/// `make_req(i)` supplies the i-th request.
///
/// The submitting side must be this call's exclusive use of
/// `client.submit` (ids must stay dense so responses map back to
/// schedule slots); other threads may still use a *different* client.
pub fn run_open_loop(
    client: &Client,
    rate: f64,
    ops: usize,
    mut make_req: impl FnMut(usize) -> Request,
) -> Result<OpenLoopSummary> {
    assert!(rate > 0.0, "open-loop rate must be positive");
    if ops == 0 {
        return Ok(OpenLoopSummary {
            ops: 0,
            shed: 0,
            errors: 0,
            elapsed: Duration::ZERO,
            hist: LatencyHistogram::new(),
        });
    }
    let period = Duration::from_secs_f64(1.0 / rate);
    let base_id = client.next_request_id();
    let start = Instant::now();

    std::thread::scope(|scope| {
        let collector = scope.spawn(move || -> Result<OpenLoopSummary> {
            let mut hist = LatencyHistogram::new();
            let mut shed = 0usize;
            let mut errors = 0usize;
            for _ in 0..ops {
                let (id, resp) = client.recv_next()?;
                let slot = id
                    .checked_sub(base_id)
                    .ok_or_else(|| ClientError::Protocol(format!("alien response id {id}")))?;
                let scheduled = start + period.mul_f64(slot as f64);
                let latency = Instant::now().saturating_duration_since(scheduled);
                hist.record(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
                match resp {
                    Response::Error(ServerError::RetryAfter { .. }) => shed += 1,
                    Response::Error(_) => errors += 1,
                    _ => {}
                }
            }
            Ok(OpenLoopSummary {
                ops,
                shed,
                errors,
                elapsed: start.elapsed(),
                hist,
            })
        });

        for i in 0..ops {
            let due = start + period.mul_f64(i as f64);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep(due - now);
            }
            client.submit(&make_req(i))?;
        }

        collector.join().expect("open-loop collector panicked")
    })
}
