//! Batched per-tenant arrival generation.
//!
//! Arrival streams are **schedule-independent**: tenant `i`'s stream is
//! `t₀ = next_after(0, rngᵢ)`, `tₖ₊₁ = next_after(tₖ, rngᵢ)` with
//! `rngᵢ` derived only from the deployment seed
//! ([`TenantSpec::arrival_rng`]) — nothing the scheduler or the boards
//! do can perturb it. That independence is what lets this source
//! pre-generate arrivals in batches: the inner event loop consumes a
//! buffered `f64` instead of running the Lewis–Shedler thinning loop
//! (and its RNG draws) inline, and the generated sequence is
//! *identical* to the on-demand one — the golden digests do not move.

use rand::rngs::StdRng;

use crate::tenant::{ArrivalProcess, TenantSpec};

/// Arrivals pre-generated per refill. Large enough to amortize the
/// refill call, small enough that a drained queue never sits on much
/// speculative work.
const BATCH: usize = 64;

/// One tenant's buffered arrival stream.
#[derive(Debug)]
struct Stream {
    arrival: ArrivalProcess,
    rng: StdRng,
    /// The next `BATCH` arrival times, consumed front to back.
    buffer: Vec<f64>,
    cursor: usize,
    /// Last generated arrival time — the chain point for the next refill.
    last: f64,
}

impl Stream {
    fn refill(&mut self) {
        self.buffer.clear();
        self.cursor = 0;
        for _ in 0..BATCH {
            self.last = self.arrival.next_after(self.last, &mut self.rng);
            self.buffer.push(self.last);
        }
    }

    #[inline]
    fn next(&mut self) -> f64 {
        let at = self.buffer[self.cursor];
        self.cursor += 1;
        if self.cursor == self.buffer.len() {
            self.refill();
        }
        at
    }
}

/// The pool of per-tenant arrival streams backing a simulation run.
#[derive(Debug)]
pub struct ArrivalSource {
    streams: Vec<Stream>,
}

impl ArrivalSource {
    /// Builds one buffered stream per tenant from the deployment seed,
    /// pre-generating each tenant's first batch.
    pub fn new(tenants: &[TenantSpec], seed: u64) -> Self {
        let streams = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut s = Stream {
                    arrival: t.arrival,
                    rng: t.arrival_rng(seed, i),
                    buffer: Vec::with_capacity(BATCH),
                    cursor: 0,
                    last: 0.0,
                };
                s.refill();
                s
            })
            .collect();
        ArrivalSource { streams }
    }

    /// Consumes and returns `tenant`'s next arrival time. Infinite
    /// stream — the caller (the event loop's offered-load counter)
    /// decides when to stop consuming.
    #[inline]
    pub fn next(&mut self, tenant: usize) -> f64 {
        self.streams[tenant].next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::datasets::Dataset;

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("a", Dataset::Movie, 3.0),
            TenantSpec::new("b", Dataset::Arxiv, 1.0),
        ]
    }

    /// The digest-preserving property: batching changes *when* arrival
    /// times are generated, never *which* — the buffered stream equals
    /// the on-demand chain draw for draw.
    #[test]
    fn batched_stream_equals_on_demand_generation() {
        let ts = tenants();
        let mut src = ArrivalSource::new(&ts, 42);
        for (i, t) in ts.iter().enumerate() {
            let mut rng = t.arrival_rng(42, i);
            let mut at = 0.0;
            for k in 0..(BATCH * 3 + 7) {
                at = t.arrival.next_after(at, &mut rng);
                let got = src.next(i);
                assert_eq!(got.to_bits(), at.to_bits(), "tenant {i} draw {k}");
            }
        }
    }
}
