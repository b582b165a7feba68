//! The one place a run narrates what happened.
//!
//! Every order-sensitive digest word, every [`TrafficReport`] tally,
//! every queue-depth sample and every trace span or counter goes through
//! a [`Narrator`] method, one per semantic fact (an arrival, an expiry, a
//! dispatch, a stage starting, a completion, …). The event handlers in
//! the parent module decide the schedule and then *report* it here.
//!
//! The narrator owns the digest, the tallies, the depth timeline and the
//! sink — and nothing the schedule reads: no pool, scheduler, event
//! queue, cache or cost memo. The handlers therefore cannot read back
//! what they reported, so "tracing never perturbs the schedule" is a
//! property of the borrow checker rather than of discipline. Each method
//! builds its spans and counter values only when [`TraceSink::enabled`]
//! holds — a value read from elsewhere in the run arrives as a closure
//! that only runs then — so [`NullSink`](crate::trace::NullSink) runs
//! compile every emission out.

use crate::cache::CacheStats;
use crate::metrics::{
    BoardStats, CompletedRequest, DepthTimeline, RequestLatency, RequestOutcome, SimPerf,
    StageHistograms, StallBreakdown, TenantStats, TrafficReport,
};
use crate::sched::Request;
use crate::tenant::TenantSpec;
use crate::trace::{BoardResource, CounterKind, CounterSample, Span, SpanKind, TraceSink, Track};

use super::{Completion, Dispatched, ServeConfig};

/// FNV-1a accumulator for the order-sensitive event-trace digest.
struct TraceDigest {
    hash: u64,
    /// Multi-board (or pipelined) runs tag reconfiguration and
    /// completion words with the board index; the single-board serial
    /// layout is frozen so the PR 1 digests stay reproducible.
    tag_boards: bool,
}

impl TraceDigest {
    fn push(&mut self, words: &[u64]) {
        for &word in words {
            let mut h = self.hash;
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            self.hash = h;
        }
    }

    fn push_board(&mut self, board: usize) {
        if self.tag_boards {
            self.push(&[board as u64]);
        }
    }
}

/// The report's tallies, filled as the run narrates.
#[derive(Default)]
struct RunStats {
    tenants: Vec<TenantStats>,
    /// Per-tenant SLO budgets ([`TenantSpec::slo_secs`]); violations are
    /// counted here, independent of the scheduler in force.
    slo: Vec<Option<f64>>,
    /// Per-tenant effective deadlines; completions strictly past them
    /// count as served-late, not goodput.
    deadlines: Vec<Option<f64>>,
    /// Keep a per-request completion log.
    log: bool,
    /// The wasted-work ledger: bytes moved and board seconds spent on
    /// work no client waited for (aborted stages, hedge-loser legs,
    /// past-deadline completions).
    wasted_work_bytes: u64,
    wasted_secs: f64,
    stages: StageHistograms,
    requests: Vec<CompletedRequest>,
    /// Aggregate stall attribution over completed requests (each
    /// request's six components sum to its end-to-end latency).
    stall: StallBreakdown,
    reconfigs: u64,
    reconfig_secs: f64,
    overlap_secs: f64,
    last_board_free: f64,
}

impl RunStats {
    fn complete(
        &mut self,
        tenant: usize,
        arrival_secs: f64,
        latency: RequestLatency,
        host_bytes: u64,
        switch_bytes: u64,
    ) -> RequestOutcome {
        let total = latency.total();
        // Strictly past the deadline only: completing at the exact
        // instant is still goodput (the same boundary in-queue expiry
        // uses).
        let late = self.deadlines[tenant].is_some_and(|d| total > d);
        let outcome = if late {
            RequestOutcome::ServedLate
        } else {
            RequestOutcome::Served
        };
        let t = &mut self.tenants[tenant];
        t.completed += 1;
        t.outcomes.record(outcome);
        t.latency.record(total);
        if !late {
            t.goodput_latency.record(total);
        }
        t.queue_wait.record(latency.queue_secs);
        if self.slo[tenant].is_some_and(|budget| total > budget) {
            t.slo_violations += 1;
        }
        t.board_secs += latency.board_secs();
        if late {
            // A completion the client abandoned is pure wasted work:
            // the whole board visit and every byte it moved.
            self.wasted_secs += latency.board_secs();
            self.wasted_work_bytes += host_bytes + switch_bytes;
        }
        self.stages.record(&latency);
        self.stall.accumulate(&StallBreakdown::of(&latency));
        if self.log {
            self.requests.push(CompletedRequest {
                tenant,
                arrival_secs,
                latency,
                host_bytes,
                switch_bytes,
                outcome,
            });
        }
        outcome
    }
}

/// Narrates one run into its digest, tallies, depth timeline and sink
/// (see the [module docs](self)). The hot-path methods that borrow a
/// request record are `#[inline]`: an out-of-line call would pin the
/// caller's record in memory and cost a `memcpy` per event.
pub struct Narrator<'s, S: TraceSink + ?Sized> {
    digest: TraceDigest,
    stats: RunStats,
    depth: DepthTimeline,
    sink: &'s mut S,
}

impl<'s, S: TraceSink + ?Sized> Narrator<'s, S> {
    pub fn new(
        tenants: &[TenantSpec],
        cfg: &ServeConfig,
        deadlines: &[Option<f64>],
        sink: &'s mut S,
    ) -> Self {
        let stats = RunStats {
            tenants: tenants
                .iter()
                .map(|t| TenantStats {
                    name: t.name.clone(),
                    ..TenantStats::default()
                })
                .collect(),
            slo: tenants.iter().map(|t| t.slo_secs).collect(),
            deadlines: deadlines.to_vec(),
            log: cfg.log_requests,
            ..RunStats::default()
        };
        Narrator {
            digest: TraceDigest {
                hash: 0xCBF2_9CE4_8422_2325,
                tag_boards: cfg.boards > 1 || cfg.overlap,
            },
            stats,
            depth: DepthTimeline::with_stride(cfg.depth_stride),
            sink,
        }
    }

    /// Closes the narration into the run's report.
    pub fn into_report(
        self,
        cache: CacheStats,
        boards: Vec<BoardStats>,
        sim: SimPerf,
    ) -> TrafficReport {
        let stats = self.stats;
        TrafficReport {
            tenants: stats.tenants,
            cache,
            duration_secs: stats.last_board_free,
            reconfigs: stats.reconfigs,
            reconfig_secs: stats.reconfig_secs,
            queue_depth: self.depth,
            boards,
            stages: stats.stages,
            overlap_secs: stats.overlap_secs,
            requests: stats.requests,
            stall: stats.stall,
            wasted_work_bytes: stats.wasted_work_bytes,
            wasted_secs: stats.wasted_secs,
            sim,
            trace_digest: self.digest.hash,
        }
    }

    fn outcome(&mut self, tenant: usize, outcome: RequestOutcome) {
        self.stats.tenants[tenant].outcomes.record(outcome);
    }

    /// Emits a span for request `request` of `tenant` (callers check
    /// `enabled`).
    fn span(
        &mut self,
        track: Track,
        kind: SpanKind,
        (tenant, request): (usize, u64),
        begin: f64,
        end: f64,
    ) {
        self.sink.span(Span {
            track,
            kind,
            tenant,
            request,
            begin_secs: begin,
            end_secs: end,
        });
    }

    /// Emits `rq`'s `kind` span on the board `board` resource that stage
    /// occupies (callers check `enabled`).
    fn board_span(&mut self, rq: &Dispatched, board: usize, kind: SpanKind, begin: f64, end: f64) {
        let resource = match kind {
            SpanKind::Reconfig => BoardResource::Icap,
            SpanKind::Preprocess => BoardResource::Fabric,
            _ => BoardResource::Dma,
        };
        let track = Track::Board { board, resource };
        self.span(track, kind, (rq.tenant, rq.trace_id), begin, end);
    }

    fn counter(&mut self, kind: CounterKind, time_secs: f64, value: f64) {
        self.sink.counter(CounterSample {
            kind,
            time_secs,
            value,
        });
    }

    /// Samples the cumulative wasted-work bytes.
    fn wasted_work(&mut self, time_secs: f64) {
        if self.sink.enabled() {
            let bytes = self.stats.wasted_work_bytes as f64;
            self.counter(CounterKind::WastedWork, time_secs, bytes);
        }
    }

    /// Samples cumulative cache hits, full and partial, out of the
    /// `cache` statistics.
    fn cache_hits(&mut self, now: f64, cache: impl FnOnce() -> CacheStats) {
        if self.sink.enabled() {
            let cache = cache();
            let hits = (cache.hits + cache.partial_hits) as f64;
            self.counter(CounterKind::CacheHits, now, hits);
        }
    }

    /// A request cancelled after it was admitted: a `Cancelled` span on
    /// the queue track, `begin → end`.
    fn cancelled(&mut self, who: (usize, u64), begin: f64, end: f64) {
        if self.sink.enabled() {
            self.span(Track::Queue, SpanKind::Cancelled, who, begin, end);
        }
    }

    /// `waiters` coalesced duplicates of a dead primary expire with it.
    fn waiters_expired(&mut self, tenant: usize, waiters: usize) {
        for _ in 0..waiters {
            self.outcome(tenant, RequestOutcome::ExpiredInQueue);
            self.digest.push(&[0xE1, tenant as u64]);
        }
    }

    /// A request of `tenant` arrived.
    pub fn arrival(&mut self, now: f64, tenant: usize) {
        self.digest.push(&[0xA1, tenant as u64, now.to_bits()]);
    }

    /// The scheduler refused an arrival of `tenant`.
    pub fn dropped(&mut self, tenant: usize) {
        self.stats.tenants[tenant].dropped += 1;
        self.outcome(tenant, RequestOutcome::DroppedAtAdmission);
        self.digest.push(&[0xD0]);
    }

    /// The admission queue moved to `depth` requests.
    pub fn queue_depth(&mut self, now: f64, depth: usize) {
        self.depth.record(now, depth);
        if self.sink.enabled() {
            self.counter(CounterKind::QueueDepth, now, depth as f64);
        }
    }

    /// Queued `rq` (trace id `request`) passed its deadline, taking
    /// `waiters` coalesced duplicates with it.
    pub fn expired(&mut self, now: f64, rq: Request, request: u64, waiters: usize) {
        self.outcome(rq.tenant, RequestOutcome::ExpiredInQueue);
        self.digest.push(&[0xE1, rq.tenant as u64]);
        self.cancelled((rq.tenant, request), rq.arrival_secs, now);
        self.waiters_expired(rq.tenant, waiters);
    }

    /// An arrival of `tenant` was served whole from the result cache.
    pub fn cache_hit(&mut self, now: f64, tenant: usize, cache: impl FnOnce() -> CacheStats) {
        self.stats.tenants[tenant].cache_hits += 1;
        self.digest.push(&[0xCA, tenant as u64]);
        self.cache_hits(now, cache);
    }

    /// An arrival of `tenant` parked on an in-flight duplicate.
    pub fn coalesced(&mut self, tenant: usize) {
        self.stats.tenants[tenant].cache_coalesced += 1;
        self.digest.push(&[0xC0, tenant as u64]);
    }

    /// A dispatch of `tenant` to `board` skips preprocessing against a
    /// fresh cache entry.
    pub fn partial_hit(
        &mut self,
        now: f64,
        tenant: usize,
        board: usize,
        cache: impl FnOnce() -> CacheStats,
    ) {
        self.stats.tenants[tenant].cache_partial_hits += 1;
        self.digest.push(&[0xCF, tenant as u64, board as u64]);
        self.cache_hits(now, cache);
    }

    /// A dispatch of `tenant` found no fresh cache entry.
    pub fn cache_miss(&mut self, tenant: usize) {
        self.stats.tenants[tenant].cache_misses += 1;
    }

    /// `rq` left the queue (now `depth` deep) as trace id `request`;
    /// `split` names the idle board a `SplitHot` overflow claimed.
    pub fn dispatched(
        &mut self,
        now: f64,
        rq: Request,
        request: u64,
        depth: usize,
        split: Option<usize>,
    ) {
        if let Some(board) = split {
            self.digest.push(&[0x51, board as u64]);
        }
        self.queue_depth(now, depth);
        if self.sink.enabled() {
            let who = (rq.tenant, request);
            self.span(Track::Queue, SpanKind::Queue, who, rq.arrival_secs, now);
        }
    }

    /// `rq`'s graph streams from peer `source` to `board` over the
    /// switch, holding the source's DMA engine until `done`.
    #[inline]
    pub fn migrated_out(
        &mut self,
        rq: &Dispatched,
        board: usize,
        source: usize,
        now: f64,
        done: f64,
    ) {
        self.digest
            .push(&[0x39, rq.tenant as u64, board as u64, source as u64]);
        if self.sink.enabled() {
            self.board_span(rq, source, SpanKind::MigrateOut, now, done);
        }
    }

    /// Board `board`'s residency moved: samples the `bytes` its DRAM now
    /// holds.
    pub fn residency(&mut self, now: f64, board: usize, bytes: impl FnOnce() -> u64) {
        if self.sink.enabled() {
            self.counter(CounterKind::ResidentBytes { board }, now, bytes() as f64);
        }
    }

    /// A pipelined ingest of `rq` occupies `board`'s DMA engine over
    /// `begin → end`.
    #[inline]
    pub fn ingest(&mut self, rq: &Dispatched, board: usize, begin: f64, end: f64) {
        self.digest.push(&[0x1D, rq.tenant as u64, board as u64]);
        if self.sink.enabled() {
            self.board_span(rq, board, SpanKind::Ingest, begin, end);
        }
    }

    /// Board `board` was reprogrammed for `tenant`, stalling `secs`.
    pub fn reconfigured(&mut self, tenant: usize, board: usize, secs: f64) {
        self.stats.reconfigs += 1;
        self.stats.reconfig_secs += secs;
        self.stats.tenants[tenant].reconfigs += 1;
        self.digest.push(&[0x2C]);
        self.digest.push_board(board);
    }

    /// A pipelined fabric pass of `rq` on `board`: the ICAP `stall` from
    /// `now`, then preprocessing until `done`.
    #[inline]
    pub fn fabric(&mut self, rq: &Dispatched, board: usize, now: f64, stall: f64, done: f64) {
        if !self.sink.enabled() {
            return;
        }
        if stall > 0.0 {
            self.board_span(rq, board, SpanKind::Reconfig, now, now + stall);
        }
        self.board_span(rq, board, SpanKind::Preprocess, now + stall, done);
    }

    /// A pipelined hand-off of `rq` occupies `board`'s DMA engine over
    /// `begin → end`.
    #[inline]
    pub fn handoff(&mut self, rq: &Dispatched, board: usize, begin: f64, end: f64) {
        if self.sink.enabled() {
            self.board_span(rq, board, SpanKind::Handoff, begin, end);
        }
    }

    /// A serial board visit of `rq` on `board`, dispatched at `now` and
    /// done at `done`. The stages run back to back under both slots, so
    /// the whole timeline is known at dispatch: ICAP stall, DMA ingest,
    /// fabric pass, and the hand-off closing at `done`.
    pub fn serial_visit(
        &mut self,
        rq: &Dispatched,
        board: usize,
        now: f64,
        latency: &RequestLatency,
        done: f64,
    ) {
        if !self.sink.enabled() {
            return;
        }
        let stall = latency.reconfig_secs;
        if stall > 0.0 {
            self.board_span(rq, board, SpanKind::Reconfig, now, now + stall);
        }
        let ingest_start = now + stall;
        let ingest_end = ingest_start + latency.upload_secs;
        self.board_span(rq, board, SpanKind::Ingest, ingest_start, ingest_end);
        let fabric_end = ingest_end + latency.preprocess_secs;
        self.board_span(rq, board, SpanKind::Preprocess, ingest_end, fabric_end);
        let handoff_start = done - latency.download_secs;
        self.board_span(rq, board, SpanKind::Handoff, handoff_start, done);
    }

    /// A second leg of `rq`'s dispatch launched on board `second`; the
    /// losing leg frees at `loser_free_at` and wrote off `loser_bytes`.
    pub fn hedge_launched(
        &mut self,
        rq: &Dispatched,
        second: usize,
        now: f64,
        loser_free_at: f64,
        loser_bytes: u64,
    ) {
        self.digest.push(&[0x4E, rq.tenant as u64, second as u64]);
        self.stats.wasted_secs += loser_free_at - now;
        self.stats.wasted_work_bytes += loser_bytes;
        self.cancelled((rq.tenant, rq.trace_id), now, loser_free_at);
        self.wasted_work(loser_free_at);
    }

    /// The losing hedge leg of `tenant` released `board`.
    pub fn hedge_lost(&mut self, now: f64, tenant: usize, board: usize) {
        self.outcome(tenant, RequestOutcome::HedgeLoser);
        self.digest.push(&[0x4F, tenant as u64, board as u64]);
        self.stats.last_board_free = now;
    }

    /// Dispatched `rq` was abandoned on `board` past its deadline,
    /// taking `waiters` coalesced duplicates with it.
    pub fn aborted(&mut self, now: f64, board: usize, rq: &Dispatched, waiters: usize) {
        self.outcome(rq.tenant, RequestOutcome::Aborted);
        // The abort writes off everything the board already paid: the
        // ingest, plus the reconfiguration and fabric pass once the
        // hand-off was queued.
        self.stats.wasted_secs += rq.upload_secs + rq.reconfig_secs + rq.preprocess_secs;
        self.stats.wasted_work_bytes += rq.host_bytes + rq.switch_bytes;
        self.digest.push(&[0xAB, rq.tenant as u64, board as u64]);
        self.cancelled((rq.tenant, rq.trace_id), rq.dispatch_secs, now);
        self.wasted_work(now);
        self.waiters_expired(rq.tenant, waiters);
    }

    /// A pipelined ingest of `tenant` landed on `board`.
    pub fn ingest_done(&mut self, tenant: usize, board: usize) {
        self.digest.push(&[0x16, tenant as u64, board as u64]);
    }

    /// `board`'s fabric finished preprocessing a request of `tenant`.
    pub fn fabric_done(&mut self, tenant: usize, board: usize) {
        self.digest.push(&[0xFB, tenant as u64, board as u64]);
    }

    /// `board`'s outbound migration leg finished.
    pub fn migration_done(&mut self, board: usize) {
        self.digest.push(&[0x37, board as u64]);
    }

    /// Request `c` completed at `now`.
    #[inline]
    pub fn completed(&mut self, now: f64, c: &Completion) {
        let outcome = self.stats.complete(
            c.tenant,
            c.arrival_secs,
            c.latency,
            c.host_bytes,
            c.switch_bytes,
        );
        if outcome == RequestOutcome::ServedLate {
            self.wasted_work(now);
        }
        self.digest
            .push(&[0x5D, c.tenant as u64, c.latency.total().to_bits()]);
        if !c.cached {
            self.digest.push_board(c.board);
        }
        self.stats.last_board_free = now;
    }

    /// A duplicate of `tenant` parked since `waited_since` was served
    /// off its primary's completion.
    pub fn waiter_served(&mut self, tenant: usize, waited_since: f64, latency: RequestLatency) {
        self.stats.complete(tenant, waited_since, latency, 0, 0);
        self.digest
            .push(&[0xCE, tenant as u64, latency.total().to_bits()]);
    }

    /// Two board engines were busy together for `secs`.
    pub fn overlap(&mut self, secs: f64) {
        self.stats.overlap_secs += secs;
    }
}
