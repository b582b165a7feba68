//! Flight-recorder tracing for the traffic simulator.
//!
//! # The span model
//!
//! The simulator in [`crate::sim`] narrates every request's lifecycle as
//! **complete spans** — the simulator is analytic, so a stage's begin and
//! end are both known the moment it is scheduled — emitted into a
//! [`TraceSink`]:
//!
//! - **Queue span** ([`Track::Queue`], one per dispatched request):
//!   arrival → dispatch. This is the share of latency the admission
//!   scheduler controls (see [`crate::sched`]); queued requests overlap
//!   freely on this track.
//! - **Board-resource spans** ([`Track::Board`], one track per board
//!   resource): the DMA engine ([`BoardResource::Dma`] — ingest, subgraph
//!   hand-off, or the outbound leg of a migration), the fabric
//!   ([`BoardResource::Fabric`] — preprocessing), and the ICAP
//!   ([`BoardResource::Icap`] — reconfiguration stalls). Each resource
//!   admits at most one request at a time, so **spans on one board
//!   resource track never overlap** — the non-overlap invariant the
//!   property tests pin.
//! - **Counter samples** ([`CounterSample`]): aggregate admission-queue
//!   depth at every transition, per-board resident DRAM bytes at every
//!   dispatch, and — with the result cache on — cumulative cache hits at
//!   every cache-served request.
//!
//! Spans carry the tenant index and a per-run monotone request id, so a
//! request's arrival → queue → ingest → preprocess → hand-off chain can
//! be stitched back together (the [`chrome::ChromeTraceWriter`] renders
//! it as Perfetto flow arrows).
//!
//! # The NullSink digest-equivalence invariant
//!
//! Tracing is observation, not simulation: a [`TraceSink`] is write-only
//! and feeds nothing back into the event loop, so **any** sink — including
//! the default zero-cost [`NullSink`] — leaves the schedule, the report
//! and the pinned golden trace digests bit-for-bit unchanged.
//! [`TraceSink::enabled`] lets the hot path skip even the argument
//! construction for [`NullSink`]; `tests/serve_traffic.rs` proptests that
//! a [`recorder::FlightRecorder`]-instrumented run reproduces the
//! untraced report exactly.

pub mod chrome;
pub mod recorder;

pub use chrome::ChromeTraceWriter;
pub use recorder::FlightRecorder;

/// One of a board's three serially-reusable resources, each its own
/// trace track (see the [module docs](self) for the non-overlap
/// invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoardResource {
    /// The PCIe DMA engine: graph-delta ingests, subgraph hand-offs, and
    /// outbound migration legs.
    Dma,
    /// The preprocessing fabric (UPE + SCR).
    Fabric,
    /// The ICAP reconfiguration port.
    Icap,
}

impl BoardResource {
    /// Stable lowercase identifier used as the Perfetto thread name.
    pub fn name(&self) -> &'static str {
        match self {
            BoardResource::Dma => "dma",
            BoardResource::Fabric => "fabric",
            BoardResource::Icap => "icap",
        }
    }
}

/// The track a span lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The shared admission queue (spans overlap freely here).
    Queue,
    /// One board resource (spans never overlap within one track).
    Board {
        /// Board index.
        board: usize,
        /// Which of the board's resources.
        resource: BoardResource,
    },
}

/// What a span's interval meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Waiting in the admission queue (arrival → dispatch).
    Queue,
    /// An ICAP reconfiguration stall.
    Reconfig,
    /// A host→board (or switch→board) graph-delta upload on the DMA
    /// engine.
    Ingest,
    /// Fabric preprocessing.
    Preprocess,
    /// The board→GPU subgraph hand-off on the DMA engine.
    Handoff,
    /// The outbound switch leg of a migration holding the **source**
    /// board's DMA engine.
    MigrateOut,
    /// A request cancelled after dispatch — a deadline-expired stage
    /// abort or the losing leg of a hedged dispatch. The interval runs
    /// dispatch → cancellation, so its length is the work the
    /// cancellation wrote off.
    Cancelled,
}

impl SpanKind {
    /// Stable lowercase identifier used as the Perfetto event name.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Queue => "queue",
            SpanKind::Reconfig => "reconfig",
            SpanKind::Ingest => "ingest",
            SpanKind::Preprocess => "preprocess",
            SpanKind::Handoff => "handoff",
            SpanKind::MigrateOut => "migrate_out",
            SpanKind::Cancelled => "cancelled",
        }
    }
}

/// One completed lifecycle stage of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The track this span occupies.
    pub track: Track,
    /// What the interval meant.
    pub kind: SpanKind,
    /// Tenant index (declaration order).
    pub tenant: usize,
    /// Per-run monotone request id (assigned at dispatch), linking all of
    /// one request's spans across tracks.
    pub request: u64,
    /// Interval start in simulated seconds.
    pub begin_secs: f64,
    /// Interval end in simulated seconds (`>= begin_secs`).
    pub end_secs: f64,
}

impl Span {
    /// Span length in simulated seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end_secs - self.begin_secs
    }
}

/// Which counter a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CounterKind {
    /// Aggregate admission-queue depth across the scheduler's queues
    /// (one shared queue under FIFO, the per-tenant sum under weighted
    /// fair queueing).
    QueueDepth,
    /// Total graph bytes resident in one board's DRAM.
    ResidentBytes {
        /// Board index.
        board: usize,
    },
    /// Cumulative result-cache hits (full + partial), sampled after every
    /// cache-served request. Only emitted when
    /// [`crate::cache::CacheKind`] is not `Off`.
    CacheHits,
    /// Cumulative wasted-work bytes (aborted stages, hedge-loser legs and
    /// past-deadline completions), sampled at every write-off. Only
    /// emitted when some tenant carries a deadline or hedging is on.
    WastedWork,
}

/// One counter observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// Which counter.
    pub kind: CounterKind,
    /// Sample time in simulated seconds.
    pub time_secs: f64,
    /// Counter value at `time_secs`.
    pub value: f64,
}

/// Where the event loop narrates spans and counters to.
///
/// Sinks are write-only: nothing an implementation does can change the
/// simulated schedule (the digest-equivalence invariant — see the
/// [module docs](self)).
pub trait TraceSink {
    /// `false` lets the emitter skip building spans entirely
    /// ([`NullSink`] returns `false`; everything else keeps the default).
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one completed span.
    fn span(&mut self, span: Span);

    /// Receives one counter sample.
    fn counter(&mut self, sample: CounterSample);
}

/// The zero-cost default sink: reports itself disabled, so the event
/// loop's emission sites compile down to a branch on a constant — the
/// untraced run is bit-for-bit the traced code path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn span(&mut self, _span: Span) {}

    fn counter(&mut self, _sample: CounterSample) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let mut null = NullSink;
        assert!(!null.enabled());
        null.span(Span {
            track: Track::Queue,
            kind: SpanKind::Queue,
            tenant: 0,
            request: 0,
            begin_secs: 0.0,
            end_secs: 1.0,
        });
        null.counter(CounterSample {
            kind: CounterKind::QueueDepth,
            time_secs: 0.0,
            value: 1.0,
        });
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BoardResource::Dma.name(), "dma");
        assert_eq!(BoardResource::Fabric.name(), "fabric");
        assert_eq!(BoardResource::Icap.name(), "icap");
        assert_eq!(SpanKind::Queue.name(), "queue");
        assert_eq!(SpanKind::Reconfig.name(), "reconfig");
        assert_eq!(SpanKind::Ingest.name(), "ingest");
        assert_eq!(SpanKind::Preprocess.name(), "preprocess");
        assert_eq!(SpanKind::Handoff.name(), "handoff");
        assert_eq!(SpanKind::MigrateOut.name(), "migrate_out");
        assert_eq!(SpanKind::Cancelled.name(), "cancelled");
    }

    #[test]
    fn span_duration_is_end_minus_begin() {
        let span = Span {
            track: Track::Board {
                board: 2,
                resource: BoardResource::Fabric,
            },
            kind: SpanKind::Preprocess,
            tenant: 1,
            request: 7,
            begin_secs: 1.5,
            end_secs: 4.0,
        };
        assert!((span.duration_secs() - 2.5).abs() < 1e-12);
    }
}
