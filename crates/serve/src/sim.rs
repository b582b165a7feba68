//! The discrete-event traffic simulator.
//!
//! # Event model
//!
//! A calendar-queue event core ([`crate::engine::EventQueue`]) advances
//! simulated time (`now: f64` seconds; ties broken by a monotone
//! push-order sequence number, so replays are bit-stable — the same
//! contract the original binary heap kept, proptested against it in
//! `engine/queue.rs`). In-flight request state lives in a
//! [`crate::engine::Slab`] arena and events carry 4-byte handles;
//! arrivals are pre-generated in per-tenant batches
//! ([`crate::engine::ArrivalSource`]) — the inner loop performs no heap
//! allocation in steady state. Seven event kinds drive the simulation:
//!
//! - **`Arrival`** — a tenant's request arrives. It is offered to the
//!   configured [`crate::sched::SchedPolicy`] (refusals — shared queue
//!   full, or a per-tenant quota exhausted — are dropped and counted per
//!   tenant, never silently lost) and schedules the tenant's next arrival
//!   while offered load remains.
//! - **`IngestDone`** (pipelined mode only) — a request's graph-delta
//!   upload finished on a board's DMA engine. The request enters the
//!   fabric if it is idle, otherwise parks in the board's staging buffer.
//! - **`FabricDone`** (pipelined mode only) — a board's fabric finished
//!   preprocessing a request. The subgraph hand-off queues for the DMA
//!   engine, and any staged request acquires the fabric immediately.
//! - **`MigrationDone`** — the outbound switch leg of a cross-board
//!   migration finished: the **source** board's DMA engine stops reading
//!   the graph out of its DRAM and frees (in pipelined mode it
//!   immediately drains any waiting hand-off). The destination side needs
//!   no event of its own — the migration is just an ingest whose transfer
//!   time prices the switch leg plus any host top-up, so the existing
//!   `IngestDone`/`ServiceDone` flow completes it.
//! - **`ServiceDone`** — a request completed (in serial mode: the whole
//!   reconfig + upload + preprocess + hand-off interval; in pipelined
//!   mode: the hand-off transfer). Latency is recorded and the board slot
//!   frees.
//! - **`DeadlineExpired`** (deadline-carrying tenants, pipelined mode) —
//!   a dispatched request's deadline passed while a pipeline stage it
//!   needs had not started: its staging-buffer or hand-off slot is
//!   abandoned and the board capacity frees immediately.
//! - **`HedgeWon`** ([`HedgeKind::Latency`] only) — the faster leg of a
//!   hedged dispatch completed; the losing board's engines free without
//!   counting a completion.
//!
//! # The request deadline lifecycle
//!
//! [`crate::tenant::TenantSpec::deadline_secs`] (per tenant, with
//! [`ServeConfig::default_deadline_secs`] as the pool-wide fallback)
//! models client abandonment. With any deadline configured the lifecycle
//! gains three cut points, each strictly *after* the deadline instant
//! (completing or dispatching exactly at the deadline still counts):
//!
//! 1. **In-queue expiry** — at every event the scheduler drops queued
//!    requests whose deadline has passed
//!    ([`crate::sched::SchedPolicy::expire`]); they count as
//!    [`RequestOutcome::ExpiredInQueue`] and cost no board work.
//! 2. **Stage abort** (pipelined mode) — a dispatched request still
//!    waiting in a staging buffer or hand-off queue past its deadline is
//!    abandoned ([`RequestOutcome::Aborted`]), releasing the slot; a
//!    *started* stage — an in-flight ingest, a running fabric pass, a
//!    paid reconfiguration — always runs to completion.
//! 3. **Served late** — a completion strictly past its deadline counts
//!    as [`RequestOutcome::ServedLate`]: throughput, but not goodput,
//!    and its whole board visit lands in the wasted-work ledger.
//!
//! **Hedged dispatch** ([`ServeConfig::hedge`], serial mode) reuses the
//! shared [`crate::sched::LatencyPredictor`]: once a dispatched request's
//! queue wait exceeds `factor ×` its tenant's predicted p99, the request
//! is priced on a second free board as well — host ingest onto that
//! board's *current* bitstream, no reconfiguration — and the faster leg
//! wins (ties keep the placement pick). The loser's board stays occupied
//! until the winner completes (a started reconfiguration still drains)
//! and then frees via `HedgeWon`; the cancelled leg counts as
//! [`RequestOutcome::HedgeLoser`] and its work is wasted. Only the
//! winner's completion fills the result cache.
//!
//! [`RequestOutcome::ExpiredInQueue`]: crate::metrics::RequestOutcome::ExpiredInQueue
//! [`RequestOutcome::Aborted`]: crate::metrics::RequestOutcome::Aborted
//! [`RequestOutcome::ServedLate`]: crate::metrics::RequestOutcome::ServedLate
//! [`RequestOutcome::HedgeLoser`]: crate::metrics::RequestOutcome::HedgeLoser
//!
//! With no deadline anywhere and hedging off, **none** of these code
//! paths run: the schedule, every golden trace digest and every CI
//! baseline row reproduce bit-for-bit (the deadline Off-equivalence
//! invariant, proptested in `tests/serve_traffic.rs`).
//!
//! # Cross-board migration
//!
//! With [`ServeConfig::migrate`] enabled, a migration is an **ingest
//! whose source is a peer board's DRAM**: when a request lands on a board
//! where its tenant's graph is not resident and some peer still holds a
//! copy (with an idle DMA engine), the warm prefix crosses the PCIe
//! switch at peer-to-peer bandwidth
//! ([`agnn_hw::shell::PcieSwitchModel`]) and only growth the peer never
//! saw re-crosses the host link. The transfer is priced on **both**
//! boards' DMA resources — the destination's for the whole ingest, the
//! source's for the switch leg (released by `MigrationDone`) — and
//! pipelines behind each fabric like any other ingest.
//! [`MigratePolicy::PeerRehydrate`] enables exactly that rehydration
//! path; [`MigratePolicy::SplitHot`] additionally lets the front request
//! claim an idle board (a `Placement::Migrating` outcome) once every
//! affine board is busy and the queue outgrows a threshold, so a hot
//! tenant splits across boards instead of serializing on one.
//! [`MigratePolicy::Off`] never consults peers and reproduces the
//! pre-migration schedules bit-for-bit.
//!
//! # The two board slots
//!
//! Every [`BoardPool`] board exposes two in-flight slots mirroring the
//! VPK180 shell's independent engines: the **DMA slot** (PCIe — at most
//! one transfer in flight, an ingest or a subgraph hand-off) and the
//! **fabric slot** (UPE + SCR — at most one request preprocessing;
//! reconfiguration stalls are charged here, at fabric acquisition).
//!
//! With [`ServeConfig::overlap`] **off** (the default), a dispatched
//! request holds both slots for its whole staged timeline — stages run
//! back to back, exactly the monolithic `AutoGnn::serve` lifecycle.
//!
//! With `overlap` **on**, the slots are scheduled independently: a board
//! admits the next request's ingest as soon as its DMA engine frees, so a
//! graph delta lands in the second staging buffer
//! ([`agnn_hw::shell::DELTA_BUFFERS`]) while the previous batch occupies
//! the fabric, and the finished subgraph streams out under the next
//! request's preprocessing. The admission queue and the dispatch/placement
//! policies are untouched — only the meaning of "board free" narrows from
//! "fully idle" to "can accept an ingest".
//!
//! # The scheduler seam
//!
//! The admission/dispatch core lives behind [`crate::sched::SchedPolicy`]
//! ([`ServeConfig::scheduler`] picks the implementation). The event loop
//! delegates exactly three decisions to it:
//!
//! 1. **Admission** — an `Arrival` calls `admit`; a refusal is the drop
//!    path (counted against the arriving tenant).
//! 2. **Offer order** — each dispatch pass calls `scan` and hands the
//!    ordered view to placement (`select_dispatch`) and the
//!    [`DispatchPolicy`]; the chosen *scan position* is then removed with
//!    `take`. Under [`crate::sched::SchedKind::Fifo`] the scan order is
//!    arrival order, so placement/dispatch see exactly the pre-refactor
//!    queue; under weighted fair queueing the order is the deficit-round-
//!    robin fair schedule — placement reads the scheduler's preference as
//!    a hint and the dispatch policy may still batch around it (the
//!    scheduler charges the picked tenant's deficit).
//! 3. **Reconfiguration gating** — before a board pays an ICAP stall
//!    (serial dispatch, or fabric acquisition in pipelined mode), the
//!    loop asks `allow_reconfig`; [`crate::sched::SloAware`] closes that
//!    gate while the tenant's predicted p99 clears its SLO budget.
//!    Completions feed back through `on_complete`.
//!
//! **The Fifo-equivalence invariant:** with the default
//! [`crate::sched::SchedKind::Fifo`] every one of those calls maps
//! one-to-one onto the old baked-in `VecDeque` operation (admit =
//! bounded `push_back`, scan = the queue itself, take = `remove`,
//! `allow_reconfig` = always) — so every golden trace digest from PR 1–4
//! reproduces bit-for-bit, and the CI perf baselines survive the
//! refactor unchanged. `tests/serve_traffic.rs` pins this.
//!
//! # Why a 1-board serial pool is the PR 1 simulator
//!
//! In serial mode the two slots are held and released together, so a
//! single-board pool performs exactly the PR 1 sequence of
//! dispatch/complete events with identical prices — the same schedule,
//! latencies and trace digest bit-for-bit (pinned in
//! `tests/serve_traffic.rs`). Perf numbers therefore stay comparable
//! across the whole trajectory, which is what the CI `bench-smoke` gate
//! relies on.
//!
//! # Handlers and the narrator
//!
//! A run is a private `Run` state struct with one handler method per
//! event kind plus `dispatch`, whose serial and pipelined legs are
//! methods of their own. The handlers decide the schedule; what they
//! decided is reported to one `Narrator` (`sim/narrator.rs`), with one
//! method per semantic fact — an arrival, a drop, an expiry, a cache hit,
//! a dispatch, a stage starting, a completion, an abort, a hedge. The
//! narrator owns the order-sensitive trace digest, every report tally,
//! the queue-depth timeline and the trace sink, and nothing the schedule
//! reads, so no handler can read back what it reported.
//!
//! [`TrafficSim::run_traced`] narrates into a [`crate::trace::TraceSink`]
//! as complete spans — the simulator is analytic, so a stage's begin and
//! end are both known when it is scheduled. The span model (one track
//! per board resource, a queue track, counters for queue depth and
//! residency) lives in [`crate::trace`]. Sinks are write-only, so
//! tracing cannot perturb the schedule: a run with any sink produces
//! bit-for-bit the [`crate::trace::NullSink`] report and the pinned
//! golden digests (the digest-equivalence invariant, proptested in
//! `tests/serve_traffic.rs`). [`TrafficSim::run`] itself measures the
//! event loop — wall-clock seconds and events processed land in
//! [`TrafficReport::sim`] for the CI sim-speed gate.
//!
//! Every per-request price — upload delta, preprocessing, hand-off,
//! reconfiguration stall, inference tail — comes from the same models
//! `AutoGnn::serve` uses, via the analytic staged path
//! ([`BoardPool::service_secs`]), so the simulator replays hundreds of
//! thousands of requests in milliseconds.

use std::collections::VecDeque;
use std::time::Instant;

use agnn_cost::{CostModel, ReconfigPolicy, Workload};
use agnn_gnn::timing::GpuInferenceModel;
use agnn_hw::shell::{PcieModel, PcieSwitchModel};
use agnn_hw::HwConfig;
use fxhash::FxHashMap;

use crate::cache::{CacheKind, ResultCache, CACHE_LOOKUP_SECS};
use crate::engine::{ArrivalSource, EventQueue, Handle, Slab};
use crate::metrics::{RequestLatency, SimPerf, TrafficReport};
use crate::pool::{BoardPool, MigratePolicy, PlacementPolicy};
use crate::sched::{LatencyPredictor, Request, SchedKind, SchedPolicy, Scheduler};
use crate::tenant::TenantSpec;
use crate::trace::{NullSink, TraceSink};

mod narrator;

use narrator::Narrator;

/// How the scheduler picks the next request and pays reconfigurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchPolicy {
    /// Strict arrival order; the runtime's per-request threshold policy
    /// decides reconfigurations — interleaved tenants with different
    /// optimal bitstreams thrash the ICAP.
    Fifo,
    /// Serves queued requests whose optimal bitstream matches the one
    /// currently programmed first (in arrival order), switching only when
    /// none match — amortizing each `ReconfigEvent` over a whole batch. A
    /// starvation guard dispatches the front request once it has waited
    /// `max_queue_delay_secs`.
    ReconfigAware {
        /// Longest a request may be overtaken before it is served anyway.
        max_queue_delay_secs: f64,
    },
}

impl DispatchPolicy {
    /// The reconfig-aware policy with a 30-second starvation guard.
    pub fn reconfig_aware() -> Self {
        DispatchPolicy::ReconfigAware {
            max_queue_delay_secs: 30.0,
        }
    }
}

/// When (if ever) a long-waiting request is hedged onto a second board.
/// Gated exactly like [`CacheKind`] / [`MigratePolicy`]:
/// [`HedgeKind::Off`] is the default and reproduces the unhedged
/// schedules bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum HedgeKind {
    /// Never hedge. The golden-digest default.
    #[default]
    Off,
    /// Once a dispatched request's queue wait exceeds `factor ×` its
    /// tenant's predicted p99 latency (the shared
    /// [`LatencyPredictor`] EWMA; a cold tenant never triggers), price
    /// the request on a second free board too and keep the faster leg.
    /// Requires a ≥2-board pool and serial mode — [`ServeConfigBuilder`]
    /// rejects anything else.
    Latency {
        /// Hedge-trigger multiple of the predicted p99 (must be positive
        /// and finite).
        factor: f64,
    },
}

impl HedgeKind {
    /// The latency-hedging preset: a second leg once the wait exceeds
    /// 1× the predicted p99.
    pub fn latency() -> Self {
        HedgeKind::Latency { factor: 1.0 }
    }

    /// `true` unless hedging is [`HedgeKind::Off`].
    pub fn enabled(&self) -> bool {
        *self != HedgeKind::Off
    }

    /// Stable lowercase identifier (CLI flags, report rows).
    pub fn name(&self) -> &'static str {
        match self {
            HedgeKind::Off => "off",
            HedgeKind::Latency { .. } => "latency",
        }
    }
}

/// Why a [`ServeConfigBuilder::build`] call rejected its configuration.
/// Every variant names a size or knob combination the simulator cannot
/// run, so the builder surfaces it at construction instead of a panic
/// inside [`TrafficSim::new`] or mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The pool needs at least one board.
    ZeroBoards,
    /// The admission queue needs room for at least one request.
    ZeroQueueCapacity,
    /// The per-board compute speedup must be a positive, finite
    /// multiple.
    NonPositiveSpeedup {
        /// The rejected value.
        speedup: f64,
    },
    /// Hedged dispatch re-offers a request to a *second* board; a pool
    /// of fewer than two boards has nowhere to hedge to.
    HedgeNeedsPool {
        /// The configured board count.
        boards: usize,
    },
    /// Hedged dispatch prices whole serial board visits and cancels the
    /// slower one; the pipelined lifecycle splits a visit across
    /// independently scheduled stage events, where a leg cannot be
    /// atomically cancelled. Hedging therefore requires `overlap: false`.
    HedgeNeedsSerial,
    /// A deadline must be a positive, finite number of seconds.
    NonPositiveDeadline {
        /// The rejected value.
        secs: f64,
    },
    /// A hedge trigger factor must be a positive, finite multiple.
    NonPositiveHedgeFactor {
        /// The rejected value.
        factor: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBoards => write!(f, "the board pool needs at least one board"),
            ConfigError::ZeroQueueCapacity => {
                write!(f, "the admission queue capacity must be positive")
            }
            ConfigError::NonPositiveSpeedup { speedup } => {
                write!(
                    f,
                    "compute speedup must be positive and finite, got {speedup}"
                )
            }
            ConfigError::HedgeNeedsPool { boards } => write!(
                f,
                "hedged dispatch needs at least 2 boards to re-offer to (got {boards})"
            ),
            ConfigError::HedgeNeedsSerial => write!(
                f,
                "hedged dispatch requires serial mode (overlap: false): a pipelined \
                 leg cannot be cancelled atomically"
            ),
            ConfigError::NonPositiveDeadline { secs } => {
                write!(f, "deadline must be positive and finite, got {secs}")
            }
            ConfigError::NonPositiveHedgeFactor { factor } => {
                write!(f, "hedge factor must be positive and finite, got {factor}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Deployment seed: drives every arrival stream.
    pub seed: u64,
    /// Admission-queue capacity; arrivals beyond it are dropped.
    pub queue_capacity: usize,
    /// Dispatch policy (which queued request a board serves next).
    pub policy: DispatchPolicy,
    /// Admission/dispatch scheduler: the bounded FIFO queue
    /// ([`SchedKind::Fifo`], bit-for-bit the pre-refactor schedules),
    /// weighted fair queueing with per-tenant quotas
    /// ([`SchedKind::WeightedFair`]), or SLO-driven reconfiguration
    /// gating ([`SchedKind::SloAware`]).
    pub scheduler: SchedKind,
    /// Number of simulated boards in the pool.
    pub boards: usize,
    /// Placement policy (which board an admitted request runs on).
    pub placement: PlacementPolicy,
    /// Cross-board migration policy: whether a cold tenant's graph may be
    /// pulled from a peer board's DRAM over the PCIe switch (and whether
    /// a hot tenant may proactively split across boards).
    /// [`MigratePolicy::Off`] reproduces the pre-migration schedules
    /// bit-for-bit.
    pub migrate: MigratePolicy,
    /// Pipeline boards' DMA against fabric compute: ingest the next
    /// request (double-buffered graph deltas) and stream finished
    /// subgraphs out while the fabric preprocesses. `false` replays the
    /// serial staged lifecycle bit-for-bit against the PR 1/PR 2 digests.
    pub overlap: bool,
    /// Per-board compute speed multiplier: preprocessing runs this many
    /// times faster, while ICAP reprogramming and PCIe transfers keep
    /// their physical rates. Models "one board N× as fast" comparisons
    /// against an N-board pool.
    pub compute_speedup: f64,
    /// Offered load: total arrivals generated before the queue drains.
    pub total_requests: u64,
    /// Drift quantization step in simulated seconds (bitstream choices are
    /// re-evaluated once per step per tenant).
    pub drift_step_secs: f64,
    /// Minimum predicted relative gain before a reconfiguration is paid.
    pub min_gain: f64,
    /// Queue-depth timeline decimation stride.
    pub depth_stride: u64,
    /// Keep a per-request completion log in the report (off by default —
    /// costs memory proportional to the trace).
    pub log_requests: bool,
    /// Result-cache policy ([`crate::cache`]): cached subgraph results
    /// are served at lookup cost while fresh (delta-driven invalidation)
    /// and duplicate in-flight requests coalesce. [`CacheKind::Off`]
    /// (the default) reproduces the uncached schedules bit-for-bit.
    pub cache: CacheKind,
    /// Pool-wide fallback client-abandonment deadline, in seconds from
    /// arrival, for tenants whose
    /// [`crate::tenant::TenantSpec::deadline_secs`] is `None`. With this
    /// `None` too (the default) and no per-tenant deadline, every
    /// deadline code path is disabled and the pre-deadline schedules
    /// replay bit-for-bit.
    pub default_deadline_secs: Option<f64>,
    /// Hedged-dispatch policy (see the [module docs](self)).
    /// [`HedgeKind::Off`] (the default) reproduces the unhedged
    /// schedules bit-for-bit.
    pub hedge: HedgeKind,
}

impl ServeConfig {
    /// Every knob at its deployment default — the single source of truth
    /// for field defaults. `Default` and the named presets all delegate
    /// here, so a new knob cannot silently diverge between constructors.
    ///
    /// ```
    /// use agnn_serve::{DispatchPolicy, ServeConfig};
    ///
    /// let base = ServeConfig::base();
    /// assert_eq!(base, ServeConfig::default());
    /// assert_eq!(base.policy, DispatchPolicy::Fifo);
    /// assert!(!base.overlap);
    ///
    /// // Presets are deltas on `base()`, so struct update syntax composes
    /// // with them without losing the shared defaults.
    /// let custom = ServeConfig { boards: 4, ..ServeConfig::base() };
    /// assert_eq!(custom.queue_capacity, base.queue_capacity);
    /// ```
    pub fn base() -> Self {
        ServeConfig {
            seed: 0,
            queue_capacity: 256,
            policy: DispatchPolicy::Fifo,
            scheduler: SchedKind::Fifo,
            boards: 1,
            placement: PlacementPolicy::LeastLoaded,
            migrate: MigratePolicy::Off,
            overlap: false,
            compute_speedup: 1.0,
            total_requests: 10_000,
            drift_step_secs: 3_600.0,
            min_gain: 0.10,
            depth_stride: 64,
            log_requests: false,
            cache: CacheKind::Off,
            default_deadline_secs: None,
            hedge: HedgeKind::Off,
        }
    }

    /// A [`ServeConfigBuilder`] seeded with [`base`](Self::base) — the
    /// preferred way to assemble a configuration: typed setters plus a
    /// validating [`build`](ServeConfigBuilder::build) that rejects
    /// incompatible knob combinations with a [`ConfigError`] instead of
    /// a mid-run panic.
    ///
    /// ```
    /// use agnn_serve::{HedgeKind, SchedKind, ServeConfig};
    ///
    /// let cfg = ServeConfig::builder()
    ///     .boards(2)
    ///     .scheduler(SchedKind::weighted_fair())
    ///     .default_deadline_secs(2.0)
    ///     .hedge(HedgeKind::latency())
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.boards, 2);
    /// assert_eq!(cfg.default_deadline_secs, Some(2.0));
    ///
    /// // Incompatible combos come back as typed errors: hedging needs
    /// // a second board to re-offer to.
    /// let err = ServeConfig::builder().hedge(HedgeKind::latency()).build();
    /// assert!(err.is_err());
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: Self::base() }
    }

    /// A [`ServeConfigBuilder`] seeded with this configuration — the
    /// migration path for call sites that used struct-update syntax on a
    /// preset (`ServeConfig { seed: 7, ..ServeConfig::pipelined() }`
    /// becomes `ServeConfig::pipelined().to_builder().seed(7).build()`).
    ///
    /// ```
    /// use agnn_serve::ServeConfig;
    ///
    /// let cfg = ServeConfig::pipelined().to_builder().seed(7).build().unwrap();
    /// assert_eq!(cfg.seed, 7);
    /// assert_eq!(ServeConfig { seed: 0, ..cfg }, ServeConfig::pipelined());
    /// ```
    pub fn to_builder(self) -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: self }
    }

    /// Checks the documented incompatible knob combinations (the same
    /// rules [`ServeConfigBuilder::build`] enforces);
    /// [`TrafficSim::new`] re-checks so a hand-assembled struct literal
    /// cannot smuggle an invalid combo past the builder.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.boards == 0 {
            return Err(ConfigError::ZeroBoards);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if !(self.compute_speedup > 0.0 && self.compute_speedup.is_finite()) {
            return Err(ConfigError::NonPositiveSpeedup {
                speedup: self.compute_speedup,
            });
        }
        if let Some(secs) = self.default_deadline_secs {
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(ConfigError::NonPositiveDeadline { secs });
            }
        }
        if let HedgeKind::Latency { factor } = self.hedge {
            if !(factor > 0.0 && factor.is_finite()) {
                return Err(ConfigError::NonPositiveHedgeFactor { factor });
            }
            if self.overlap {
                return Err(ConfigError::HedgeNeedsSerial);
            }
            if self.boards < 2 {
                return Err(ConfigError::HedgeNeedsPool {
                    boards: self.boards,
                });
            }
        }
        Ok(())
    }

    /// The reconfig-aware deployment preset (30-second starvation guard).
    ///
    /// ```
    /// use agnn_serve::{DispatchPolicy, ServeConfig};
    ///
    /// let cfg = ServeConfig::reconfig_aware();
    /// assert_eq!(cfg.policy, DispatchPolicy::reconfig_aware());
    /// // Dispatch policy is the *only* departure from `base()`.
    /// assert_eq!(
    ///     ServeConfig { policy: DispatchPolicy::Fifo, ..cfg },
    ///     ServeConfig::base(),
    /// );
    /// ```
    pub fn reconfig_aware() -> Self {
        Self::builder()
            .policy(DispatchPolicy::reconfig_aware())
            .build()
            .expect("preset is valid")
    }

    /// The pipelined preset: reconfig-aware dispatch with DMA/fabric
    /// overlap enabled.
    ///
    /// ```
    /// use agnn_serve::ServeConfig;
    ///
    /// let cfg = ServeConfig::pipelined();
    /// assert!(cfg.overlap);
    /// assert_eq!(ServeConfig { overlap: false, ..cfg }, ServeConfig::reconfig_aware());
    /// ```
    pub fn pipelined() -> Self {
        Self::reconfig_aware()
            .to_builder()
            .overlap(true)
            .build()
            .expect("preset is valid")
    }

    /// The weighted-fair preset: deficit-round-robin per-tenant queues
    /// with the default quota ([`SchedKind::weighted_fair`]) over the
    /// pipelined lifecycle, dispatched in **strict scan order**
    /// ([`DispatchPolicy::Fifo`]). Strict order is deliberate: the fair
    /// schedule *is* the scan order, and reconfig-aware batching would
    /// override it — letting a board serve the aggressor's matching
    /// bitstream for up to its starvation guard while victims wait, which
    /// is exactly the isolation WFQ exists to provide.
    ///
    /// ```
    /// use agnn_serve::{DispatchPolicy, SchedKind, ServeConfig};
    ///
    /// let cfg = ServeConfig::weighted_fair();
    /// assert_eq!(cfg.scheduler, SchedKind::weighted_fair());
    /// assert_eq!(cfg.policy, DispatchPolicy::Fifo); // strict scan order
    /// assert!(cfg.overlap); // rides on the pipelined lifecycle
    /// ```
    pub fn weighted_fair() -> Self {
        Self::pipelined()
            .to_builder()
            .scheduler(SchedKind::weighted_fair())
            .policy(DispatchPolicy::Fifo)
            .build()
            .expect("preset is valid")
    }

    /// The SLO-aware preset: FIFO-order queueing whose reconfigurations
    /// are gated on predicted p99 vs the tenants' SLO budgets
    /// ([`SchedKind::slo_aware`]), on top of the pipelined deployment.
    ///
    /// ```
    /// use agnn_serve::{SchedKind, ServeConfig};
    ///
    /// let cfg = ServeConfig::slo_aware();
    /// assert_eq!(cfg.scheduler, SchedKind::slo_aware());
    /// assert_eq!(ServeConfig { scheduler: SchedKind::Fifo, ..cfg }, ServeConfig::pipelined());
    /// ```
    pub fn slo_aware() -> Self {
        Self::pipelined()
            .to_builder()
            .scheduler(SchedKind::slo_aware())
            .build()
            .expect("preset is valid")
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::base()
    }
}

/// Fluent, validating constructor for [`ServeConfig`] — obtained from
/// [`ServeConfig::builder`] (seeded with the deployment defaults) or
/// [`ServeConfig::to_builder`] (seeded with an existing configuration,
/// typically a preset). Every setter is typed after its field;
/// [`build`](Self::build) runs [`ServeConfig::validate`] and returns a
/// [`ConfigError`] for the documented incompatible combinations, so a
/// bad configuration fails at construction rather than mid-run.
///
/// Struct-literal construction (`ServeConfig { .. }`) remains available
/// for backward compatibility — the fields are public and every golden
/// digest was pinned through it — but new call sites should prefer the
/// builder (see `docs/ARCHITECTURE.md`, "the ServeConfig builder").
#[derive(Debug, Clone, Copy)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

macro_rules! builder_setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, $name: $ty) -> Self {
            self.cfg.$name = $name;
            self
        }
    };
}

impl ServeConfigBuilder {
    builder_setter!(
        /// Deployment seed ([`ServeConfig::seed`]).
        seed: u64
    );
    builder_setter!(
        /// Admission-queue capacity ([`ServeConfig::queue_capacity`]).
        queue_capacity: usize
    );
    builder_setter!(
        /// Dispatch policy ([`ServeConfig::policy`]).
        policy: DispatchPolicy
    );
    builder_setter!(
        /// Admission/dispatch scheduler ([`ServeConfig::scheduler`]).
        scheduler: SchedKind
    );
    builder_setter!(
        /// Board-pool size ([`ServeConfig::boards`]).
        boards: usize
    );
    builder_setter!(
        /// Placement policy ([`ServeConfig::placement`]).
        placement: PlacementPolicy
    );
    builder_setter!(
        /// Cross-board migration policy ([`ServeConfig::migrate`]).
        migrate: MigratePolicy
    );
    builder_setter!(
        /// DMA/fabric pipelining ([`ServeConfig::overlap`]).
        overlap: bool
    );
    builder_setter!(
        /// Per-board compute multiplier ([`ServeConfig::compute_speedup`]).
        compute_speedup: f64
    );
    builder_setter!(
        /// Offered load ([`ServeConfig::total_requests`]).
        total_requests: u64
    );
    builder_setter!(
        /// Drift quantization step ([`ServeConfig::drift_step_secs`]).
        drift_step_secs: f64
    );
    builder_setter!(
        /// Reconfiguration gain threshold ([`ServeConfig::min_gain`]).
        min_gain: f64
    );
    builder_setter!(
        /// Queue-depth decimation stride ([`ServeConfig::depth_stride`]).
        depth_stride: u64
    );
    builder_setter!(
        /// Per-request completion log ([`ServeConfig::log_requests`]).
        log_requests: bool
    );
    builder_setter!(
        /// Result-cache policy ([`ServeConfig::cache`]).
        cache: CacheKind
    );
    builder_setter!(
        /// Hedged-dispatch policy ([`ServeConfig::hedge`]).
        hedge: HedgeKind
    );

    /// Pool-wide fallback deadline in seconds
    /// ([`ServeConfig::default_deadline_secs`]). The builder default is
    /// no deadline; call this to opt in.
    pub fn default_deadline_secs(mut self, secs: f64) -> Self {
        self.cfg.default_deadline_secs = Some(secs);
        self
    }

    /// [`Self::default_deadline_secs`] taking the `Option` directly —
    /// `None` clears the fallback. For parameterized sweeps that toggle
    /// deadlines per run.
    pub fn maybe_deadline(mut self, secs: Option<f64>) -> Self {
        self.cfg.default_deadline_secs = secs;
        self
    }

    /// Validates and returns the configuration. Errors on the documented
    /// incompatible combinations ([`ConfigError`]): an empty pool or
    /// admission queue, a non-positive compute speedup, hedging on fewer
    /// than two boards or under pipelining, and non-positive deadlines
    /// or hedge factors.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A dispatched request, priced at dispatch. The serial leg prices its
/// board visit from it; in pipelined mode it flows through the board's
/// staged pipeline and the timestamps accumulate as stages complete.
#[derive(Debug, Clone, Copy)]
struct Dispatched {
    tenant: usize,
    /// Per-run monotone request id linking this request's trace spans.
    trace_id: u64,
    arrival_secs: f64,
    dispatch_secs: f64,
    workload: Workload,
    best: HwConfig,
    /// Hand-off bytes and inference seconds, memoized at dispatch (pure
    /// in the dispatch-time workload) so the hand-off stage prices the
    /// transfer without re-running the neighborhood-expansion model.
    subgraph_bytes: u64,
    inference_secs: f64,
    upload_secs: f64,
    ingest_done_secs: f64,
    fabric_start_secs: f64,
    fabric_done_secs: f64,
    reconfig_secs: f64,
    preprocess_secs: f64,
    host_bytes: u64,
    switch_bytes: u64,
    /// Cache bookkeeping, all inert when the run's cache is `Off`:
    /// drift bucket / graph size / delta-counter snapshot at dispatch
    /// (the entry this completion will fill), the preprocessing cost the
    /// entry records, and whether this board visit is a partial hit
    /// (fabric pass skipped against a fresh entry).
    bucket: u64,
    graph_bytes: u64,
    cum_delta: u64,
    entry_preprocess_secs: f64,
    partial: bool,
}

impl Dispatched {
    /// The completion record of this request served on `board`.
    fn completion(&self, board: usize, latency: RequestLatency) -> Completion {
        Completion {
            tenant: self.tenant,
            board,
            arrival_secs: self.arrival_secs,
            latency,
            host_bytes: self.host_bytes,
            switch_bytes: self.switch_bytes,
            bucket: self.bucket,
            graph_bytes: self.graph_bytes,
            cum_delta: self.cum_delta,
            entry_preprocess_secs: self.entry_preprocess_secs,
            cached: false,
        }
    }
}

/// Queued event payloads. Kept pointer-small on purpose: the completion
/// record (a [`RequestLatency`] plus byte counters, ~100 bytes) lives in
/// a [`Slab`] and `ServiceDone` carries its 4-byte handle, so a queue
/// entry is a couple of words and bucket sorts move almost nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// A request of `tenant` arrives.
    Arrival { tenant: usize },
    /// Board `board` finished a graph-delta ingest (pipelined mode).
    IngestDone { board: usize },
    /// Board `board`'s fabric finished preprocessing (pipelined mode).
    FabricDone { board: usize },
    /// Board `board`'s **outbound** switch leg of a migration finished:
    /// its DMA engine stops reading the graph out of DRAM and frees.
    MigrationDone { board: usize },
    /// A request completed; the [`Completion`] record is in the slab.
    ServiceDone { completion: Handle },
    /// A dispatched request's deadline passed (pipelined mode): abort it
    /// if a stage it needs has not started — it still waits in board
    /// `board`'s staging buffer or hand-off queue. `tag` is the
    /// request's trace id: slab slots recycle (the arena is not
    /// generational), so an event whose handle is vacant or holds a
    /// different request by pop time must not fire.
    DeadlineExpired {
        board: usize,
        handle: Handle,
        tag: u64,
    },
    /// The faster leg of `tenant`'s hedged dispatch completed (and any
    /// reconfiguration the losing leg started has drained): board
    /// `board`'s engines — held by the cancelled leg — free without
    /// counting a completion.
    HedgeWon { board: usize, tenant: usize },
}

/// The deferred payload of a `ServiceDone` event, slab-resident between
/// the completion's scheduling and its pop.
#[derive(Debug, Clone, Copy, Default)]
struct Completion {
    tenant: usize,
    board: usize,
    arrival_secs: f64,
    latency: RequestLatency,
    host_bytes: u64,
    switch_bytes: u64,
    /// Cache bookkeeping (inert when the run's cache is `Off`): the
    /// drift bucket / graph size / delta-counter snapshot taken at
    /// dispatch — the entry this completion fills — plus the
    /// preprocessing cost the entry records.
    bucket: u64,
    graph_bytes: u64,
    cum_delta: u64,
    entry_preprocess_secs: f64,
    /// Served from the cache at admission (full hit or coalesced): the
    /// request held no board slot, so completion frees nothing and fills
    /// nothing.
    cached: bool,
}

/// The multi-tenant traffic simulator over a board pool.
#[derive(Debug)]
pub struct TrafficSim {
    tenants: Vec<TenantSpec>,
    config: ServeConfig,
    pool: BoardPool,
}

/// Per-board pipeline state (pipelined mode only): [`Slab`] handles of
/// the [`Dispatched`] requests currently ingesting / staged /
/// preprocessing and the hand-offs waiting for the DMA engine — the
/// payloads stay put in the arena while 4-byte handles move through the
/// queues. Slot occupancy and busy horizons live on the [`BoardPool`]
/// boards themselves — the pool's `stage`/`unstage` and
/// `add_pending_handoffs` counters mirror these queues' lengths.
struct Pipeline {
    ingesting: Vec<Option<Handle>>,
    /// FIFO of ingested requests waiting for the fabric, at most
    /// [`crate::pool::STAGING_DEPTH`] deep (the pool enforces the bound
    /// at admission).
    staged: Vec<VecDeque<Handle>>,
    in_fabric: Vec<Option<Handle>>,
    handoffs: Vec<VecDeque<Handle>>,
}

impl Pipeline {
    fn new(boards: usize) -> Self {
        Pipeline {
            ingesting: vec![None; boards],
            staged: vec![VecDeque::new(); boards],
            in_fabric: vec![None; boards],
            handoffs: vec![VecDeque::new(); boards],
        }
    }
}

impl TrafficSim {
    /// A simulator over `tenants` with `config`. The board pool is built
    /// here (one forked `AutoGnn` runtime per board) and reset at the
    /// start of every [`run`](TrafficSim::run), so one simulator can
    /// replay many deterministic simulations.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty, any tenant deadline is not a
    /// positive finite number, or the config fails
    /// [`ServeConfig::validate`] (assembling via [`ServeConfig::builder`]
    /// surfaces the same rules as a typed [`ConfigError`] instead).
    pub fn new(tenants: Vec<TenantSpec>, config: ServeConfig) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        if let Err(err) = config.validate() {
            panic!("invalid ServeConfig: {err}");
        }
        for tenant in &tenants {
            if let Some(secs) = tenant.deadline_secs {
                assert!(
                    secs > 0.0 && secs.is_finite(),
                    "tenant deadline must be positive and finite, got {secs}"
                );
            }
        }
        let pool = BoardPool::new(
            config.boards,
            tenants[0].params,
            ReconfigPolicy {
                min_gain: config.min_gain,
            },
            tenants.len(),
        );
        TrafficSim {
            tenants,
            config,
            pool,
        }
    }

    /// Number of boards in the pool.
    pub fn pool_size(&self) -> usize {
        self.pool.size()
    }

    /// Runs the simulation to completion and reports. Takes `&mut self`
    /// because the pool carries mutable per-board state (bitstreams,
    /// residency, busy slots); the pool is reset first, so repeated runs
    /// of the same simulator are identical.
    ///
    /// This is the fast path: the run is monomorphized over
    /// [`NullSink`], whose `enabled()` is a constant `false`, so every
    /// span/counter emission compiles out.
    ///
    /// ```
    /// use agnn_graph::datasets::Dataset;
    /// use agnn_serve::sim::{ServeConfig, TrafficSim};
    /// use agnn_serve::tenant::TenantSpec;
    ///
    /// let tenants = vec![TenantSpec::new("feed", Dataset::Movie, 20.0)];
    /// let mut sim = TrafficSim::new(
    ///     tenants,
    ///     ServeConfig {
    ///         total_requests: 200,
    ///         ..ServeConfig::default()
    ///     },
    /// );
    /// let a = sim.run();
    /// let b = sim.run(); // the pool resets: repeated runs are identical
    /// assert_eq!(a.completed() + a.dropped(), 200);
    /// assert_eq!(a.trace_digest, b.trace_digest);
    /// ```
    pub fn run(&mut self) -> TrafficReport {
        Run::new(self, &mut NullSink).run_to_end()
    }

    /// [`run`](TrafficSim::run) with the run narrating spans and
    /// counters into `sink` (see the [module docs](self) for the emission
    /// sites). Sinks are write-only, so the report — digest included — is
    /// bit-for-bit the untraced run's.
    ///
    /// ```
    /// use agnn_graph::datasets::Dataset;
    /// use agnn_serve::sim::{ServeConfig, TrafficSim};
    /// use agnn_serve::tenant::TenantSpec;
    /// use agnn_serve::trace::FlightRecorder;
    ///
    /// let tenants = vec![TenantSpec::new("feed", Dataset::Movie, 20.0)];
    /// let cfg = ServeConfig {
    ///     total_requests: 200,
    ///     ..ServeConfig::default()
    /// };
    /// let mut recorder = FlightRecorder::with_capacity(10_000);
    /// let traced = TrafficSim::new(tenants.clone(), cfg).run_traced(&mut recorder);
    /// // The digest-equivalence invariant: tracing never perturbs.
    /// let untraced = TrafficSim::new(tenants, cfg).run();
    /// assert_eq!(traced.trace_digest, untraced.trace_digest);
    /// assert!(recorder.spans().count() > 0);
    /// ```
    pub fn run_traced(&mut self, sink: &mut dyn TraceSink) -> TrafficReport {
        Run::new(self, sink).run_to_end()
    }
}

/// The state of one simulation run: the semantics side of the event
/// loop. Each [`EventKind`] has its handler method and [`Run::dispatch`]
/// places waiting work on free boards; all of them report what they
/// decided to the [`Narrator`], which they cannot read back.
///
/// Handlers only the opt-in subsystems reach (in-queue expiry, stage
/// aborts, hedge releases, the admission-time cache consult) are
/// `#[inline(never)]`: runs that leave those knobs off never call them,
/// and keeping them out of the inlined event loop keeps the default path
/// fast.
struct Run<'a, S: TraceSink + ?Sized> {
    cfg: ServeConfig,
    tenants: &'a [TenantSpec],
    pool: &'a mut BoardPool,
    pcie: PcieModel,
    switch: PcieSwitchModel,
    inference: GpuInferenceModel,
    queue: EventQueue<EventKind>,
    /// Pipelined requests between dispatch and hand-off start.
    inflight: Slab<Dispatched>,
    /// `ServiceDone` payloads between scheduling and their pop.
    completions: Slab<Completion>,
    pipe: Pipeline,
    arrivals: ArrivalSource,
    /// Arrivals generated so far (the offered load).
    offered: u64,
    /// The pluggable admission/dispatch scheduler (see the module docs'
    /// "scheduler seam"), statically dispatched.
    sched: Scheduler,
    /// Effective per-tenant deadlines: the tenant's own, falling back to
    /// the pool-wide default. With every entry `None` the expiry pass,
    /// the abort events and the served-late split are all skipped — the
    /// deadline Off-equivalence invariant.
    deadlines: Vec<Option<f64>>,
    deadlines_on: bool,
    /// The shared latency EWMA driving the hedge trigger (SLO-aware
    /// scheduling owns its own instance inside the policy).
    predictor: LatencyPredictor,
    /// Scratch for the expiry pass, reused across events.
    expired: Vec<Request>,
    /// Pure cost-model results memoized per tenant drift bucket — speed
    /// only, never the schedule (see [`CostMemo`]).
    memo: CostMemo,
    /// The subgraph result cache ([`crate::cache`]). With `Off` every
    /// touch is skipped, so the uncached schedule replays bit-for-bit.
    cache: ResultCache,
    /// The next per-run request id: spans carry it, and the deadline
    /// alarm tags it against recycled slab slots.
    next_trace_id: u64,
    wall_start: Instant,
    narr: Narrator<'a, S>,
}

impl<'a, S: TraceSink + ?Sized> Run<'a, S> {
    /// Resets `sim`'s pool and primes the first arrival of every tenant.
    fn new(sim: &'a mut TrafficSim, sink: &'a mut S) -> Self {
        let wall_start = Instant::now();
        let cfg = sim.config;
        let tenants = &sim.tenants[..];
        let pool = &mut sim.pool;
        pool.reset();
        // Size the calendar-queue buckets off the offered load: at the
        // tenants' combined peak rate one bucket holds a handful of
        // events. Width only moves constants, never ordering.
        let total_peak: f64 = tenants.iter().map(|t| t.arrival.peak_rate()).sum();
        let width_secs = (1.0 / (4.0 * total_peak)).clamp(1e-6, 1.0);
        let deadlines: Vec<Option<f64>> = tenants
            .iter()
            .map(|t| t.deadline_secs.or(cfg.default_deadline_secs))
            .collect();
        let mut run = Run {
            narr: Narrator::new(tenants, &cfg, &deadlines, sink),
            cfg,
            tenants,
            pcie: pool.pcie(),
            switch: pool.switch(),
            inference: GpuInferenceModel::default(),
            queue: EventQueue::with_width(width_secs),
            inflight: Slab::with_capacity(4 * cfg.boards),
            completions: Slab::with_capacity(4 * cfg.boards),
            pipe: Pipeline::new(cfg.boards),
            // Independent seeded arrival streams, pre-generated in
            // batches (bit-identical to on-demand draws — the streams
            // are schedule-independent).
            arrivals: ArrivalSource::new(tenants, cfg.seed),
            offered: 0,
            sched: cfg.scheduler.instantiate(tenants, cfg.queue_capacity),
            deadlines_on: deadlines.iter().any(Option::is_some),
            deadlines,
            predictor: LatencyPredictor::new(tenants.len()),
            expired: Vec::new(),
            memo: CostMemo::new(tenants.len(), cfg.drift_step_secs),
            cache: ResultCache::new(cfg.cache, tenants.len()),
            next_trace_id: 0,
            wall_start,
            pool,
        };
        for tenant in 0..tenants.len() {
            run.offer_next(tenant);
        }
        run
    }

    /// Pops events until the queue drains, then closes the report.
    fn run_to_end(mut self) -> TrafficReport {
        let mut events = 0u64;
        while let Some((now, kind)) = self.queue.pop() {
            events += 1;
            if self.deadlines_on {
                self.expire_queued(now);
            }
            let freed = match kind {
                EventKind::Arrival { tenant } => self.on_arrival(now, tenant),
                EventKind::IngestDone { board } => self.on_ingest_done(now, board),
                EventKind::FabricDone { board } => self.on_fabric_done(now, board),
                EventKind::MigrationDone { board } => self.on_migration_done(now, board),
                EventKind::ServiceDone { completion } => self.on_service_done(now, completion),
                EventKind::DeadlineExpired { board, handle, tag } => {
                    self.on_deadline_expired(now, board, handle, tag)
                }
                EventKind::HedgeWon { board, tenant } => self.on_hedge_won(now, board, tenant),
            };
            if freed {
                self.dispatch(now);
            }
        }
        let sim = SimPerf {
            wall_secs: self.wall_start.elapsed().as_secs_f64(),
            events,
        };
        self.narr
            .into_report(self.cache.stats(), self.pool.stats(), sim)
    }

    /// Schedules `tenant`'s next arrival while offered load remains.
    #[inline]
    fn offer_next(&mut self, tenant: usize) {
        if self.offered < self.cfg.total_requests {
            let at = self.arrivals.next(tenant);
            self.queue.push(at, EventKind::Arrival { tenant });
            self.offered += 1;
        }
    }

    /// In-queue expiry, before each event: drops every queued request
    /// whose deadline has (strictly) passed — it can no longer dispatch,
    /// so no board work is wasted on it. Coalesced duplicates parked on
    /// an expired primary expire with it: nothing else would ever
    /// complete them.
    #[inline(never)]
    fn expire_queued(&mut self, now: f64) {
        self.sched.expire(now, &self.deadlines, &mut self.expired);
        if self.expired.is_empty() {
            return;
        }
        let mut expired = std::mem::take(&mut self.expired);
        for rq in expired.drain(..) {
            let trace_id = self.next_trace_id;
            self.next_trace_id += 1;
            let waiters = self.cancel_waiters(rq.tenant, rq.arrival_secs);
            self.narr.expired(now, rq, trace_id, waiters);
        }
        self.expired = expired;
        self.narr.queue_depth(now, self.sched.len());
    }

    /// A dead primary of `tenant` (arrived at `arrival_secs`) orphans its
    /// coalesced duplicates: drops them from the cache and returns how
    /// many expire with it.
    fn cancel_waiters(&mut self, tenant: usize, arrival_secs: f64) -> usize {
        if !self.cache.enabled() {
            return 0;
        }
        self.cache.cancel(tenant, arrival_secs).len()
    }

    /// The [`EventKind::Arrival`] handler. Returns whether a dispatch
    /// pass follows — `false` when the arrival never queued (served from
    /// the cache, coalesced or dropped). Every handler returns the same.
    fn on_arrival(&mut self, now: f64, tenant: usize) -> bool {
        self.narr.arrival(now, tenant);
        self.offer_next(tenant);
        if self.cache.enabled() && self.answer_from_cache(now, tenant) {
            return false;
        }
        // Bounded admission: the scheduler's refusal (shared queue full,
        // or a per-tenant quota exhausted) is the drop path — counted,
        // never silently lost.
        let request = Request {
            tenant,
            arrival_secs: now,
        };
        if !self.sched.admit(request) {
            self.narr.dropped(tenant);
            return false;
        }
        if self.cache.enabled() {
            // Admitted: duplicate arrivals of the same bucket may now
            // coalesce onto this primary until its completion fills the
            // cache. (Dropped arrivals never register, so waiters cannot
            // be orphaned.)
            let bucket = self.tenants[tenant].drift_bucket(now, self.cfg.drift_step_secs);
            self.cache.register(tenant, bucket, now);
        }
        self.narr.queue_depth(now, self.sched.len());
        true
    }

    /// The cache consult, before an arrival of `tenant` ever queues: a
    /// fresh entry whose graph is still board-resident completes at
    /// lookup cost without a board slot; a duplicate of an in-flight
    /// request parks on that primary (hit-under-miss). Returns whether
    /// the cache answered.
    #[inline(never)]
    fn answer_from_cache(&mut self, now: f64, tenant: usize) -> bool {
        let spec = &self.tenants[tenant];
        let bucket = spec.drift_bucket(now, self.cfg.drift_step_secs);
        let costs = self.memo.bucket_costs(tenant, spec, now, &self.inference);
        self.cache.observe(tenant, bucket, costs.coo_bytes);
        let resident = self.pool.resident_boards(tenant).next().is_some();
        if self.cache.full_hit(tenant, bucket, resident).is_some() {
            self.narr.cache_hit(now, tenant, || self.cache.stats());
            let completion = self.completions.insert(Completion {
                tenant,
                arrival_secs: now,
                latency: RequestLatency {
                    cache_secs: CACHE_LOOKUP_SECS,
                    ..RequestLatency::default()
                },
                bucket,
                cached: true,
                ..Completion::default()
            });
            let done = EventKind::ServiceDone { completion };
            self.queue.push(now + CACHE_LOOKUP_SECS, done);
            return true;
        }
        if self.cache.park(tenant, bucket, now) {
            self.narr.coalesced(tenant);
            return true;
        }
        false
    }

    fn on_ingest_done(&mut self, now: f64, board: usize) -> bool {
        let handle = self.pipe.ingesting[board]
            .take()
            .expect("ingest completion without an ingest in flight");
        self.pool.release_dma(board);
        let rq = self.inflight.get_mut(handle);
        rq.ingest_done_secs = now;
        self.narr.ingest_done(rq.tenant, board);
        if self.pool.fabric_free(board) && self.pipe.staged[board].is_empty() {
            self.start_fabric(handle, board, now);
        } else {
            self.pool.stage(board);
            self.pipe.staged[board].push_back(handle);
        }
        // The freed DMA engine drains any waiting hand-off.
        self.start_handoff(board, now);
        true
    }

    fn on_fabric_done(&mut self, now: f64, board: usize) -> bool {
        let handle = self.pipe.in_fabric[board]
            .take()
            .expect("fabric completion without a request in the fabric");
        self.pool.release_fabric(board);
        let rq = self.inflight.get_mut(handle);
        rq.fabric_done_secs = now;
        self.narr.fabric_done(rq.tenant, board);
        self.pipe.handoffs[board].push_back(handle);
        self.pool.add_pending_handoffs(board, 1);
        self.start_handoff(board, now);
        // The earliest staged request acquires the fabric immediately.
        if let Some(staged) = self.pipe.staged[board].pop_front() {
            self.pool.unstage(board);
            self.start_fabric(staged, board, now);
        }
        true
    }

    /// The outbound switch leg finished: the source board's DMA engine
    /// stops streaming the graph out and frees.
    fn on_migration_done(&mut self, now: f64, board: usize) -> bool {
        self.pool.release_dma(board);
        self.narr.migration_done(board);
        if self.cfg.overlap {
            self.start_handoff(board, now);
        }
        true
    }

    /// Latency feedback for SLO-aware scheduling, and for the hedge
    /// trigger's shared predictor.
    fn observe_latency(&mut self, tenant: usize, latency: RequestLatency, now: f64) {
        self.sched.on_complete(tenant, &latency, now);
        if self.cfg.hedge.enabled() {
            self.predictor.observe(tenant, latency.total());
        }
    }

    fn on_service_done(&mut self, now: f64, completion: Handle) -> bool {
        let c = self.completions.remove(completion);
        self.narr.completed(now, &c);
        self.observe_latency(c.tenant, c.latency, now);
        if c.cached {
            // A cache-served completion never held a board: nothing to
            // release, no entry to refill.
            return false;
        }
        if self.cfg.overlap {
            self.pool.release_dma(c.board);
            self.pool.complete(c.board);
            self.start_handoff(c.board, now);
        } else {
            self.pool.release(c.board);
        }
        if self.cache.enabled() {
            self.refill_cache(now, &c);
        }
        true
    }

    /// Refills `c`'s cache entry from this board-served completion and
    /// drains any arrivals that coalesced onto it while it was in flight.
    fn refill_cache(&mut self, now: f64, c: &Completion) {
        // The entry's service cost substitutes the *paid* preprocess
        // share with the entry's own (a partial hit paid 0 but reuses an
        // entry worth `saved`).
        let service_secs = c.latency.board_secs() - c.latency.preprocess_secs
            + c.entry_preprocess_secs
            + c.latency.inference_secs;
        let waiters = self.cache.fill(
            c.tenant,
            c.bucket,
            c.graph_bytes,
            c.cum_delta,
            c.entry_preprocess_secs,
            service_secs,
            c.arrival_secs,
        );
        for waited_since in waiters {
            let latency = RequestLatency {
                cache_secs: now - waited_since,
                ..RequestLatency::default()
            };
            self.narr.waiter_served(c.tenant, waited_since, latency);
            self.observe_latency(c.tenant, latency, now);
        }
    }

    /// Aborts a dispatched request still *waiting* past its deadline —
    /// in the staging buffer for the fabric, or in the hand-off queue for
    /// the DMA engine. A started stage always runs to completion.
    #[inline(never)]
    fn on_deadline_expired(&mut self, now: f64, board: usize, handle: Handle, tag: u64) -> bool {
        // Tag guard against slab recycling: only a live payload whose
        // trace id matches is still this request — anything else means
        // it already completed (or aborted) and the slot moved on.
        let live = self
            .inflight
            .try_get(handle)
            .is_some_and(|rq| rq.trace_id == tag);
        if !live {
            return false;
        }
        if let Some(i) = self.pipe.staged[board].iter().position(|&h| h == handle) {
            self.pipe.staged[board].remove(i);
            self.pool.unstage(board);
        } else if let Some(i) = self.pipe.handoffs[board].iter().position(|&h| h == handle) {
            self.pipe.handoffs[board].remove(i);
            self.pool.add_pending_handoffs(board, -1);
        } else {
            return false;
        }
        let rq = self.inflight.remove(handle);
        let waiters = self.cancel_waiters(rq.tenant, rq.arrival_secs);
        self.narr.aborted(now, board, &rq, waiters);
        // The freed staging slot may let the board accept a queued
        // request.
        true
    }

    /// The cancelled leg's board frees. Both engines were held as one
    /// serial visit, but `release` would also count a completion the
    /// loser never made.
    #[inline(never)]
    fn on_hedge_won(&mut self, now: f64, board: usize, tenant: usize) -> bool {
        self.pool.release_dma(board);
        self.pool.release_fabric(board);
        self.narr.hedge_lost(now, tenant, board);
        true
    }

    /// Dispatches while boards are free and work waits. Each pass offers
    /// the scheduler's scan order to placement; placement and the
    /// dispatch policy pick the (request, board) pair, which then runs
    /// the serial or the pipelined lifecycle.
    fn dispatch(&mut self, now: f64) {
        while self.pool.any_free() && !self.sched.is_empty() {
            let mut scan = Scan {
                tenants: self.tenants,
                memo: &mut self.memo,
                pool: self.pool,
                now,
            };
            let Some(placement) = select_dispatch(&self.cfg, self.sched.scan(), &mut scan) else {
                break;
            };
            let (position, board, split) = match placement {
                Placement::Serve { position, board } => (position, board, None),
                // SplitHot overflow: the queue outgrew its threshold with
                // every affine board busy, so the front request claims an
                // idle board instead.
                Placement::Migrating { position, board } => (position, board, Some(board)),
            };
            let request = self.sched.take(position);
            let trace_id = self.next_trace_id;
            self.next_trace_id += 1;
            let depth = self.sched.len();
            self.narr.dispatched(now, request, trace_id, depth, split);
            let rq = self.price_ingest(now, request, trace_id, board);
            if self.cfg.overlap {
                self.dispatch_pipelined(now, rq, board);
            } else {
                self.dispatch_serial(now, rq, board);
            }
        }
    }

    /// Prices a dispatch of `request` to `board` up to its ingest:
    /// classifies it against the result cache and moves the tenant's
    /// graph onto the board — from a peer's DRAM over the switch when
    /// the policy allows and an idle-DMA peer holds a copy, from the
    /// host otherwise.
    fn price_ingest(
        &mut self,
        now: f64,
        request: Request,
        trace_id: u64,
        board: usize,
    ) -> Dispatched {
        let tenant = request.tenant;
        let spec = &self.tenants[tenant];
        let costs = self.memo.bucket_costs(tenant, spec, now, &self.inference);
        let best = self.memo.best_config(tenant, spec, now, self.pool);
        // A fresh entry lets this request skip preprocessing (partial
        // hit — residency lapsed between arrival and dispatch or the
        // entry landed while this request queued); otherwise it is the
        // miss that will refill the entry at completion.
        let bucket = spec.drift_bucket(now, self.cfg.drift_step_secs);
        let (partial, cum_delta) = if self.cache.enabled() {
            self.cache.observe(tenant, bucket, costs.coo_bytes);
            let partial = self.cache.serve_partial(tenant, bucket);
            match partial {
                Some(_) => self
                    .narr
                    .partial_hit(now, tenant, board, || self.cache.stats()),
                None => self.narr.cache_miss(tenant),
            }
            (partial, self.cache.cum_delta(tenant))
        } else {
            (None, 0)
        };
        let mut rq = Dispatched {
            tenant,
            trace_id,
            arrival_secs: request.arrival_secs,
            dispatch_secs: now,
            workload: costs.workload,
            best,
            subgraph_bytes: costs.subgraph_bytes,
            inference_secs: costs.inference_secs,
            upload_secs: 0.0,
            ingest_done_secs: now,
            fabric_start_secs: now,
            fabric_done_secs: now,
            reconfig_secs: 0.0,
            preprocess_secs: 0.0,
            host_bytes: 0,
            switch_bytes: 0,
            bucket,
            graph_bytes: costs.coo_bytes,
            cum_delta,
            entry_preprocess_secs: partial.unwrap_or(0.0),
            partial: partial.is_some(),
        };
        let source = if self.cfg.migrate.pulls_from_peers()
            && self.pool.resident_bytes(board, tenant) == 0
        {
            self.pool.peer_source(tenant, board)
        } else {
            None
        };
        let mut switch_secs = 0.0;
        if let Some(source) = source {
            let transfer = self
                .pool
                .migrate_ingest(board, source, tenant, costs.coo_bytes);
            switch_secs = self.switch.transfer_secs(transfer.switch_bytes);
            let done = now + switch_secs;
            // The outbound leg holds the source board's DMA engine until
            // `MigrationDone` releases it.
            self.pool.occupy_dma(source, now, done);
            if self.cfg.overlap {
                self.overlap_fabric(source, now, done);
            }
            self.narr.migrated_out(&rq, board, source, now, done);
            self.queue
                .push(done, EventKind::MigrationDone { board: source });
            rq.host_bytes = transfer.host_bytes;
            rq.switch_bytes = transfer.switch_bytes;
        } else {
            rq.host_bytes = self.pool.upload_delta(board, tenant, costs.coo_bytes);
        }
        // Residency moved (upload delta or migrated prefix).
        let resident = || self.pool.resident_total_bytes(board);
        self.narr.residency(now, board, resident);
        rq.upload_secs = switch_secs + self.pcie.transfer_secs(rq.host_bytes);
        rq
    }

    /// Pipelined: occupy only `board`'s DMA engine; the fabric (and the
    /// reconfiguration decision) waits until the delta has landed.
    fn dispatch_pipelined(&mut self, now: f64, mut rq: Dispatched, board: usize) {
        let done = now + rq.upload_secs;
        self.pool.occupy_dma(board, now, done);
        self.overlap_fabric(board, now, done);
        self.narr.ingest(&rq, board, now, done);
        rq.ingest_done_secs = done;
        rq.fabric_start_secs = done;
        rq.fabric_done_secs = done;
        let handle = self.inflight.insert(rq);
        self.pipe.ingesting[board] = Some(handle);
        self.queue.push(done, EventKind::IngestDone { board });
        if let Some(deadline) = self.deadlines[rq.tenant] {
            // Stage-abort alarm: if the request still waits on an
            // unstarted stage when this pops, its slot is abandoned.
            // Tagged with the trace id so a recycled slab slot cannot be
            // mis-aborted.
            let tag = rq.trace_id;
            let alarm = EventKind::DeadlineExpired { board, handle, tag };
            self.queue.push(rq.arrival_secs + deadline, alarm);
        }
    }

    /// Serial: `board` pays every stage back to back and both slots stay
    /// held — the PR 1/PR 2 schedule bit-for-bit. With hedging on, a
    /// request whose queue wait outran the predicted tail is priced on a
    /// second free board too, and the faster leg wins.
    fn dispatch_serial(&mut self, now: f64, mut rq: Dispatched, board: usize) {
        let tenant = rq.tenant;
        // A partial hit reuses the cached fabric output: the board still
        // ingests the delta and hands the subgraph off, but the
        // preprocessing pass and any reconfiguration are skipped.
        if !rq.partial {
            rq.reconfig_secs = self.reconfigure(now, tenant, &rq.workload, rq.best, board);
            rq.preprocess_secs = self.preprocess_secs(tenant, &rq.workload, board);
            rq.entry_preprocess_secs = rq.preprocess_secs;
        }
        let stall = rq.reconfig_secs;
        let download_secs = self.pcie.transfer_secs(rq.subgraph_bytes);
        let done = now + stall + rq.upload_secs + rq.preprocess_secs + download_secs;
        let second = match self.cfg.hedge {
            HedgeKind::Latency { factor } => {
                let wait = now - rq.arrival_secs;
                if self.predictor.is_warm(tenant)
                    && wait > factor * self.predictor.predicted_p99(tenant)
                {
                    self.pool.free_indices().find(|&b| b != board)
                } else {
                    None
                }
            }
            HedgeKind::Off => None,
        };
        // The winning leg, initially the placement pick.
        let mut win_done = done;
        let mut win = rq.completion(
            board,
            RequestLatency {
                queue_secs: now - rq.arrival_secs,
                reconfig_secs: stall,
                upload_secs: rq.upload_secs,
                stage_wait_secs: 0.0,
                preprocess_secs: rq.preprocess_secs,
                download_secs,
                inference_secs: rq.inference_secs,
                cache_secs: 0.0,
            },
        );
        if let Some(second) = second {
            // The hedge leg ingests from the host onto the second board's
            // *current* bitstream — no reconfiguration, no migration: the
            // bet is a cheap second chance, not a second ICAP switch.
            let host_b = self.pool.upload_delta(second, tenant, rq.graph_bytes);
            let upload_b = self.pcie.transfer_secs(host_b);
            let preprocess_b = self.preprocess_secs(tenant, &rq.workload, second);
            let done_b = now + upload_b + preprocess_b + download_secs;
            // Ties keep the primary — placement picked it.
            let (loser, loser_free_at, loser_bytes) = if done_b < win_done {
                // The hedge leg wins. The primary's *started*
                // reconfiguration still runs to completion, so its board
                // frees only once both the cancellation and the ICAP
                // stall have passed.
                let lost = (
                    board,
                    done_b.max(now + stall),
                    rq.host_bytes + rq.switch_bytes,
                );
                win_done = done_b;
                win = Completion {
                    board: second,
                    latency: RequestLatency {
                        reconfig_secs: 0.0,
                        upload_secs: upload_b,
                        preprocess_secs: preprocess_b,
                        ..win.latency
                    },
                    host_bytes: host_b,
                    switch_bytes: 0,
                    entry_preprocess_secs: preprocess_b,
                    ..win
                };
                lost
            } else {
                (second, win_done, host_b)
            };
            self.narr
                .hedge_launched(&rq, second, now, loser_free_at, loser_bytes);
            self.pool.occupy(loser, now, loser_free_at);
            let hedge_won = EventKind::HedgeWon {
                board: loser,
                tenant,
            };
            self.queue.push(loser_free_at, hedge_won);
        }
        self.pool.occupy(win.board, now, win_done);
        // Only the winning leg is narrated as a board visit; a cancelled
        // hedge leg appears as one `Cancelled` span.
        self.narr
            .serial_visit(&rq, win.board, now, &win.latency, win_done);
        let completion = self.completions.insert(win);
        self.queue
            .push(win_done, EventKind::ServiceDone { completion });
    }

    /// Pays the reconfiguration decision for `tenant`'s `workload` on
    /// `board` — unless the scheduler's gate withholds it (SLO-aware
    /// policies keep a within-budget tenant on the current bitstream;
    /// `Fifo` never does). Returns the ICAP stall, `0.0` when the board
    /// keeps its bitstream.
    fn reconfigure(
        &mut self,
        now: f64,
        tenant: usize,
        workload: &Workload,
        best: HwConfig,
        board: usize,
    ) -> f64 {
        if !self.sched.allow_reconfig(tenant, now) {
            return 0.0;
        }
        match self
            .memo
            .maybe_reconfigure(tenant, workload, best, self.pool, board)
        {
            Some(secs) => {
                self.narr.reconfigured(tenant, board, secs);
                secs
            }
            None => 0.0,
        }
    }

    /// Fabric preprocessing seconds of `tenant`'s `workload` under
    /// `board`'s current configuration and the pool's compute speedup.
    fn preprocess_secs(&mut self, tenant: usize, workload: &Workload, board: usize) -> f64 {
        self.memo.stage_total(tenant, workload, self.pool, board) / self.cfg.compute_speedup
    }

    /// A DMA transfer over `now → done` on `board` overlaps whatever
    /// share of it the busy fabric is still working.
    fn overlap_fabric(&mut self, board: usize, now: f64, done: f64) {
        if !self.pool.fabric_free(board) {
            let until = self.pool.fabric_until(board);
            self.narr.overlap((done.min(until) - now).max(0.0));
        }
    }

    /// Moves an ingested request into board `board`'s fabric at `now`:
    /// pays the deferred reconfiguration decision, prices preprocessing
    /// under the resulting configuration, and schedules `FabricDone`.
    fn start_fabric(&mut self, handle: Handle, board: usize, now: f64) {
        let rq = self.inflight.get(handle);
        let (tenant, workload, best, partial) = (rq.tenant, rq.workload, rq.best, rq.partial);
        // A partial cache hit reuses the cached fabric output: the stage
        // and the reconfiguration decision are skipped outright.
        let (stall, preprocess_secs) = if partial {
            (0.0, 0.0)
        } else {
            let stall = self.reconfigure(now, tenant, &workload, best, board);
            (stall, self.preprocess_secs(tenant, &workload, board))
        };
        let done = now + stall + preprocess_secs;
        self.pool.occupy_fabric(board, now, done);
        let rq = self.inflight.get_mut(handle);
        rq.fabric_start_secs = now;
        rq.reconfig_secs = stall;
        rq.preprocess_secs = preprocess_secs;
        if !partial {
            // The cache entry this completion refills saves future hits
            // this (actually paid) fabric pass; a partial hit keeps the
            // saved cost it copied out of the entry it reused.
            rq.entry_preprocess_secs = preprocess_secs;
        }
        self.narr.fabric(rq, board, now, stall, done);
        // The fabric starting under an in-flight DMA transfer is pipeline
        // overlap (the symmetric case — DMA starting under the fabric —
        // is accounted at the transfer's start).
        if !self.pool.dma_free(board) {
            let until = self.pool.dma_until(board);
            self.narr.overlap((done.min(until) - now).max(0.0));
        }
        self.pipe.in_fabric[board] = Some(handle);
        self.queue.push(done, EventKind::FabricDone { board });
    }

    /// Starts the next queued subgraph hand-off on board `board`'s DMA
    /// engine if it is idle, scheduling the request's `ServiceDone`. The
    /// transfer size and inference tail were memoized into the
    /// [`Dispatched`] record at dispatch, so this path performs no
    /// cost-model work.
    fn start_handoff(&mut self, board: usize, now: f64) {
        if !self.pool.dma_free(board) {
            return;
        }
        let Some(handle) = self.pipe.handoffs[board].pop_front() else {
            return;
        };
        self.pool.add_pending_handoffs(board, -1);
        // The request leaves the pipeline here: reclaim its slab slot and
        // carry the record by value through the final pricing.
        let rq = self.inflight.remove(handle);
        let download_secs = self.pcie.transfer_secs(rq.subgraph_bytes);
        let done = now + download_secs;
        self.pool.occupy_dma(board, now, done);
        self.narr.handoff(&rq, board, now, done);
        self.overlap_fabric(board, now, done);
        let stage_wait_secs =
            (rq.fabric_start_secs - rq.ingest_done_secs) + (now - rq.fabric_done_secs);
        let latency = RequestLatency {
            queue_secs: rq.dispatch_secs - rq.arrival_secs,
            reconfig_secs: rq.reconfig_secs,
            upload_secs: rq.upload_secs,
            stage_wait_secs,
            preprocess_secs: rq.preprocess_secs,
            download_secs,
            inference_secs: rq.inference_secs,
            cache_secs: 0.0,
        };
        let completion = self.completions.insert(rq.completion(board, latency));
        self.queue.push(done, EventKind::ServiceDone { completion });
    }
}

/// Where (and how) the next dispatch lands.
enum Placement {
    /// Serve queue `position` on `board` — the request's placement-policy
    /// pick, ingesting from the host or a warm local copy.
    Serve { position: usize, board: usize },
    /// [`MigratePolicy::SplitHot`] overflow: serve queue `position` on
    /// idle `board` even though the request's affine/home board is busy —
    /// the tenant's graph migrates in from a peer when one holds a copy.
    Migrating { position: usize, board: usize },
}

/// Placement's view of the run at `now`: what it reads to find a queued
/// request's library-optimal bitstream.
struct Scan<'a> {
    tenants: &'a [TenantSpec],
    memo: &'a mut CostMemo,
    pool: &'a BoardPool,
    now: f64,
}

impl Scan<'_> {
    /// `r`'s library-optimal bitstream, memoized per drift bucket.
    #[inline]
    fn best(&mut self, r: &Request) -> HwConfig {
        self.memo
            .best_config(r.tenant, &self.tenants[r.tenant], self.now, self.pool)
    }
}

/// The SplitHot fallback when every queued request is waiting for a busy
/// affine/home board: once the queue outgrows the policy threshold, the
/// front request claims the least-loaded free board as a
/// [`Placement::Migrating`] dispatch instead of waiting.
fn split_overflow(cfg: &ServeConfig, queue: &[Request], pool: &BoardPool) -> Option<Placement> {
    let threshold = cfg.migrate.split_threshold()?;
    if queue.len() < threshold {
        return None;
    }
    let board = pool.least_loaded_free()?;
    Some(Placement::Migrating { position: 0, board })
}

/// Picks the next dispatch, or `None` when no placement is currently
/// possible (e.g. every home board of every queued request is busy under
/// [`PlacementPolicy::TenantAffine`] and the migration policy keeps them
/// waiting). `queue` is the scheduler's scan order — arrival order under
/// [`SchedKind::Fifo`], the deficit-round-robin fair order under
/// [`SchedKind::WeightedFair`] — so placement reads the scheduler's
/// preference as a hint and positions index back into the scan.
fn select_dispatch(cfg: &ServeConfig, queue: &[Request], scan: &mut Scan) -> Option<Placement> {
    let (tenants, pool, now) = (scan.tenants, scan.pool, scan.now);
    match cfg.placement {
        // The home board of the earliest-arrived dispatchable request
        // serves; the dispatch policy then picks among the requests homed
        // to that board (a home board never serves foreign tenants, so
        // the reconfig-aware scan is restricted to its own backlog).
        PlacementPolicy::TenantAffine => {
            let Some(board) = queue.iter().find_map(|r| {
                let home = tenants[r.tenant].home_board(r.tenant, pool.size());
                pool.is_free(home).then_some(home)
            }) else {
                // Every home board is busy: wait, unless the queue has
                // outgrown the SplitHot threshold.
                return split_overflow(cfg, queue, pool);
            };
            let homed = |r: &Request| tenants[r.tenant].home_board(r.tenant, pool.size()) == board;
            let position = pick_for_board(cfg.policy, queue, scan, board, homed)?;
            Some(Placement::Serve { position, board })
        }
        // The least-loaded free board serves; its dispatch policy picks
        // the request — with one board this is exactly the PR 1 scheduler.
        PlacementPolicy::LeastLoaded => {
            let board = pool.least_loaded_free()?;
            let position = pick_for_board(cfg.policy, queue, scan, board, |_| true)?;
            Some(Placement::Serve { position, board })
        }
        // Route a request to a board already holding its bitstream. A
        // request whose bitstream lives on a *busy* board waits for it
        // (bounded by the starvation guard) instead of reprogramming an
        // idle board — that restraint is what turns reconfigurations into
        // routing decisions. Only a bitstream no board holds claims the
        // least-loaded free board and pays one switch.
        PlacementPolicy::BitstreamAffine => {
            let max_queue_delay_secs = match cfg.policy {
                // FIFO promises strict arrival order, so the affinity
                // scan must not overtake: placement only picks the front
                // request's board (a zero starvation bound).
                DispatchPolicy::Fifo => 0.0,
                DispatchPolicy::ReconfigAware {
                    max_queue_delay_secs,
                } => max_queue_delay_secs,
            };
            let front = &queue[0];
            if now - front.arrival_secs >= max_queue_delay_secs {
                let board = pool
                    .free_with_config(scan.best(front))
                    .or_else(|| pool.least_loaded_free())?;
                return Some(Placement::Serve { position: 0, board });
            }
            // Pass 1: the earliest request whose optimal bitstream is
            // already programmed on a free board (with one board this is
            // exactly the PR 1 reconfig-aware queue scan).
            for (position, r) in queue.iter().enumerate() {
                if let Some(board) = pool.free_with_config(scan.best(r)) {
                    return Some(Placement::Serve { position, board });
                }
            }
            // Pass 2: the earliest request whose bitstream no board holds
            // claims the least-loaded free board.
            for (position, r) in queue.iter().enumerate() {
                if !pool.any_with_config(scan.best(r)) {
                    let board = pool.least_loaded_free()?;
                    return Some(Placement::Serve { position, board });
                }
            }
            // Every queued bitstream is held by a busy board: wait for
            // it — unless the queue has outgrown the SplitHot threshold,
            // in which case the hot tenant splits onto an idle board.
            split_overflow(cfg, queue, pool)
        }
    }
}

/// The queue position `board` serves next under dispatch `policy` (PR 1's
/// pick, parameterized by the board's bitstream), scanning only requests
/// `eligible` admits — `TenantAffine` placement restricts the scan to the
/// board's own tenants, everything else passes all. `None` when no queued
/// request is eligible.
fn pick_for_board(
    policy: DispatchPolicy,
    queue: &[Request],
    scan: &mut Scan,
    board: usize,
    eligible: impl Fn(&Request) -> bool,
) -> Option<usize> {
    let front_pos = queue.iter().position(&eligible)?;
    match policy {
        DispatchPolicy::Fifo => Some(front_pos),
        DispatchPolicy::ReconfigAware {
            max_queue_delay_secs,
        } => {
            let front = &queue[front_pos];
            if scan.now - front.arrival_secs >= max_queue_delay_secs {
                return Some(front_pos);
            }
            let current = scan.pool.config(board);
            queue
                .iter()
                .enumerate()
                .filter(|(_, r)| eligible(r))
                .find(|(_, r)| scan.best(r) == current)
                .map(|(position, _)| position)
                .or(Some(front_pos))
        }
    }
}

/// Entries kept per tenant in the [`CostMemo`] keyed caches. In-flight
/// requests from older drift buckets are bounded by the pipeline depth
/// (at most a few per board), so a small cap never thrashes; eviction
/// only costs a recompute, never correctness.
const COST_MEMO_CAP: usize = 16;

/// The drift-bucket row of one tenant's memoized pure costs, copied out
/// by value at dispatch.
#[derive(Debug, Clone, Copy)]
struct BucketCosts {
    /// The bucket's workload (what [`TenantSpec::workload_at`] returns
    /// for any `now` inside the bucket).
    workload: Workload,
    /// [`Workload::coo_bytes`] — the full-graph upload size.
    coo_bytes: u64,
    /// [`Workload::subgraph_bytes`] — the hand-off transfer size.
    subgraph_bytes: u64,
    /// [`GpuInferenceModel::analytic_inference_secs`] under the tenant's
    /// GNN for this bucket's subgraph.
    inference_secs: f64,
}

/// One tenant's memo: the current drift-bucket row plus small keyed
/// caches for config-dependent results (which must key on the *request's*
/// workload — a pipelined request can reach the fabric after its tenant
/// drifted into a newer bucket).
#[derive(Debug)]
struct TenantMemo {
    /// Drift bucket `costs` belongs to (`None` until first touched).
    bucket: Option<u64>,
    costs: BucketCosts,
    /// `bucket → library-optimal configuration` (the
    /// [`CostModel::choose_config`] pick the dispatch scan re-reads for
    /// every queued request inside a drift step).
    best: Option<(u64, HwConfig)>,
    /// `(workload, config) → fabric preprocessing seconds` (the
    /// [`BoardPool::stage_secs`] total). An [`FxHashMap`] — the
    /// multiply-rotate hash is deterministic across processes (no
    /// `RandomState` seed) and a fraction of SipHash's cost on these
    /// small `Copy` keys, and the map is only ever probed by key, never
    /// iterated, so hash order cannot leak into the schedule.
    stages: FxHashMap<(Workload, HwConfig), f64>,
    /// `(workload, current, best) → should-reconfigure verdict`. Same
    /// [`FxHashMap`] rationale as `stages`.
    verdicts: FxHashMap<(Workload, HwConfig, HwConfig), bool>,
}

/// Memo of the pure cost-model quantities the event loop re-derives on
/// every dispatch: the drift-bucket workload (`powf` drift factors), the
/// neighborhood-expansion sums behind `subgraph_*`, the analytic fabric
/// report, and the reconfiguration-policy estimates. Every cached value
/// is the exact number the underlying call would produce for the same
/// inputs, so the memo moves wall-clock only — the schedule, latencies
/// and trace digest are untouched (the golden-digest pins in
/// `tests/serve_traffic.rs` hold through it).
#[derive(Debug)]
struct CostMemo {
    step_secs: f64,
    rows: Vec<TenantMemo>,
}

impl CostMemo {
    fn new(tenant_count: usize, step_secs: f64) -> Self {
        let empty = BucketCosts {
            workload: Workload::new(0, 0, 0, 0, 0),
            coo_bytes: 0,
            subgraph_bytes: 0,
            inference_secs: 0.0,
        };
        CostMemo {
            step_secs,
            rows: (0..tenant_count)
                .map(|_| TenantMemo {
                    bucket: None,
                    costs: empty,
                    best: None,
                    stages: FxHashMap::default(),
                    verdicts: FxHashMap::default(),
                })
                .collect(),
        }
    }

    /// The memoized drift-bucket row for `tenant` at `now`, rebuilt on a
    /// bucket miss (one workload construction plus two expansion passes
    /// per tenant per drift step, instead of per dispatch).
    fn bucket_costs(
        &mut self,
        index: usize,
        tenant: &TenantSpec,
        now: f64,
        inference: &GpuInferenceModel,
    ) -> BucketCosts {
        let bucket = tenant.drift_bucket(now, self.step_secs);
        let row = &mut self.rows[index];
        if row.bucket != Some(bucket) {
            let workload = tenant.workload_at(now, self.step_secs);
            row.bucket = Some(bucket);
            row.costs = BucketCosts {
                workload,
                coo_bytes: workload.coo_bytes(),
                subgraph_bytes: workload.subgraph_bytes(),
                inference_secs: inference.analytic_inference_secs(
                    &tenant.gnn,
                    workload.subgraph_nodes(),
                    workload.subgraph_edges(),
                ),
            };
        }
        row.costs
    }

    /// The library-optimal configuration for `tenant`'s current drift
    /// bucket, memoized per tenant. The workload (and its `powf` drift
    /// factors) is only built on a bucket miss — the dispatch scan hits
    /// the memo for every queued request inside a drift step. The memo is
    /// sound pool-wide: all boards search the same bitstream library.
    fn best_config(
        &mut self,
        index: usize,
        tenant: &TenantSpec,
        now: f64,
        pool: &BoardPool,
    ) -> HwConfig {
        let bucket = tenant.drift_bucket(now, self.step_secs);
        let row = &mut self.rows[index];
        if let Some((cached_bucket, config)) = row.best {
            if cached_bucket == bucket {
                return config;
            }
        }
        let workload = tenant.workload_at(now, self.step_secs);
        let best = CostModel.choose_config(&workload, pool.library());
        row.best = Some((bucket, best));
        best
    }

    /// [`BoardPool::stage_secs`] under board `board`'s current
    /// configuration, memoized per `(workload, config)` — sound pool-wide
    /// because every board shares one fabric timing model.
    fn stage_total(
        &mut self,
        index: usize,
        workload: &Workload,
        pool: &BoardPool,
        board: usize,
    ) -> f64 {
        let config = pool.config(board);
        let row = &mut self.rows[index];
        if let Some(&secs) = row.stages.get(&(*workload, config)) {
            return secs;
        }
        let secs = pool.stage_secs(board, workload);
        if row.stages.len() >= COST_MEMO_CAP {
            // Wholesale clear instead of per-entry LRU: the cap is only
            // reached when a tenant straddles a drift boundary, and every
            // evicted value is an exact recompute away.
            row.stages.clear();
        }
        row.stages.insert((*workload, config), secs);
        secs
    }

    /// [`BoardPool::maybe_reconfigure`] with the policy verdict memoized
    /// per `(workload, current, best)`: only a `true` verdict touches the
    /// board (through [`BoardPool::apply_reconfigure`]).
    fn maybe_reconfigure(
        &mut self,
        index: usize,
        workload: &Workload,
        best: HwConfig,
        pool: &mut BoardPool,
        board: usize,
    ) -> Option<f64> {
        let current = pool.config(board);
        if best == current {
            return None;
        }
        let row = &mut self.rows[index];
        let verdict = match row.verdicts.get(&(*workload, current, best)) {
            Some(&verdict) => verdict,
            None => {
                let verdict = pool.policy().should_reconfigure(workload, current, best);
                if row.verdicts.len() >= COST_MEMO_CAP {
                    row.verdicts.clear();
                }
                row.verdicts.insert((*workload, current, best), verdict);
                verdict
            }
        };
        verdict.then(|| pool.apply_reconfigure(board, best))
    }
}

/// Runs one simulation over `tenants` with `config`.
pub fn simulate(tenants: Vec<TenantSpec>, config: ServeConfig) -> TrafficReport {
    let mut sim = TrafficSim::new(tenants, config);
    sim.run()
}
