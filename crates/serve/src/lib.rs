//! Discrete-event, multi-tenant traffic scheduling for the AutoGNN runtime.
//!
//! The paper's runtime ([`agnn_core::runtime::AutoGnn`]) serves one request
//! at a time; a production deployment sees sustained, mixed, time-varying
//! load from many applications sharing one accelerator. This crate closes
//! that gap with a fully simulated serving layer:
//!
//! - [`tenant`] — tenants bind a Table II dataset, sampling parameters and
//!   a GNN spec to a seeded arrival process (homogeneous Poisson or a
//!   diurnal sinusoid via Lewis–Shedler thinning), with optional
//!   Table II-rate workload drift;
//! - [`pool`] — a [`pool::BoardPool`] of N simulated accelerators, each a
//!   forked [`agnn_core::runtime::AutoGnn`] with its own bitstream state,
//!   reconfiguration clock, capacity-bounded resident-graph memory (LRU
//!   eviction at the §V-B DRAM budget) and **two in-flight slots** — the
//!   PCIe DMA engine and the reconfigurable fabric — fed by the shared
//!   admission queue through a pluggable [`pool::PlacementPolicy`]
//!   (`TenantAffine`, `LeastLoaded`, `BitstreamAffine`). A
//!   [`pool::MigratePolicy`] additionally lets graphs move **between**
//!   boards over the PCIe switch
//!   ([`agnn_hw::shell::PcieSwitchModel`]): DRAM-evicted tenants
//!   rehydrate from a peer still holding their graph instead of
//!   re-crossing the host link, and hot tenants split onto idle boards
//!   once their affine board's queue outgrows a threshold;
//! - [`sched`] — the pluggable admission/dispatch scheduler: a
//!   [`sched::SchedPolicy`] trait owning enqueue/drop/pick and
//!   reconfiguration-gating decisions, with [`sched::Fifo`] (the bounded
//!   arrival-order queue, bit-for-bit the pre-refactor schedules — every
//!   golden digest holds), [`sched::WeightedFair`] (deficit round robin
//!   over per-tenant queues with [`tenant::TenantSpec::weight`] shares
//!   and per-tenant quotas, so one bursty aggressor can no longer starve
//!   the other tenants) and [`sched::SloAware`] (a per-tenant latency
//!   EWMA gates bitstream reconfiguration on predicted p99 vs the
//!   tenant's SLO budget — stalls nobody's tail needs stop being paid);
//! - [`engine`] — the simulation mechanics: a calendar-queue
//!   [`engine::EventQueue`] (O(1) push/pop at serving densities,
//!   bit-for-bit the binary-heap `(time, push-order)` contract it
//!   replaced), a [`engine::Slab`] arena holding in-flight request state
//!   behind 4-byte handles and batched pre-generated arrival streams
//!   ([`engine::ArrivalSource`]) — see `docs/ARCHITECTURE.md`;
//! - [`sim`] — the discrete-event scheduler itself, with drop
//!   accounting and pluggable [`sim::DispatchPolicy`] — strict FIFO
//!   versus a *reconfig-aware* policy that serves same-bitstream requests
//!   together to amortize `ReconfigEvent` stalls (§V-B's cost-model
//!   decision, lifted from one request to a traffic stream). With
//!   [`sim::ServeConfig::overlap`] the request lifecycle is
//!   **pipelined**: a board ingests the next request's graph delta
//!   (double-buffered, [`agnn_hw::shell::DELTA_BUFFERS`]) and streams
//!   finished subgraphs out while its fabric preprocesses — upload time
//!   leaves the dispatch critical path. Requests can carry **deadlines**
//!   ([`tenant::TenantSpec::deadline_secs`],
//!   [`sim::ServeConfig::default_deadline_secs`]): dead requests expire
//!   at the queue scan, a dispatched-but-not-started stage aborts and
//!   releases its board slot, and [`sim::HedgeKind::Latency`] re-offers
//!   a stalled queue-front request to a second board and cancels the
//!   loser — all assembled through the validating
//!   [`sim::ServeConfig::builder`];
//! - [`cache`] — the subgraph result cache: entries keyed on request
//!   identity `(tenant, drift bucket, seed)`, invalidated by accumulated
//!   graph-delta bytes ([`cache::CacheKind::Delta`]) and degraded to
//!   partial hits when the source graph is no longer board-resident;
//!   duplicate in-flight requests coalesce onto one primary and complete
//!   off its `ServiceDone` (hit-under-miss). [`cache::CacheKind::Off`]
//!   is the default and replays the uncached schedule bit-for-bit;
//! - [`par`] — multi-core fan-out of independent seeded runs
//!   ([`par::par_runs`] / [`par::par_map`] over the vendored
//!   `scoped_threadpool` stand-in): jobs are distributed from a shared
//!   injector but results merge in **input order**, so for any job count
//!   the batch is byte-identical to the `jobs = 1` serial loop — the
//!   contract CI's parallel scenario sweep rides on;
//! - [`metrics`] — deterministic latency histograms (p50/p95/p99/max),
//!   per-lifecycle-stage breakdowns ([`metrics::StageHistograms`]),
//!   per-tenant queue-wait distributions, drop and SLO-violation
//!   counters, a pipeline-overlap ratio, throughput, queue-depth
//!   timelines, per-board breakdowns, an order-sensitive event-trace
//!   digest for reproducibility checks, an exact five-way stall
//!   attribution of every completed request's latency
//!   ([`metrics::StallBreakdown`]), the simulator's own speed
//!   ([`metrics::SimPerf`]) and a byte-stable JSON rendering
//!   ([`metrics::TrafficReport::to_json`]);
//! - [`trace`] — flight-recorder tracing: the event loop narrates
//!   per-request lifecycle spans, board-resource occupancy and counter
//!   samples into a [`trace::TraceSink`]
//!   ([`sim::TrafficSim::run_traced`]), with a zero-cost
//!   [`trace::NullSink`] default (bit-for-bit the untraced run), a
//!   bounded [`trace::FlightRecorder`] ring for post-mortem queries, and
//!   a [`trace::ChromeTraceWriter`] exporting Perfetto /
//!   `chrome://tracing` JSON with per-board resource tracks and
//!   per-request flow arrows.
//!
//! Every price the scheduler pays — upload delta, per-stage preprocessing,
//! subgraph hand-off, ICAP stall, GPU inference tail — comes from the same
//! calibrated models the runtime uses, through the analytic staged path
//! ([`agnn_core::runtime::AutoGnn::analytic_service_secs`]), so a hundred
//! thousand requests replay in well under a second.
//!
//! # CI perf gate
//!
//! The serving numbers are kept honest by CI (`.github/workflows/ci.yml`,
//! job `bench-smoke`): every push replays a small seeded scenario sweep
//! through `cargo run -p agnn-bench --bin bench_smoke`, uploads the
//! resulting `BENCH_serving.json` artifact (built from
//! [`metrics::TrafficReport::to_json`]), and fails the job if any gated
//! scenario's p99, reconfiguration count or host-upload bytes regresses
//! more than 20 % past the checked-in baseline
//! `ci/bench_serving_baseline.json` — including `migration_drift`, whose
//! host-byte saving is the point of cross-board migration. The simulator
//! also gates **itself**: each scenario row carries `sim_events_per_sec`
//! ([`metrics::SimPerf`]), failed only on a much more generous 40 %
//! slowdown because wall-clock rows ride CI-runner noise. A
//! baseline-vs-run delta table lands in the job summary. Intentional
//! regressions update the baseline in the same PR:
//!
//! ```text
//! cargo run --release -p agnn-bench --bin bench_smoke -- \
//!     --write-baseline ci/bench_serving_baseline.json
//! ```
//!
//! # Examples
//!
//! ```
//! use agnn_graph::datasets::Dataset;
//! use agnn_serve::sim::{simulate, DispatchPolicy, ServeConfig};
//! use agnn_serve::tenant::TenantSpec;
//!
//! let tenants = vec![
//!     TenantSpec::new("feed", Dataset::Movie, 40.0),
//!     TenantSpec::new("ads", Dataset::StackOverflow, 40.0),
//! ];
//! let config = ServeConfig::builder()
//!     .seed(7)
//!     .total_requests(500)
//!     .policy(DispatchPolicy::reconfig_aware())
//!     .build()
//!     .expect("a valid serving config");
//! let report = simulate(tenants, config);
//! assert_eq!(report.completed() + report.dropped(), 500);
//! assert!(report.throughput_rps() > 0.0);
//! ```
#![warn(missing_docs)]

/// Compiles the Rust snippets of `docs/ARCHITECTURE.md` as doc-tests, so
/// the architecture guide cannot drift from the API it describes.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/ARCHITECTURE.md")]
struct ArchitectureDoc;

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod par;
pub mod pool;
pub mod sched;
pub mod sim;
pub mod tenant;
pub mod trace;

pub use cache::{CacheKind, CacheStats, ResultCache};
pub use engine::{ArrivalSource, EventQueue, Slab};
pub use metrics::{
    BoardStats, CompletedRequest, LatencyHistogram, OutcomeCounts, RequestLatency, RequestOutcome,
    SimPerf, StageHistograms, StallBreakdown, TenantStats, TrafficReport,
};
pub use par::{default_jobs, par_map, par_runs};
pub use pool::{BoardPool, MigratePolicy, MigrationTransfer, PlacementPolicy};
pub use sched::{LatencyPredictor, SchedKind, SchedPolicy, Scheduler};
pub use sim::{
    simulate, ConfigError, DispatchPolicy, HedgeKind, ServeConfig, ServeConfigBuilder, TrafficSim,
};
pub use tenant::{ArrivalProcess, Drift, TenantSpec};
pub use trace::{ChromeTraceWriter, FlightRecorder, NullSink, TraceSink};

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::datasets::Dataset;

    fn mixed_tenants(rate: f64) -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("feed", Dataset::Movie, rate),
            TenantSpec::new("search", Dataset::StackOverflow, rate),
            TenantSpec::new("papers", Dataset::Arxiv, rate),
        ]
    }

    #[test]
    fn same_seed_produces_identical_reports() {
        let cfg = ServeConfig::builder()
            .seed(42)
            .total_requests(2_000)
            .build()
            .unwrap();
        let a = simulate(mixed_tenants(25.0), cfg);
        let b = simulate(mixed_tenants(25.0), cfg);
        assert_eq!(a.trace_digest, b.trace_digest, "identical event traces");
        assert_eq!(a, b, "identical full reports");
    }

    #[test]
    fn different_seeds_produce_different_traces() {
        let mk = |seed| {
            let cfg = ServeConfig::builder()
                .seed(seed)
                .total_requests(1_000)
                .build()
                .unwrap();
            simulate(mixed_tenants(25.0), cfg)
        };
        assert_ne!(mk(1).trace_digest, mk(2).trace_digest);
    }

    #[test]
    fn every_offered_request_is_completed_or_dropped() {
        let cfg = ServeConfig::builder()
            .seed(3)
            .total_requests(3_000)
            .queue_capacity(4) // tiny queue under heavy load: forces drops
            .build()
            .unwrap();
        let report = simulate(mixed_tenants(200.0), cfg);
        assert_eq!(
            report.completed() + report.dropped(),
            3_000,
            "no request silently lost"
        );
        let outcomes = report.outcomes();
        assert_eq!(
            outcomes.arrival_terminal(),
            3_000,
            "every arrival reaches exactly one terminal outcome"
        );
        assert_eq!(
            outcomes.served,
            report.completed(),
            "no deadline: all on time"
        );
        assert_eq!(outcomes.served_late, 0);
        assert_eq!(outcomes.expired_in_queue, 0);
        assert_eq!(outcomes.aborted, 0);
        assert_eq!(outcomes.hedge_loser, 0, "hedging is off by default");
        assert!(report.dropped() > 0, "overload must surface as drops");
        assert!(report.queue_depth.max_depth() <= 4, "queue bound respected");
    }

    #[test]
    fn light_load_drops_nothing() {
        let cfg = ServeConfig::builder()
            .seed(4)
            .total_requests(300)
            .build()
            .unwrap();
        let report = simulate(mixed_tenants(0.5), cfg);
        assert_eq!(report.dropped(), 0);
        assert_eq!(report.completed(), 300);
        for t in &report.tenants {
            assert!(t.completed > 0, "{} saw no traffic", t.name);
            assert!(t.latency.quantile(0.5) > 0.0);
        }
    }

    #[test]
    fn reconfig_aware_reconfigures_strictly_less_on_mixed_traffic() {
        // Interaction (MV) vs social (SO) tenants prefer different
        // bitstreams; interleaved arrivals make FIFO thrash the ICAP.
        let mk = |policy| {
            let cfg = ServeConfig::builder()
                .seed(11)
                .total_requests(2_000)
                .policy(policy)
                .build()
                .unwrap();
            simulate(mixed_tenants(30.0), cfg)
        };
        let fifo = mk(DispatchPolicy::Fifo);
        let aware = mk(DispatchPolicy::reconfig_aware());
        assert!(
            fifo.reconfigs > 0,
            "mixed tenants must trigger reconfigurations under FIFO"
        );
        assert!(
            aware.reconfigs < fifo.reconfigs,
            "batching same-bitstream requests must save reconfigurations: \
             aware {} vs fifo {}",
            aware.reconfigs,
            fifo.reconfigs
        );
        assert_eq!(
            aware.completed() + aware.dropped(),
            fifo.completed() + fifo.dropped(),
            "both policies face the same offered load"
        );
    }

    #[test]
    fn single_tenant_reconfigures_at_most_once() {
        let tenants = vec![TenantSpec::new("only", Dataset::Movie, 10.0)];
        let report = simulate(
            tenants,
            ServeConfig::builder()
                .seed(5)
                .total_requests(500)
                .build()
                .unwrap(),
        );
        assert!(
            report.reconfigs <= 1,
            "a stable workload settles after one switch, saw {}",
            report.reconfigs
        );
        assert_eq!(report.completed(), 500);
    }

    #[test]
    fn report_printing_is_well_formed() {
        let report = simulate(
            mixed_tenants(5.0),
            ServeConfig::builder()
                .seed(6)
                .total_requests(200)
                .build()
                .unwrap(),
        );
        let text = report.to_string();
        assert!(text.contains("TOTAL"));
        assert!(text.contains("throughput"));
        for t in &report.tenants {
            assert!(text.contains(&t.name));
        }
    }

    #[test]
    fn pool_report_prints_per_board_lines() {
        let report = simulate(
            mixed_tenants(30.0),
            ServeConfig::builder()
                .seed(6)
                .total_requests(400)
                .boards(3)
                .build()
                .unwrap(),
        );
        let text = report.to_string();
        assert!(text.contains("board 0:"));
        assert!(text.contains("board 2:"));
        assert_eq!(report.boards.len(), 3);
    }

    #[test]
    fn board_completions_sum_to_total_for_every_placement() {
        for placement in [
            PlacementPolicy::TenantAffine,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::BitstreamAffine,
        ] {
            let report = simulate(
                mixed_tenants(60.0),
                ServeConfig::builder()
                    .seed(12)
                    .total_requests(1_500)
                    .boards(4)
                    .placement(placement)
                    .policy(DispatchPolicy::reconfig_aware())
                    .build()
                    .unwrap(),
            );
            let per_board: u64 = report.boards.iter().map(|b| b.completed).sum();
            assert_eq!(
                per_board,
                report.completed(),
                "{}: board counts must sum to the total",
                placement.name()
            );
            let per_board_reconfigs: u64 = report.boards.iter().map(|b| b.reconfigs).sum();
            assert_eq!(per_board_reconfigs, report.reconfigs);
        }
    }

    #[test]
    fn more_boards_never_serve_fewer_requests() {
        // Heavy load over a small queue: extra boards drain faster, so
        // completions are monotone in pool size on the same arrival trace.
        let mk = |boards| {
            let cfg = ServeConfig::builder()
                .seed(9)
                .total_requests(2_000)
                .queue_capacity(16)
                .boards(boards)
                .policy(DispatchPolicy::reconfig_aware())
                .placement(PlacementPolicy::BitstreamAffine)
                .build()
                .unwrap();
            simulate(mixed_tenants(120.0), cfg)
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(one.completed() + one.dropped(), 2_000);
        assert_eq!(four.completed() + four.dropped(), 2_000);
        assert!(
            four.completed() >= one.completed(),
            "4 boards {} vs 1 board {}",
            four.completed(),
            one.completed()
        );
    }

    #[test]
    fn tenant_affine_pins_every_tenant_to_its_home_board() {
        // 3 tenants on 3 boards: each board only ever sees one tenant's
        // bitstream, so after the initial switch no board reconfigures.
        let report = simulate(
            mixed_tenants(20.0),
            ServeConfig::builder()
                .seed(21)
                .total_requests(1_200)
                .boards(3)
                .placement(PlacementPolicy::TenantAffine)
                .build()
                .unwrap(),
        );
        assert_eq!(report.completed() + report.dropped(), 1_200);
        for (i, board) in report.boards.iter().enumerate() {
            assert!(
                board.reconfigs <= 1,
                "board {i} serves one tenant, saw {} reconfigs",
                board.reconfigs
            );
            assert_eq!(
                board.completed, report.tenants[i].completed,
                "board {i} serves exactly tenant {i}'s load"
            );
        }
    }

    #[test]
    fn serve_config_presets_share_one_base() {
        // The satellite fix: `Default` and the named presets delegate to
        // one base constructor, so knobs cannot silently diverge.
        assert_eq!(ServeConfig::default(), ServeConfig::base());
        let aware = ServeConfig::reconfig_aware();
        assert_eq!(aware.policy, DispatchPolicy::reconfig_aware());
        assert_eq!(
            ServeConfig {
                policy: ServeConfig::base().policy,
                ..aware
            },
            ServeConfig::base(),
            "reconfig_aware differs from base only in the dispatch policy"
        );
        let pipelined = ServeConfig::pipelined();
        assert!(pipelined.overlap);
        assert_eq!(
            ServeConfig {
                overlap: false,
                ..pipelined
            },
            aware,
            "pipelined differs from reconfig_aware only in overlap"
        );
        assert!(!ServeConfig::base().overlap, "serial is the default");
        assert_eq!(
            ServeConfig::builder().build().unwrap(),
            ServeConfig::default(),
            "an untouched builder produces the base config"
        );
        assert_eq!(
            pipelined.to_builder().build().unwrap(),
            pipelined,
            "to_builder round-trips a preset"
        );
    }

    #[test]
    fn builder_rejects_documented_incompatible_combos() {
        // Hedging re-offers work to a *second* board: a pool of one has
        // nowhere to hedge.
        assert_eq!(
            ServeConfig::builder().hedge(HedgeKind::latency()).build(),
            Err(ConfigError::HedgeNeedsPool { boards: 1 }),
        );
        // Hedging prices both legs at dispatch, which only the serial
        // lifecycle exposes.
        assert_eq!(
            ServeConfig::builder()
                .boards(2)
                .overlap(true)
                .hedge(HedgeKind::latency())
                .build(),
            Err(ConfigError::HedgeNeedsSerial),
        );
        assert_eq!(
            ServeConfig::builder().default_deadline_secs(0.0).build(),
            Err(ConfigError::NonPositiveDeadline { secs: 0.0 }),
        );
        assert_eq!(
            ServeConfig::builder()
                .boards(2)
                .hedge(HedgeKind::Latency { factor: -1.0 })
                .build(),
            Err(ConfigError::NonPositiveHedgeFactor { factor: -1.0 }),
        );
        // Each error renders a human-readable explanation.
        let err = ServeConfig::builder()
            .hedge(HedgeKind::latency())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("2 boards"), "{err}");
        // The valid combo builds.
        let cfg = ServeConfig::builder()
            .boards(2)
            .hedge(HedgeKind::latency())
            .default_deadline_secs(2.0)
            .build()
            .unwrap();
        assert_eq!(cfg.hedge, HedgeKind::Latency { factor: 1.0 });
        assert_eq!(cfg.default_deadline_secs, Some(2.0));
    }

    #[test]
    fn builder_rejects_zero_boards() {
        assert_eq!(
            ServeConfig::builder().boards(0).build(),
            Err(ConfigError::ZeroBoards)
        );
    }

    #[test]
    fn builder_rejects_zero_queue_capacity() {
        assert_eq!(
            ServeConfig::builder().queue_capacity(0).build(),
            Err(ConfigError::ZeroQueueCapacity)
        );
    }

    #[test]
    fn builder_rejects_zero_compute_speedup() {
        assert_eq!(
            ServeConfig::builder().compute_speedup(0.0).build(),
            Err(ConfigError::NonPositiveSpeedup { speedup: 0.0 })
        );
    }

    #[test]
    fn builder_rejects_negative_compute_speedup() {
        assert_eq!(
            ServeConfig::builder().compute_speedup(-2.0).build(),
            Err(ConfigError::NonPositiveSpeedup { speedup: -2.0 })
        );
    }

    #[test]
    fn builder_rejects_nan_compute_speedup() {
        let err = ServeConfig::builder()
            .compute_speedup(f64::NAN)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ConfigError::NonPositiveSpeedup { speedup } if speedup.is_nan()),
            "{err:?}"
        );
    }

    #[test]
    fn builder_rejects_infinite_compute_speedup() {
        assert_eq!(
            ServeConfig::builder()
                .compute_speedup(f64::INFINITY)
                .build(),
            Err(ConfigError::NonPositiveSpeedup {
                speedup: f64::INFINITY
            })
        );
    }

    /// A hand-assembled literal skips the builder, but `TrafficSim::new`
    /// re-validates and names the error instead of failing deep inside
    /// the pool.
    #[test]
    #[should_panic(expected = "invalid ServeConfig: the board pool needs at least one board")]
    fn sim_rejects_a_literal_with_zero_boards() {
        let cfg = ServeConfig {
            boards: 0,
            ..ServeConfig::base()
        };
        TrafficSim::new(mixed_tenants(1.0), cfg);
    }

    #[test]
    fn pipelined_mode_conserves_requests_and_overlaps() {
        let mk = |overlap| {
            let cfg = ServeConfig::reconfig_aware()
                .to_builder()
                .seed(14)
                .total_requests(2_000)
                .boards(2)
                .overlap(overlap)
                .build()
                .unwrap();
            simulate(mixed_tenants(60.0), cfg)
        };
        let serial = mk(false);
        let pipelined = mk(true);
        assert_eq!(
            pipelined.completed() + pipelined.dropped(),
            2_000,
            "pipelined mode loses no request"
        );
        assert_eq!(serial.completed() + serial.dropped(), 2_000);
        assert_eq!(serial.overlap_secs, 0.0, "serial never overlaps");
        assert_eq!(serial.dma_secs(), 0.0, "serial folds DMA into busy time");
        assert!(
            pipelined.dma_secs() > 0.0,
            "pipelined runs charge the DMA clock"
        );
        assert!(pipelined.overlap_secs >= 0.0);
        assert!(pipelined.pipeline_overlap_ratio() <= 1.0);
        // Per-stage histograms cover every completion in both modes.
        for r in [&serial, &pipelined] {
            assert_eq!(r.stages.ingest.count(), r.completed());
            assert_eq!(r.stages.preprocess.count(), r.completed());
            assert_eq!(r.stages.compute.count(), r.completed());
        }
    }

    #[test]
    fn request_log_is_off_by_default_and_complete_when_on() {
        let cfg = ServeConfig::builder()
            .seed(8)
            .total_requests(400)
            .build()
            .unwrap();
        let silent = simulate(mixed_tenants(10.0), cfg);
        assert!(silent.requests.is_empty(), "logging is opt-in");
        let logged = simulate(
            mixed_tenants(10.0),
            cfg.to_builder().log_requests(true).build().unwrap(),
        );
        assert_eq!(logged.requests.len() as u64, logged.completed());
        for r in &logged.requests {
            assert!(r.latency.total() > 0.0);
        }
    }

    #[test]
    fn rerunning_one_simulator_is_deterministic() {
        let cfg = ServeConfig::builder()
            .seed(33)
            .total_requests(800)
            .boards(2)
            .placement(PlacementPolicy::BitstreamAffine)
            .policy(DispatchPolicy::reconfig_aware())
            .build()
            .unwrap();
        let mut sim = TrafficSim::new(mixed_tenants(40.0), cfg);
        let a = sim.run();
        let b = sim.run();
        assert_eq!(a, b, "the pool resets between runs");
    }
}
