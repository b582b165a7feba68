//! The serving-stack workloads: open-loop traffic through `TrafficSim`
//! over a board pool. One run replays a fixed number of simulated
//! requests, so every simulated figure depends on the seed alone; the
//! replay repeats until the time budget is spent and host times are
//! those of the fastest replay.

use std::hint::black_box;
use std::time::Instant;

use agnn_bench::million;
use agnn_core::runtime::AutoGnn;
use agnn_serve::trace::{CounterSample, Span, SpanKind, TraceSink};
use agnn_serve::{ServeConfig, TenantSpec, TrafficReport, TrafficSim};

use crate::report::{fastest, median, nearest_rank, peak_rss_mb, secs, spread, Checks, Report};

/// Set-ups timed before each replay; `setup_s` is the median over all
/// of them. Spreading set-ups across the run keeps a microsecond-scale
/// figure from reading one moment's host speed.
const SETUP_REPS: usize = 21;
/// Calls per tenant when timing one cost-model call.
const PRICE_CALLS: usize = 2_000;

/// The inputs of one serve workload: tenants plus configuration.
pub struct Deployment {
    pub tenants: Vec<TenantSpec>,
    pub config: ServeConfig,
}

/// A serve workload: how to build its deployment at a request count.
pub struct ServeWorkload {
    pub build: fn(seed: u64, requests: u64) -> Deployment,
    pub requests: u64,
}

/// The `million_requests` deployment: six diurnal Taobao regions on four
/// pipelined boards with peer-to-peer rehydration.
pub fn replay_migration(seed: u64, requests: u64) -> Deployment {
    Deployment {
        tenants: million::tenants(),
        config: million::config(seed, requests),
    }
}

/// A trace sink that only counts what it receives.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Spans per [`SpanKind`], indexed by [`SPAN_KINDS`] position.
    pub spans: [u64; SPAN_KINDS.len()],
    pub counters: u64,
}

/// Every span kind, in report order.
pub const SPAN_KINDS: [SpanKind; 7] = [
    SpanKind::Queue,
    SpanKind::Reconfig,
    SpanKind::Ingest,
    SpanKind::Preprocess,
    SpanKind::Handoff,
    SpanKind::MigrateOut,
    SpanKind::Cancelled,
];

impl TraceSink for CountingSink {
    fn span(&mut self, span: Span) {
        let i = SPAN_KINDS
            .iter()
            .position(|k| *k == span.kind)
            .expect("every span kind is listed");
        self.spans[i] += 1;
    }

    fn counter(&mut self, _sample: CounterSample) {
        self.counters += 1;
    }
}

/// Checks that the arrival-terminal outcomes partition the offered
/// requests.
pub fn check_partition(checks: &mut Checks, report: &TrafficReport, offered: u64) {
    let terminal = report.outcomes().arrival_terminal();
    checks.check(terminal == offered, || {
        format!("outcome partition sums to {terminal} of {offered} offered requests")
    });
}

/// Checks the hedge-loser outcome count against the hedges the trace
/// narrated: every `Cancelled` span is an in-queue expiry, a stage abort
/// or a cancelled hedge leg.
pub fn check_hedges(checks: &mut Checks, report: &TrafficReport, sink: &CountingSink) {
    let cancelled = sink.spans[SPAN_KINDS
        .iter()
        .position(|k| *k == SpanKind::Cancelled)
        .expect("cancelled is listed")];
    let traced_hedges = cancelled
        .checked_sub(report.expired_in_queue() + report.aborted())
        .unwrap_or(u64::MAX);
    let hedge_loser = report.outcomes().hedge_loser;
    checks.check(hedge_loser == traced_hedges, || {
        format!("hedge_loser {hedge_loser} != {traced_hedges} hedges in the trace")
    });
}

/// Checks that a replay reproduced the first run's schedule.
pub fn check_same_digest(checks: &mut Checks, what: &str, first: u64, again: u64) {
    checks.check(first == again, || {
        format!("{what} trace_digest {again:016x} != {first:016x}")
    });
}

/// Builds the simulator [`SETUP_REPS`] times, recording each set-up
/// and its `TrafficSim::new` share, and returns the last one.
fn set_up(
    workload: &ServeWorkload,
    seed: u64,
    setup_secs: &mut Vec<f64>,
    new_secs: &mut Vec<f64>,
) -> TrafficSim {
    let mut sim = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let deployment = (workload.build)(seed, workload.requests);
        let new_started = Instant::now();
        let built = TrafficSim::new(deployment.tenants, deployment.config);
        new_secs.push(secs(new_started.elapsed()));
        setup_secs.push(secs(started.elapsed()));
        sim = Some(built);
    }
    sim.expect("at least one set-up")
}

/// Runs one serve workload for about `seconds` of host time.
pub fn run(workload: &ServeWorkload, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let offered = workload.requests;

    let mut setup_secs = Vec::new();
    let mut new_secs = Vec::new();
    let mut sim = set_up(workload, seed, &mut setup_secs, &mut new_secs);

    // Repeat the replay on the same simulator until the budget is spent,
    // at least twice so the replay digest is checked; the first report is
    // kept. The set-up is measured again between replays and the copies
    // dropped, so `setup_s` spans the run.
    let mut first: Option<TrafficReport> = None;
    let mut run_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut sink_counts = None;
    let started = Instant::now();
    while run_secs.len() < 2 || secs(started.elapsed()) < seconds {
        if !run_secs.is_empty() {
            drop(set_up(workload, seed, &mut setup_secs, &mut new_secs));
        }
        let t0 = Instant::now();
        let r = black_box(sim.run());
        run_secs.push(secs(t0.elapsed()));
        if traced {
            let mut sink = CountingSink::default();
            let t0 = Instant::now();
            let t = black_box(sim.run_traced(&mut sink));
            traced_secs.push(secs(t0.elapsed()));
            check_same_digest(
                &mut report.checks,
                "traced run",
                r.trace_digest,
                t.trace_digest,
            );
            check_hedges(&mut report.checks, &t, &sink);
            sink_counts.get_or_insert(sink);
        }
        match &first {
            None => {
                check_partition(&mut report.checks, &r, offered);
                first = Some(r);
            }
            Some(f) => check_same_digest(
                &mut report.checks,
                "repeated run",
                f.trace_digest,
                r.trace_digest,
            ),
        }
    }
    let first = first.expect("at least one run");
    let outcomes = first.outcomes();
    report.note(format!(
        "trace_digest {:016x}  ({} requests, {} events)",
        first.trace_digest, offered, first.sim.events
    ));
    report.note(format!(
        "replay host seconds over {} runs: {}",
        run_secs.len(),
        spread(&run_secs)
    ));

    if !traced {
        let run_s = fastest(&run_secs);
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        let latencies = logged_latencies(&mut report.checks, workload, seed, &first);
        report.note(format!(
            "sim latency samples n={} (p50, p99); outcomes: served {} late {} expired {} aborted {} dropped {}",
            latencies.len(),
            outcomes.served,
            outcomes.served_late,
            outcomes.expired_in_queue,
            outcomes.aborted,
            outcomes.dropped_at_admission
        ));
        report.metric("requests_per_s", offered as f64 / run_s, "1/s");
        report.metric(
            "ns_per_event",
            run_s * 1e9 / first.sim.events.max(1) as f64,
            "ns",
        );
        report.metric("setup_s", median(&setup_secs), "s");
        report.metric("sim_p50_s", nearest_rank(&latencies, 0.50), "s");
        report.metric("sim_p99_s", nearest_rank(&latencies, 0.99), "s");
        report.metric(
            "sim_served_frac",
            outcomes.served as f64 / outcomes.arrival_terminal().max(1) as f64,
            "fraction",
        );
        return report;
    }

    let deployment = (workload.build)(seed, offered);
    let sink = sink_counts.expect("traced runs ran");
    layer_metrics(&mut report, &first, &deployment, &sink);
    report.metric("sim.run_s", fastest(&run_secs), "s");
    report.metric("sim.new_s", median(&new_secs), "s");
    report.metric(
        "trace.overhead_s",
        fastest(&traced_secs) - fastest(&run_secs),
        "s",
    );
    report
}

/// The exact end-to-end latency of every completed request, from a
/// replay of `first` with the request log on. The histogram the report
/// carries rounds quantiles up to its bucket edges, which would hide a
/// change smaller than a bucket. The replay runs after the timed phase
/// and after the peak resident set is read, so the log's memory counts
/// against neither.
fn logged_latencies(
    checks: &mut Checks,
    workload: &ServeWorkload,
    seed: u64,
    first: &TrafficReport,
) -> Vec<f64> {
    let deployment = (workload.build)(seed, workload.requests);
    let config = ServeConfig {
        log_requests: true,
        ..deployment.config
    };
    let logged = TrafficSim::new(deployment.tenants, config).run();
    check_same_digest(
        checks,
        "logged run",
        first.trace_digest,
        logged.trace_digest,
    );
    let latencies: Vec<f64> = logged.requests.iter().map(|r| r.latency.total()).collect();
    checks.check(latencies.len() as u64 == first.completed(), || {
        format!(
            "request log holds {} of {} completions",
            latencies.len(),
            first.completed()
        )
    });
    latencies
}

/// The per-layer metrics of one serve run, read from the report and
/// from timing each layer's public entry points on the run's inputs.
fn layer_metrics(
    report: &mut Report,
    first: &TrafficReport,
    deployment: &Deployment,
    sink: &CountingSink,
) {
    let cfg = deployment.config;
    let offered = cfg.total_requests;
    let events = first.sim.events;
    report.metric("engine.events", events as f64, "count");
    report.metric(
        "engine.events_per_request",
        events as f64 / offered.max(1) as f64,
        "count",
    );

    // Arrival generation: each tenant's process drawn as often as the
    // run drew it, from the run's per-tenant streams.
    let mut draws = 0u64;
    let t0 = Instant::now();
    for (i, (tenant, stats)) in deployment.tenants.iter().zip(&first.tenants).enumerate() {
        let mut rng = tenant.arrival_rng(cfg.seed, i);
        let mut now = 0.0;
        for _ in 0..stats.arrivals() {
            now = tenant.arrival.next_after(now, &mut rng);
        }
        black_box(now);
        draws += stats.arrivals();
    }
    report.metric(
        "arrivals.draw_ns",
        secs(t0.elapsed()) * 1e9 / draws.max(1) as f64,
        "ns",
    );

    let duration = first.duration_secs;
    let completed = first.completed();
    report.metric(
        "sched.queue_depth_mean",
        first.queue_depth.mean_depth(duration),
        "count",
    );
    report.metric(
        "sched.queue_depth_max",
        first.queue_depth.max_depth() as f64,
        "count",
    );
    report.metric("sched.expired", first.expired_in_queue() as f64, "count");
    report.metric("sched.dropped", first.dropped() as f64, "count");
    report.metric(
        "sched.queue_wait_mean_s",
        first.stall.queue_secs / completed.max(1) as f64,
        "s",
    );

    let busy: f64 = first.boards.iter().map(|b| b.busy_secs).sum();
    report.metric("pool.reconfigs", first.reconfigs as f64, "count");
    report.metric("pool.reconfig_s", first.reconfig_secs, "s");
    report.metric("pool.migrations", first.migrations() as f64, "count");
    report.metric("pool.evictions", first.evictions() as f64, "count");
    report.metric("pool.host_bytes", first.host_upload_bytes() as f64, "bytes");
    report.metric("pool.switch_bytes", first.switch_bytes() as f64, "bytes");
    report.metric(
        "pool.busy_frac",
        busy / (first.pool_size() as f64 * duration).max(f64::MIN_POSITIVE),
        "fraction",
    );
    report.metric("pool.dma_s", first.dma_secs(), "s");
    report.metric("pool.fabric_s", first.stall.fabric_secs, "s");
    report.metric("pool.handoff_s", first.stall.handoff_secs, "s");

    // Cost pricing: each tenant's day-0 workload priced and previewed on
    // a fresh board, as the pool does on a cache miss.
    let board = AutoGnn::new(deployment.tenants[0].params);
    let workloads: Vec<_> = deployment
        .tenants
        .iter()
        .map(|t| t.workload_at(0.0, cfg.drift_step_secs))
        .collect();
    let t0 = Instant::now();
    for _ in 0..PRICE_CALLS {
        for w in &workloads {
            black_box(board.analytic_service_secs(black_box(w), 0));
        }
    }
    let calls = (PRICE_CALLS * workloads.len()) as f64;
    report.metric("cost.price_ns", secs(t0.elapsed()) * 1e9 / calls, "ns");
    let t0 = Instant::now();
    for w in &workloads {
        black_box(board.preview(black_box(w)));
    }
    report.metric(
        "cost.preview_s",
        secs(t0.elapsed()) / workloads.len() as f64,
        "s",
    );
    report.metric("cost.reconfigs", first.reconfigs as f64, "count");

    for (kind, count) in SPAN_KINDS.iter().zip(sink.spans) {
        report.metric(
            format!("trace.spans.{}", kind.name()),
            count as f64,
            "count",
        );
    }
    report.metric("trace.counters", sink.counters as f64, "count");

    let t0 = Instant::now();
    let json = black_box(first.to_json());
    report.metric("metrics.to_json_s", secs(t0.elapsed()), "s");
    drop(json);
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_serve::SchedKind;

    /// A bursty aggressor over two victims with 2-second deadlines in
    /// front of two serial boards behind a deep FIFO queue: requests
    /// expire in the queue, so the checks meet expiry's `Cancelled` spans.
    fn deadline_deepqueue(seed: u64, requests: u64) -> Deployment {
        let mut tenants = TenantSpec::bursty_aggressor(2.0, 30.0, 900.0);
        for victim in tenants.iter_mut().filter(|t| t.name.starts_with("victim")) {
            victim.deadline_secs = Some(2.0);
        }
        let config = ServeConfig::reconfig_aware()
            .to_builder()
            .seed(seed)
            .total_requests(requests)
            .boards(2)
            .scheduler(SchedKind::Fifo)
            .queue_capacity(32_768)
            .build()
            .expect("deadline_deepqueue config is valid");
        Deployment { tenants, config }
    }

    fn small_report() -> TrafficReport {
        let d = deadline_deepqueue(7, 400);
        TrafficSim::new(d.tenants, d.config).run()
    }

    #[test]
    fn a_clean_report_passes_every_check() {
        let mut checks = Checks::default();
        let d = deadline_deepqueue(7, 400);
        let mut sim = TrafficSim::new(d.tenants, d.config);
        let mut sink = CountingSink::default();
        let r = sim.run_traced(&mut sink);
        check_partition(&mut checks, &r, 400);
        check_hedges(&mut checks, &r, &sink);
        check_same_digest(
            &mut checks,
            "again",
            r.trace_digest,
            small_report().trace_digest,
        );
        assert_eq!(checks.failed(), 0, "{:?}", checks.failures());
    }

    #[test]
    fn a_lost_request_trips_the_partition_check() {
        let mut checks = Checks::default();
        let mut r = small_report();
        r.tenants[0].outcomes.served -= 1;
        check_partition(&mut checks, &r, 400);
        assert_eq!(checks.failed(), 1);
    }

    #[test]
    fn an_unpaired_hedge_loser_trips_the_hedge_check() {
        let d = deadline_deepqueue(7, 400);
        let mut sim = TrafficSim::new(d.tenants, d.config);
        let mut sink = CountingSink::default();
        let mut r = sim.run_traced(&mut sink);
        r.tenants[1].outcomes.hedge_loser += 1;
        let mut checks = Checks::default();
        check_hedges(&mut checks, &r, &sink);
        assert_eq!(checks.failed(), 1);
    }

    #[test]
    fn a_changed_schedule_trips_the_digest_check() {
        let mut checks = Checks::default();
        let r = small_report();
        let d = deadline_deepqueue(8, 400);
        let other = TrafficSim::new(d.tenants, d.config).run();
        check_same_digest(&mut checks, "again", r.trace_digest, other.trace_digest);
        assert_eq!(checks.failed(), 1);
    }

    #[test]
    fn the_counting_sink_sees_every_traced_span() {
        let d = replay_migration(3, 300);
        let mut sim = TrafficSim::new(d.tenants, d.config);
        let mut sink = CountingSink::default();
        let traced = sim.run_traced(&mut sink);
        assert_eq!(traced.trace_digest, sim.run().trace_digest);
        let queue = sink.spans[0];
        assert_eq!(queue, traced.completed(), "one queue span per dispatch");
        assert!(sink.counters > 0);
    }
}
