//! The admission/dispatch scheduler.
//!
//! PR 1–4 baked the admission queue into the simulator as a single
//! FIFO-bounded `VecDeque`: one bursty tenant could fill the shared queue
//! and starve everyone else, and every dispatch paid whatever
//! reconfiguration the cost model asked for. This module extracts that
//! core into one concrete [`Scheduler`] owning the three decisions the
//! event loop delegates:
//!
//! - **enqueue/drop** ([`Scheduler::admit`]) — whether an arriving
//!   request is queued or refused (per-tenant quotas live here);
//! - **pick order** ([`Scheduler::scan`] / [`Scheduler::take`]) — the
//!   order in which queued requests are offered to placement/dispatch;
//! - **reconfiguration gating** ([`Scheduler::allow_reconfig`]) —
//!   whether a dispatch may pay an ICAP stall right now.
//!
//! A scheduler is a queue plus an optional gate. The queue is one of:
//!
//! - [`queue::Fifo`] — the pre-refactor scheduler, **bit-for-bit**: one
//!   bounded queue in arrival order, drop on overflow. Every golden trace
//!   digest pinned in `tests/serve_traffic.rs` is reproduced exactly (the
//!   *Fifo-equivalence invariant* — see below).
//! - [`wfq::WeightedFair`] — deficit-round-robin over per-tenant queues
//!   with per-tenant weights ([`crate::tenant::TenantSpec::weight`]) and
//!   a per-tenant quota, under a bounded aggregate depth. A bursty
//!   aggressor can only ever occupy its quota and its weight's share of
//!   service; victims keep their latency.
//!
//! [`SchedKind::SloAware`] is a `Fifo` queue plus an [`slo::SloGate`]: a
//! dispatch may only trigger a bitstream reconfiguration when the
//! tenant's predicted p99 (EWMA mean + z·stddev, queueing included)
//! exceeds its SLO budget, so steady within-budget traffic stops paying
//! ICAP stalls. The gate holds only the budgets; the prediction is the
//! run's one [`LatencyPredictor`], which the hedge trigger reads too.
//! The other kinds carry no gate and never withhold a reconfiguration.
//!
//! # The Fifo-equivalence invariant
//!
//! [`SchedKind::Fifo`] must schedule **identically** to the pre-refactor
//! `VecDeque` path: same admissions, same drops, same scan order offered
//! to `select_dispatch`, every reconfiguration allowed. Under `Fifo`
//! each [`Scheduler`] method maps one-to-one onto the old queue op
//! (admit = bounded `push_back`, scan = the queue itself, take =
//! `remove`) and there is no gate — which is why the PR 1–4 golden
//! digests (and the CI perf baselines) survive the extraction unchanged.
//!
//! # Tracing the scheduler's share of latency
//!
//! The queue-wait interval this module controls — [`Scheduler::admit`]
//! to [`Scheduler::take`] — is exactly the queue span the event loop
//! emits into a [`crate::trace::TraceSink`]
//! ([`crate::trace::SpanKind::Queue`] on [`crate::trace::Track::Queue`],
//! emitted by `sim.rs` at dispatch), and the `queue_secs` component of
//! the report's stall attribution ([`crate::metrics::StallBreakdown`]).
//! Comparing that component across [`SchedKind`]s is how "the scheduler
//! is (not) the bottleneck" is read off a report.
//!
//! # Scan/take contract
//!
//! [`Scheduler::scan`] returns the queued requests in the queue's offer
//! order; [`Scheduler::take`] removes by *scan position* and must be
//! called before any other mutation invalidates the mapping (the event
//! loop always scans and takes back to back). Position 0 is the request
//! the scheduler most wants served; a dispatch policy that picks a later
//! position (reconfig-aware batching) is overriding the scheduler, and
//! the queue accounts for it (WFQ charges the tenant's deficit).

pub mod predictor;
pub mod queue;
pub mod slo;
pub mod wfq;

use crate::tenant::TenantSpec;

pub use predictor::LatencyPredictor;
pub use queue::Fifo;
pub use slo::SloGate;
pub use wfq::WeightedFair;

/// One admitted request waiting for dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Tenant index (declaration order).
    pub tenant: usize,
    /// Arrival time in simulated seconds.
    pub arrival_secs: f64,
}

/// Which scheduler a simulation runs — the `Copy` configuration form of
/// a [`Scheduler`] ([`SchedKind::instantiate`] builds one).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SchedKind {
    /// The pre-refactor bounded FIFO queue, bit-for-bit (the
    /// Fifo-equivalence invariant pins every golden trace digest).
    #[default]
    Fifo,
    /// Deficit-round-robin weighted fair queueing over per-tenant queues
    /// (weights from [`TenantSpec::weight`]), each tenant bounded by
    /// `per_tenant_quota` inside the aggregate queue capacity.
    WeightedFair {
        /// Most requests one tenant may hold queued; arrivals beyond it
        /// are dropped *for that tenant only* — a burst cannot evict
        /// other tenants' backlog.
        per_tenant_quota: usize,
    },
    /// FIFO order plus SLO-driven reconfiguration gating: a dispatch may
    /// only reprogram the fabric when the tenant's predicted p99 (latency
    /// EWMA + z·stddev) exceeds its SLO budget
    /// ([`TenantSpec::slo_secs`], falling back to `default_slo_secs`).
    SloAware {
        /// SLO budget for tenants that do not declare their own.
        default_slo_secs: f64,
    },
}

/// The admission/dispatch scheduler: a queue deciding admission and
/// offer order, plus an optional SLO gate on reconfigurations (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct Scheduler {
    queue: Queue,
    /// The reconfiguration gate; `None` allows every reconfiguration.
    gate: Option<SloGate>,
}

/// The queue a [`Scheduler`] runs, as a closed enum so the hot dispatch
/// loop's `admit`/`scan`/`take`/`len` calls are a jump table the
/// compiler can inline through, never an indirect call. The fair queue's
/// scan buffers are boxed to keep the FIFO variant small.
#[derive(Debug)]
enum Queue {
    Fifo(Fifo),
    WeightedFair(Box<WeightedFair>),
}

impl Scheduler {
    /// Offers an arriving request; `false` means it is dropped (queue
    /// full, or the tenant's quota exhausted) — the caller accounts the
    /// drop.
    #[inline]
    pub fn admit(&mut self, request: Request) -> bool {
        match &mut self.queue {
            Queue::Fifo(q) => q.admit(request),
            Queue::WeightedFair(q) => q.admit(request),
        }
    }

    /// Number of queued requests.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.queue {
            Queue::Fifo(q) => q.len(),
            Queue::WeightedFair(q) => q.len(),
        }
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queued requests in offer order (position 0 is the scheduler's
    /// preferred next pick). Valid until the next mutation.
    #[inline]
    pub fn scan(&mut self) -> &[Request] {
        match &mut self.queue {
            Queue::Fifo(q) => q.scan(),
            Queue::WeightedFair(q) => q.scan(),
        }
    }

    /// Removes and returns the request at `position` of the **most
    /// recent** [`scan`](Self::scan) order.
    #[inline]
    pub fn take(&mut self, position: usize) -> Request {
        match &mut self.queue {
            Queue::Fifo(q) => q.take(position),
            Queue::WeightedFair(q) => q.take(position),
        }
    }

    /// Removes every queued request whose deadline has passed —
    /// `now - arrival_secs > deadlines[tenant]`, where `deadlines` is
    /// indexed by tenant and `None` entries never expire — appending
    /// them to `expired` (reused across calls so the hot loop never
    /// allocates). Queue bookkeeping matches a hypothetical take of each
    /// dead request **without charging service** for it: an expired
    /// request consumed nothing, so a WFQ tenant's deficit is untouched
    /// unless the expiry drains its queue (which resets it, like any
    /// drain). The event loop only calls this when some tenant actually
    /// carries a deadline, so deadline-free runs never touch the path —
    /// the deadline Off-equivalence invariant.
    #[inline]
    pub fn expire(&mut self, now: f64, deadlines: &[Option<f64>], expired: &mut Vec<Request>) {
        match &mut self.queue {
            Queue::Fifo(q) => q.expire(now, deadlines, expired),
            Queue::WeightedFair(q) => q.expire(now, deadlines, expired),
        }
    }

    /// True when the scheduler gates reconfigurations, and so needs the
    /// run's latency predictor fed.
    pub fn gated(&self) -> bool {
        self.gate.is_some()
    }

    /// Whether a dispatch for `tenant` may pay a bitstream
    /// reconfiguration right now, judged on `predictor`. Without a gate
    /// every reconfiguration is allowed — the pre-refactor behavior.
    #[inline]
    pub fn allow_reconfig(&self, tenant: usize, predictor: &LatencyPredictor) -> bool {
        self.gate
            .as_ref()
            .is_none_or(|gate| gate.allows(tenant, predictor))
    }
}

impl SchedKind {
    /// The weighted-fair preset: a 64-request per-tenant quota — deep
    /// enough to absorb a diurnal swell, shallow enough that one tenant
    /// can never own a 512-deep aggregate queue.
    pub fn weighted_fair() -> Self {
        SchedKind::WeightedFair {
            per_tenant_quota: 64,
        }
    }

    /// The SLO-aware preset: a 1-second default p99 budget (interactive
    /// serving; tenants override via [`TenantSpec::slo_secs`]).
    pub fn slo_aware() -> Self {
        SchedKind::SloAware {
            default_slo_secs: 1.0,
        }
    }

    /// Stable lowercase identifier used in reports and benchmark IDs.
    pub fn name(&self) -> &'static str {
        match self {
            SchedKind::Fifo => "fifo",
            SchedKind::WeightedFair { .. } => "wfq",
            SchedKind::SloAware { .. } => "slo",
        }
    }

    /// Instantiates the scheduler for a deployment of `tenants` under an
    /// aggregate queue bound of `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, a weighted-fair quota is zero, or a
    /// tenant weight / SLO budget is not positive and finite.
    pub fn instantiate(&self, tenants: &[TenantSpec], capacity: usize) -> Scheduler {
        assert!(capacity > 0, "queue capacity must be positive");
        let (queue, gate) = match *self {
            SchedKind::Fifo => (Queue::Fifo(Fifo::new(capacity)), None),
            SchedKind::WeightedFair { per_tenant_quota } => (
                Queue::WeightedFair(Box::new(WeightedFair::new(
                    tenants.iter().map(|t| t.weight).collect(),
                    capacity,
                    per_tenant_quota,
                ))),
                None,
            ),
            SchedKind::SloAware { default_slo_secs } => (
                Queue::Fifo(Fifo::new(capacity)),
                Some(SloGate::new(
                    tenants
                        .iter()
                        .map(|t| t.slo_secs.unwrap_or(default_slo_secs))
                        .collect(),
                )),
            ),
        };
        Scheduler { queue, gate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::datasets::Dataset;

    fn tenants(n: usize) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| TenantSpec::new(format!("t{i}"), Dataset::Movie, 1.0))
            .collect()
    }

    #[test]
    fn kind_names_and_presets_are_stable() {
        assert_eq!(SchedKind::default(), SchedKind::Fifo);
        assert_eq!(SchedKind::Fifo.name(), "fifo");
        assert_eq!(SchedKind::weighted_fair().name(), "wfq");
        assert_eq!(SchedKind::slo_aware().name(), "slo");
        assert_eq!(
            SchedKind::weighted_fair(),
            SchedKind::WeightedFair {
                per_tenant_quota: 64
            }
        );
        assert_eq!(
            SchedKind::slo_aware(),
            SchedKind::SloAware {
                default_slo_secs: 1.0
            }
        );
    }

    #[test]
    fn build_instantiates_each_policy() {
        let ts = tenants(3);
        for kind in [
            SchedKind::Fifo,
            SchedKind::weighted_fair(),
            SchedKind::slo_aware(),
        ] {
            let mut sched = kind.instantiate(&ts, 8);
            assert_eq!(sched.gated(), matches!(kind, SchedKind::SloAware { .. }));
            assert!(sched.is_empty());
            assert!(sched.admit(Request {
                tenant: 0,
                arrival_secs: 0.0
            }));
            assert_eq!(sched.len(), 1);
            assert_eq!(sched.scan().len(), 1);
            let rq = sched.take(0);
            assert_eq!(rq.tenant, 0);
            assert!(sched.is_empty());
        }
    }

    #[test]
    fn ungated_schedulers_never_withhold_reconfigurations() {
        // A warm, comfortably-within-budget tenant: the SLO gate would
        // close, but FIFO and WFQ carry no gate.
        let mut predictor = LatencyPredictor::new(8);
        for _ in 0..50 {
            predictor.observe(0, 0.01);
        }
        for kind in [SchedKind::Fifo, SchedKind::weighted_fair()] {
            let sched = kind.instantiate(&tenants(8), 1);
            assert!(sched.allow_reconfig(0, &predictor), "{}", kind.name());
            assert!(sched.allow_reconfig(7, &predictor), "{}", kind.name());
        }
        let slo = SchedKind::slo_aware().instantiate(&tenants(8), 1);
        assert!(!slo.allow_reconfig(0, &predictor));
        assert!(slo.allow_reconfig(7, &predictor), "cold tenant passes");
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_is_rejected() {
        SchedKind::Fifo.instantiate(&tenants(1), 0);
    }
}
