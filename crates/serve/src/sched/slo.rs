//! The SLO-driven reconfiguration gate.

use super::predictor::LatencyPredictor;

/// Per-tenant p99 budgets gating reconfigurations: a dispatch may only
/// pay an ICAP stall when the tenant's **predicted p99** — an
/// exponentially weighted mean of its end-to-end latency (queueing
/// included, so a building backlog raises the prediction) plus
/// [`super::predictor::Z_P99`] weighted deviations — exceeds its SLO
/// budget. The prediction comes from the run's [`LatencyPredictor`], the
/// same estimator the simulator's hedged dispatch consults.
///
/// The cost model's per-request gain threshold keeps firing on every
/// drift step even when tenants are comfortably inside their SLOs; this
/// gate converts those stalls into headroom: while every tenant's
/// predicted tail clears its budget, boards keep serving on whatever
/// bitstream they hold, and the fabric reprograms only when a tenant is
/// actually about to miss. [`super::SchedKind::SloAware`] pairs it with a
/// [`super::Fifo`] queue, so any schedule difference from plain FIFO
/// comes from the gate alone.
///
/// A tenant with no completed request yet always passes the gate — a cold
/// deployment must be allowed its first configuration.
#[derive(Debug)]
pub struct SloGate {
    /// Effective per-tenant p99 budget in seconds.
    budgets: Vec<f64>,
}

impl SloGate {
    /// A gate for tenants with the given p99 `budgets` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty or any budget is not positive and
    /// finite.
    pub fn new(budgets: Vec<f64>) -> Self {
        assert!(!budgets.is_empty(), "need at least one tenant budget");
        assert!(
            budgets.iter().all(|b| *b > 0.0 && b.is_finite()),
            "SLO budgets must be positive and finite"
        );
        SloGate { budgets }
    }

    /// Whether `tenant` may pay a reconfiguration: it is cold, or its
    /// predicted p99 exceeds its budget.
    pub fn allows(&self, tenant: usize, predictor: &LatencyPredictor) -> bool {
        !predictor.is_warm(tenant) || predictor.predicted_p99(tenant) > self.budgets[tenant]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_tenants_always_pass_the_gate() {
        let gate = SloGate::new(vec![1.0, 1.0]);
        let p = LatencyPredictor::new(2);
        assert!(gate.allows(0, &p));
        assert_eq!(p.predicted_p99(0), 0.0);
    }

    #[test]
    fn within_budget_traffic_closes_the_gate() {
        let gate = SloGate::new(vec![1.0]);
        let mut p = LatencyPredictor::new(1);
        for _ in 0..50 {
            p.observe(0, 0.1);
        }
        assert!(p.predicted_p99(0) < 0.2);
        assert!(!gate.allows(0, &p), "comfortably inside the SLO");
    }

    #[test]
    fn a_building_tail_reopens_the_gate() {
        let gate = SloGate::new(vec![1.0]);
        let mut p = LatencyPredictor::new(1);
        for _ in 0..20 {
            p.observe(0, 0.5);
        }
        assert!(!gate.allows(0, &p));
        for _ in 0..20 {
            p.observe(0, 3.0);
        }
        assert!(
            p.predicted_p99(0) > 1.0,
            "EWMA follows the degradation: {}",
            p.predicted_p99(0)
        );
        assert!(gate.allows(0, &p), "SLO breach reopens the gate");
    }

    #[test]
    fn budgets_are_per_tenant() {
        let gate = SloGate::new(vec![0.2, 5.0]);
        let mut p = LatencyPredictor::new(2);
        for t in 0..2 {
            for _ in 0..30 {
                p.observe(t, 1.0);
            }
        }
        assert!(gate.allows(0, &p), "1 s tail breaches a 0.2 s budget");
        assert!(!gate.allows(1, &p), "but clears a 5 s budget");
    }

    #[test]
    #[should_panic(expected = "budgets must be positive")]
    fn non_positive_budgets_are_rejected() {
        SloGate::new(vec![-1.0]);
    }
}
