//! What one benchmark run reports: named metrics with units, the tally of
//! output checks, and the result line the benchmark contract asks for.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Output checks made during a run. Every check counts as attempted; a
/// failing one is also recorded with a description for the log.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Failed checks as a share of attempted ones (0 when none ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// The metrics and checks of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Human-readable lines printed before the result line (sample
    /// counts, digests, the host fingerprint).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable part of the output: notes, then one
    /// `name value unit` line per metric.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>22} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "{:<34} {:>22} fraction",
            "failed_frac",
            self.checks.failed_frac()
        );
        for failure in self.checks.failures() {
            let _ = writeln!(out, "CHECK FAILED: {failure}");
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value cannot be written as
    /// JSON, so it is reported as a failed check instead.
    pub fn render_result(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect();
        for name in bad {
            self.checks
                .check(false, || format!("metric {name} is not finite"));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed() == 0,
            self.checks.attempted().max(1),
            self.checks.failed()
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.value.is_finite()) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The median of `values` (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest of `values`: the host time of the fastest of several
/// repetitions of the same work. On a shared host, neighbours slow the
/// same instructions 1.4-2x in phases from under a second to minutes
/// long, so the median repetition reads the neighbours' load; the fastest
/// one is the figure they move least, provided each repetition is short.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no values");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The nearest-rank `q`-quantile of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `min / median / max` of `values`, for the log.
pub fn spread(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{min:.4} / {:.4} / {max:.4}", median(values))
}

/// This process's peak resident set (`VmHWM`) in MiB, or NaN where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut report = Report::default();
        report.metric("latency_ms", 1.25, "ms");
        report.checks.check(true, || unreachable!());
        assert_eq!(
            report.render_result(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_non_finite_metric_fails_the_run() {
        let mut report = Report::default();
        report.metric("x_s", f64::NAN, "s");
        let line = report.render_result();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        assert!(!line.contains("x_s"));
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(nearest_rank(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(nearest_rank(&[5.0, 1.0, 3.0], 0.99), 5.0);
    }

    #[test]
    fn fastest_is_the_smallest_time() {
        assert_eq!(fastest(&[5.0, 1.5, 3.0]), 1.5);
        assert_eq!(fastest(&[2.0]), 2.0);
    }
}
