//! The result line: correctness, attempts, failures and named metrics.

use std::fmt::Write as _;

/// Metrics of one run, in emission order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Units of work attempted (cells and jobs, timed and checked).
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// Correctness findings; the run is correct only when this is empty.
    pub errors: Vec<String>,
}

impl Report {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a name emitted twice.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} emitted twice"
        );
        self.metrics.push((name, value, unit));
    }

    /// Records a correctness finding.
    pub fn error(&mut self, finding: impl Into<String>) {
        self.errors.push(finding.into());
    }

    /// Whether every check passed and every unit succeeded.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 1e-5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 1e-5, \"unit\": \"s\"}}}"
        );
        r.error("row mismatch");
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
