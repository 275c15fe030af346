//! The result line the benchmark prints as the last line of its output.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A run's result: the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every answer check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that were rejected or errored.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl RunResult {
    /// Renders the one-line JSON object. A value that is not finite
    /// cannot be written as JSON; it is printed as 0 and the run is
    /// marked incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let mut body = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            push_str(&mut body, m.name);
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            let _ = write!(body, ": {{\"value\": {value:?}, \"unit\": ");
            push_str(&mut body, m.unit);
            body.push('}');
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(value: f64) -> RunResult {
        RunResult {
            correct: true,
            attempted: 66,
            failed: 0,
            metrics: vec![Metric {
                name: "req_ms_p50",
                unit: "ms",
                value,
            }],
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        assert_eq!(
            result(123.456789012345).to_json(),
            "{\"correct\": true, \"attempted\": 66, \"failed\": 0, \"metrics\": \
             {\"req_ms_p50\": {\"value\": 123.456789012345, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn non_finite_value_marks_the_run_incorrect() {
        assert!(result(f64::NAN)
            .to_json()
            .starts_with("{\"correct\": false,"));
    }
}
