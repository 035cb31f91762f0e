//! Checked-operation counts, metrics, and the result line.
//!
//! The last line a run prints is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Every line before it is for people: one `metric`, `layer`, `meta`,
//! `self` or `warn` row per fact.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, every digit kept.
    pub value: f64,
    /// Unit (`ms`, `s`, `MIPS`, `ratio`, …).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Counts of checked operations: every session, sample, request or
/// digest comparison whose output the benchmark verified.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong (wrong `%d2`, fault, budget
    /// hit, digest mismatch).
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
}

/// Failure descriptions kept for the log.
const KEPT_FAILURES: usize = 8;

impl Checks {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Adds another set of counts to this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when something was checked and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Renders the result line.
///
/// # Errors
///
/// A metric that is not a finite number (JSON cannot carry it).
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        checks.correct(),
        checks.attempted,
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(true, String::new);
        let line = result_line(
            &c,
            &[
                Metric::new("run_ms_p50", 81.234_567_891, "ms"),
                Metric::new("setup_s", 0.000_125, "s"),
            ],
        )
        .unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(json::Value::as_f64), Some(2.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("run_ms_p50")
                .and_then(|x| x.get("value"))
                .and_then(json::Value::as_f64),
            Some(81.234_567_891)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("value"))
                .and_then(json::Value::as_f64),
            Some(0.000_125)
        );
    }

    #[test]
    fn failures_make_the_run_incorrect_and_non_finite_values_are_refused() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(false, || "wrong %d2".into());
        assert!(!c.correct());
        assert_eq!(c.fail_ratio(), 0.5);
        assert_eq!(c.failures, vec!["wrong %d2".to_string()]);
        assert!(result_line(&c, &[Metric::new("x", f64::NAN, "ms")]).is_err());
        assert!(
            !Checks::default().correct(),
            "nothing checked is not correct"
        );
    }
}
