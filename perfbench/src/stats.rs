//! Order statistics over timing samples.
//!
//! A percentile is only reported when at least ten samples lie beyond
//! it, on the side of its nearer tail: p50 needs 20 samples, p10 and
//! p90 need 100, p99 needs 1000. [`percentile`] refuses anything
//! thinner instead of returning a number that one outlier decides.

use std::fmt;

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Why a statistic could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Fewer samples than the percentile needs.
    TooFewSamples {
        /// The requested percentile.
        p: f64,
        /// Samples given.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// The percentile is outside `0 < p < 100`, or a sample is not finite.
    Invalid(String),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::TooFewSamples { p, have, need } => write!(
                f,
                "p{p} needs at least {need} samples ({MIN_BEYOND} beyond it), have {have}"
            ),
            StatsError::Invalid(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for StatsError {}

/// Samples needed so that at least [`MIN_BEYOND`] lie beyond the `p`th
/// percentile in its nearer tail: above it for `p >= 50`, below it
/// otherwise.
pub fn samples_needed(p: f64) -> usize {
    // Scaled by 100 first so the common percentiles divide exactly.
    (100.0 * MIN_BEYOND as f64 / p.min(100.0 - p) - 1e-9).ceil() as usize
}

fn sorted(samples: &[f64]) -> Result<Vec<f64>, StatsError> {
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::Invalid("non-finite sample".into()));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v)
}

/// The `p`th percentile (nearest rank) of `samples`, refusing when fewer
/// than [`MIN_BEYOND`] samples would lie beyond it.
///
/// # Errors
///
/// [`StatsError::TooFewSamples`] for thin sample sets,
/// [`StatsError::Invalid`] for `p` outside `(0, 100)` or non-finite
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    if !(p > 0.0 && p < 100.0) {
        return Err(StatsError::Invalid(format!(
            "percentile {p} outside (0, 100)"
        )));
    }
    let need = samples_needed(p);
    if samples.len() < need {
        return Err(StatsError::TooFewSamples {
            p,
            have: samples.len(),
            need,
        });
    }
    let v = sorted(samples)?;
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Ok(v[rank.clamp(1, v.len()) - 1])
}

/// The median of `samples` (mean of the two middle values for even
/// counts). Unlike [`percentile`] it accepts any non-empty set: it is
/// used for repeat counts chosen by the benchmark itself (set-up
/// repeats, probe repeats), never for a reported tail.
///
/// # Errors
///
/// [`StatsError::Invalid`] for an empty set or non-finite samples.
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    let v = sorted(samples)?;
    let n = v.len();
    match n {
        0 => Err(StatsError::Invalid("median of no samples".into())),
        _ if n % 2 == 1 => Ok(v[n / 2]),
        _ => Ok((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads agree with a script that checks
/// them the same way.
///
/// # Errors
///
/// [`StatsError::Invalid`] for fewer than two samples or non-finite
/// samples.
pub fn quartiles(samples: &[f64]) -> Result<[f64; 3], StatsError> {
    let v = sorted(samples)?;
    let ld = v.len();
    if ld < 2 {
        return Err(StatsError::Invalid("quartiles need two samples".into()));
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative or >4 at the clamped ends: Python extrapolates there.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        assert_eq!(
            percentile(&ramp(99), 90.0),
            Err(StatsError::TooFewSamples {
                p: 90.0,
                have: 99,
                need: 100
            })
        );
        assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
    }

    #[test]
    fn thresholds_leave_ten_samples_beyond() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(10.0), 100);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert!(percentile(&ramp(99), 10.0).is_err());
        assert_eq!(percentile(&ramp(100), 10.0), Ok(10.0));
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
    }

    #[test]
    fn percentile_sorts_and_rejects_bad_input() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Ok(180.0));
        assert!(percentile(&v, 100.0).is_err());
        assert!(percentile(&v, 0.0).is_err());
        v[3] = f64::NAN;
        assert!(percentile(&v, 50.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
        assert!(median(&[]).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Ok([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Ok([0.75, 1.5, 2.25]));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Ok([1.5, 3.0, 4.5]));
        assert!(quartiles(&[1.0]).is_err());
    }
}
