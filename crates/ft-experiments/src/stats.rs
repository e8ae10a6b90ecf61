//! Small streaming statistics, and the record of one Monte-Carlo cell
//! in a metrics dump.

use ft_runtime::BatchSummary;
use serde::{Deserialize, Serialize, Value};

/// One record of a `--metrics-json` dump: the cell's policy label, the
/// `cell` fields that place it in its sweep, its run count and its
/// mergeable metric histograms.
pub fn metrics_record(summary: &BatchSummary, cell: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![("policy", Value::Str(summary.policy_label.clone()))];
    fields.extend(cell);
    fields.push(("runs", Value::UInt(summary.runs as u64)));
    fields.push(("metrics", summary.metrics.to_value()));
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Streaming mean / min / max (the mean updated incrementally, as in
/// Welford's method).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Accumulator {
    n: usize,
    mean: f64,
    min: f64,
    max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Accumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_extremes() {
        let mut a = Accumulator::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            a.push(x);
        }
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-12);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 4.0);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let a = Accumulator::new();
        assert_eq!(a.mean(), 0.0);
        assert!(a.min().is_nan());
    }
}
