//! Interval timelines: overlap auditing and gap search.
//!
//! Scheduling itself uses the scalar append-only state of
//! [`crate::state::NetworkState`]; timelines exist to *audit* finished
//! schedules (rebuilding every resource's occupancy from scratch and
//! checking exclusivity, i.e. the paper's constraints (1)–(3)) and to
//! support insertion-based policies in extensions.

/// A set of closed-open intervals `[start, end)` with integer tags.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    intervals: Vec<(f64, f64, u32)>,
}

/// Tolerance for floating-point interval comparisons.
pub const TIME_EPS: f64 = 1e-9;

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an interval. Zero-length intervals are ignored (they cannot
    /// conflict).
    pub fn add(&mut self, start: f64, end: f64, tag: u32) {
        debug_assert!(
            end >= start - TIME_EPS,
            "reversed interval [{start}, {end})"
        );
        if end - start > TIME_EPS {
            self.intervals.push((start, end, tag));
        }
    }

    /// Number of recorded (non-empty) intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True if no intervals were recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Returns the tags of the first overlapping pair, if any.
    pub fn first_overlap(&self) -> Option<(u32, u32)> {
        let mut sorted = self.intervals.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in sorted.windows(2) {
            let (_, end_a, tag_a) = w[0];
            let (start_b, _, tag_b) = w[1];
            if start_b < end_a - TIME_EPS {
                return Some((tag_a, tag_b));
            }
        }
        None
    }

    /// Earliest start `≥ after` at which a new interval of length `dur`
    /// fits without overlapping existing intervals (insertion policy).
    pub fn earliest_gap(&self, after: f64, dur: f64) -> f64 {
        let mut sorted = self.intervals.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut candidate = after;
        for &(s, e, _) in &sorted {
            if candidate + dur <= s + TIME_EPS {
                return candidate;
            }
            if e > candidate {
                candidate = e;
            }
        }
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_overlap() {
        let mut tl = Timeline::new();
        tl.add(0.0, 5.0, 1);
        tl.add(4.0, 6.0, 2);
        assert_eq!(tl.first_overlap(), Some((1, 2)));
    }

    #[test]
    fn touching_intervals_do_not_overlap() {
        let mut tl = Timeline::new();
        tl.add(0.0, 5.0, 1);
        tl.add(5.0, 9.0, 2);
        assert_eq!(tl.first_overlap(), None);
    }

    #[test]
    fn zero_length_intervals_ignored() {
        let mut tl = Timeline::new();
        tl.add(3.0, 3.0, 1);
        assert!(tl.is_empty());
        tl.add(0.0, 10.0, 2);
        tl.add(4.0, 4.0, 3);
        assert_eq!(tl.first_overlap(), None);
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn gap_search_finds_hole() {
        let mut tl = Timeline::new();
        tl.add(0.0, 2.0, 1);
        tl.add(5.0, 8.0, 2);
        assert_eq!(tl.earliest_gap(0.0, 3.0), 2.0); // hole [2, 5)
        assert_eq!(tl.earliest_gap(0.0, 4.0), 8.0); // doesn't fit, append
        assert_eq!(tl.earliest_gap(6.0, 1.0), 8.0); // after constraint
    }

    #[test]
    fn gap_on_empty_timeline_is_after() {
        let tl = Timeline::new();
        assert_eq!(tl.earliest_gap(7.5, 100.0), 7.5);
    }
}
