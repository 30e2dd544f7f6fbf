//! Sample statistics and failure accounting.
//!
//! Timings are reported as medians; latency distributions add the highest
//! percentile that still has at least [`TAIL_SAMPLES`] samples beyond it, so
//! a "p95" is never read off a handful of points. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (its default exclusive method), which
//! is how run-to-run spreads of this benchmark are judged.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are bugs in the caller.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` computes them (exclusive method).
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread measure the
/// benchmark's bounds are written against.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// The highest of the conventional tail percentiles (99.9, 99, 95, 90, 75,
/// 50) that has at least [`TAIL_SAMPLES`] of `n` samples beyond it, or
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64 - 1e-9)
}

/// The `p`-th percentile of `xs` by the nearest-rank rule (the smallest
/// sample with at least `p`% of the samples at or below it).
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let s = sorted(xs);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Counts checked operations and keeps the first few failure messages.
///
/// Every operation the benchmark checks — a process exit, a byte
/// comparison, a reply, a fault counter — is one attempt; any check that
/// does not hold is one failure.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

/// Failure messages kept for the report; later ones are only counted.
const KEPT_MESSAGES: usize = 8;

impl Tally {
    /// Records one attempted operation, failed unless `ok`; `what` names
    /// the failure in the report. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(what());
            }
        }
        ok
    }

    /// Records `attempted` operations of which `failed` did not hold;
    /// `what` describes the failures when there are any.
    pub fn check_batch(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(what());
            }
        }
    }

    /// Records one operation that failed before it could be checked.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed over attempted (0 before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The first failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.0]), 7.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&xs);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let [q1, q2, q3] = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(close(q1, 1.5) && close(q2, 3.0) && close(q3, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let [q1, q2, q3] = quartiles(&[10.0, 20.0]);
        assert!(close(q1, 7.5) && close(q2, 15.0) && close(q3, 22.5));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_spread(&xs), (8.25 - 2.75) / 5.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!(close(percentile(&xs, 50.0), 100.0));
        assert!(close(percentile(&xs, 95.0), 190.0));
        assert!(close(percentile(&xs, 100.0), 200.0));
        // Exactly ten samples (191..=200) lie beyond the p95 value.
        let beyond = xs.iter().filter(|&&x| x > percentile(&xs, 95.0)).count();
        assert_eq!(beyond, TAIL_SAMPLES);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(t.check(true, || unreachable!("a passing check builds no message")));
        assert!(!t.check(false, || "bytes differ".to_owned()));
        t.fail("timeout".to_owned());
        t.check(true, String::new);
        assert_eq!((t.attempted(), t.failed()), (4, 2));
        assert!(close(t.failed_frac(), 0.5));
        t.check_batch(100, 0, || unreachable!("no failures, no message"));
        t.check_batch(96, 3, || "3 replies differ".to_owned());
        assert_eq!((t.attempted(), t.failed()), (200, 5));
        assert_eq!(
            t.messages(),
            ["bytes differ", "timeout", "3 replies differ"]
        );
    }

    #[test]
    fn tally_keeps_only_the_first_messages() {
        let mut t = Tally::default();
        for i in 0..20 {
            t.fail(format!("failure {i}"));
        }
        assert_eq!(t.failed(), 20);
        assert_eq!(t.messages().len(), KEPT_MESSAGES);
        assert_eq!(t.messages()[0], "failure 0");
    }
}
