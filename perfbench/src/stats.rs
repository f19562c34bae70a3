//! The benchmark's own arithmetic: tail percentiles that the sample can
//! support, failure accounting, and the stage residual.

/// A reported tail percentile must have at least this many samples beyond
/// it; with fewer, the estimate is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn mean_ns(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum_ns() as f64 / self.0.len() as f64
        }
    }

    /// The samples in ascending order.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v
    }
}

/// The nearest-rank median of ascending `sorted` (`None` when empty).
pub fn median(sorted: &[u64]) -> Option<u64> {
    let n = sorted.len();
    (n > 0).then(|| sorted[n.div_ceil(2) - 1])
}

/// The median of `values` (the lower middle one for an even count; 0 when
/// empty).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// The nearest-rank `p`-quantile of ascending `sorted`, lowered until at
/// least [`MIN_BEYOND`] samples lie beyond it. Returns the quantile
/// actually reported and its value; `None` when the sample is too small
/// to support any tail.
pub fn tail(sorted: &[u64], p: f64) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n - MIN_BEYOND);
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// Operations attempted and failed. A read that returns bytes other than
/// the block's last acknowledged value counts as failed *and* as a wrong
/// read; the run continues either way.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong_reads: u64,
}

/// How one operation ended, as the oracle sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Returned `Ok` (and, for a read, the expected bytes).
    Ok,
    /// Returned `Err`.
    Err,
    /// A read returned `Ok` with bytes that differ from the model.
    Wrong,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Err => self.failed += 1,
            Outcome::Wrong => {
                self.failed += 1;
                self.wrong_reads += 1;
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The part of a composed operation's mean time that a measured stage
/// does not account for: `mean(total) − mean(stage)`, in nanoseconds.
pub fn residual_ns(total: &Samples, stage: &Samples) -> f64 {
    total.mean_ns() - stage.mean_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn p99_is_reported_when_ten_samples_lie_beyond_it() {
        let (p, v) = tail(&ramp(1000), 0.99).unwrap();
        assert_eq!(v, 990);
        assert!((p - 0.99).abs() < 1e-12);
        assert_eq!(1000 - v as usize, MIN_BEYOND);
    }

    #[test]
    fn tail_is_lowered_until_ten_samples_lie_beyond_it() {
        // 500 samples support at most the 490th: p98.
        let (p, v) = tail(&ramp(500), 0.99).unwrap();
        assert_eq!(v, 490);
        assert!((p - 0.98).abs() < 1e-12);
        for n in [11u64, 57, 999, 1001, 12_345] {
            let sorted = ramp(n);
            let (_, v) = tail(&sorted, 0.99).unwrap();
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: only {beyond} beyond");
        }
    }

    #[test]
    fn tiny_samples_support_no_tail() {
        assert_eq!(tail(&ramp(10), 0.99), None);
        assert_eq!(tail(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5]), Some(5));
        assert_eq!(median(&[1, 2, 3, 4]), Some(2));
        assert_eq!(median(&ramp(101)), Some(51));
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn wrong_reads_count_as_failures_and_errors_do_not_count_as_wrong() {
        let mut t = Tally::default();
        for o in [Outcome::Ok, Outcome::Ok, Outcome::Err, Outcome::Wrong] {
            t.record(o);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2,
                wrong_reads: 1
            }
        );
        assert!((t.failed_frac() - 0.5).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn residual_subtracts_stage_mean_from_total_mean() {
        let mut read = Samples::default();
        let mut place = Samples::default();
        for ns in [300, 500] {
            read.push(ns);
        }
        for ns in [40, 60, 50] {
            place.push(ns);
        }
        assert!((residual_ns(&read, &place) - 350.0).abs() < 1e-9);
        // A stage slower than the whole shows up as a negative residual
        // rather than being clamped away.
        assert!(residual_ns(&place, &read) < 0.0);
    }
}
