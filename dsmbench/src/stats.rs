//! The benchmark's arithmetic: percentiles that refuse to report an
//! unsupported tail, medians, span self time, and failure ratios.

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported; below that the tail is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (`0 < p < 1`) of an ascending sample by the
/// nearest-rank rule, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// strictly beyond its rank (an unmeasured tail is absent, never `0`).
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (p <= 0.5 || beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for an even count),
/// or `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The mean of `values`, or `None` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The interquartile mean ([`iq_mean`]) over consecutive batches of
/// `batch` values of each batch's mean; a trailing partial batch counts
/// only when there is no full one. Of a two-valued sample, the batch means
/// take only `batch + 1` values, so their median jumps a whole step as the
/// mix shifts; the mean of their middle half moves with the mix.
#[must_use]
pub fn iq_mean_of_means(values: &[f64], batch: usize) -> Option<f64> {
    let means: Vec<f64> = values
        .chunks(batch)
        .filter(|c| c.len() == batch || values.len() < batch)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    iq_mean(&means)
}

/// The mean of the middle half of `values` (those between the first and
/// third quartiles). Like the median it ignores the outliers a stall or a
/// descheduled span produces; unlike it, it neither rounds to one sample
/// nor jumps between the two speeds of a host that changes speed, but
/// moves in proportion to the share of each.
#[must_use]
pub fn iq_mean(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    mean(&v[lo..hi])
}

/// Samples per percentile window: enough that the 99th percentile of a
/// window has [`MIN_BEYOND`] samples beyond it.
pub const WINDOW: usize = 1024;

/// Latency samples, summarised per window of [`WINDOW`] consecutive
/// samples. A run reports the interquartile mean ([`iq_mean`]) over its
/// windows of each window's percentile, and memory stays fixed however
/// long the run is.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    window: Vec<u64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    n: usize,
}

/// The summary of one [`Latencies`] set; times in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Samples taken.
    pub n: usize,
    /// Windows the percentiles are taken over.
    pub windows: usize,
    /// Interquartile mean over windows of each window's median.
    pub p50: Option<f64>,
    /// Interquartile mean over windows of each window's 99th percentile; absent when
    /// no window had [`MIN_BEYOND`] samples past it.
    pub p99: Option<f64>,
}

impl Latencies {
    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.window.push(ns);
        self.n += 1;
        if self.window.len() == WINDOW {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        self.window.sort_unstable();
        if let Some(p) = percentile(&self.window, 0.50) {
            self.p50s.push(p as f64);
        }
        if let Some(p) = percentile(&self.window, 0.99) {
            self.p99s.push(p as f64);
        }
        self.window.clear();
    }

    /// Summarises the closed windows; a run too short to close one is
    /// summarised over its partial window.
    #[must_use]
    pub fn summary(&mut self) -> LatencySummary {
        if self.p50s.is_empty() && !self.window.is_empty() {
            self.close_window();
        }
        LatencySummary {
            n: self.n,
            windows: self.p50s.len(),
            p50: iq_mean(&self.p50s),
            p99: iq_mean(&self.p99s),
        }
    }
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that the union of `children` covers. Children may overlap each other
/// and may stick out of the parent; only the covered part counts.
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// Failed over attempted operations. Every operation of a run the
/// oracle (or an exact-bill check) rejects counts as failed.
#[must_use]
pub fn failed_ratio(attempted: u64, failed: u64, rejected_ops: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    (failed + rejected_ops).min(attempted) as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
    }

    #[test]
    fn iq_mean_of_means_tracks_a_bimodal_mix() {
        // 40% slow set-ups: single values put the median on the fast
        // mode, batch means land between the modes.
        let v: Vec<f64> = (0..100)
            .map(|i| if i % 5 < 2 { 6.0 } else { 1.0 })
            .collect();
        assert_eq!(median(&v), Some(1.0));
        assert_eq!(iq_mean_of_means(&v, 5), Some(3.0));
        // Batch means 2, 2, 2, 4, 4: their median sits on the step at 2,
        // the mean of their middle half between the steps.
        let fast = [6.0, 1.0, 1.0, 1.0, 1.0];
        let slow = [6.0, 6.0, 1.0, 1.0, 6.0];
        let w = [fast, fast, fast, slow, slow].concat();
        let got = iq_mean_of_means(&w, 5).unwrap();
        assert!((got - 8.0 / 3.0).abs() < 1e-12, "{got}");
        // The trailing partial batch is dropped; alone, it is used.
        assert_eq!(iq_mean_of_means(&[1.0, 1.0, 9.0], 2), Some(1.0));
        assert_eq!(iq_mean_of_means(&[2.0, 4.0], 5), Some(3.0));
        assert_eq!(iq_mean_of_means(&[], 5), None);
    }

    #[test]
    fn iq_mean_ignores_the_outer_quarters() {
        assert_eq!(
            iq_mean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0]),
            Some(4.5)
        );
        assert_eq!(iq_mean(&[7.0]), Some(7.0));
        assert_eq!(iq_mean(&[]), None);
    }

    #[test]
    fn p50_is_nearest_rank() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 0.5), Some(5));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, 10 beyond — reported.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.99), Some(990));
        // 999 samples: rank 990, 9 beyond — absent, not 0.
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&s, 0.99), None);
    }

    #[test]
    fn short_run_reports_count_and_absent_tail() {
        let mut l = Latencies::default();
        for ns in [30, 10, 20] {
            l.push(ns);
        }
        let s = l.summary();
        assert_eq!((s.n, s.windows), (3, 1));
        assert_eq!(s.p50, Some(20.0));
        assert_eq!(s.p99, None);
    }

    #[test]
    fn percentiles_are_interquartile_means_over_windows() {
        let mut l = Latencies::default();
        // Four windows: medians 512, 512, 1536, 512. The middle half of
        // the window medians is 512 and 512.
        for base in [0, 0, 1024, 0] {
            for i in 1..=WINDOW as u64 {
                l.push(base + i);
            }
        }
        // A partial window is dropped once full windows exist.
        l.push(1_000_000);
        let s = l.summary();
        assert_eq!((s.n, s.windows), (4 * WINDOW + 1, 4));
        assert_eq!(s.p50, Some(512.0));
        assert_eq!(s.p99, Some(1014.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Fully covered parent.
        assert_eq!(self_time(5, 9, &[(0, 100)]), 0);
    }

    #[test]
    fn failed_ratio_counts_rejected_runs_and_caps_at_one() {
        assert_eq!(failed_ratio(100, 0, 0), 0.0);
        assert_eq!(failed_ratio(100, 3, 0), 0.03);
        assert_eq!(failed_ratio(100, 3, 100), 1.0);
        assert_eq!(failed_ratio(0, 0, 0), 1.0);
    }
}
