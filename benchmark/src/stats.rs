//! Order statistics for the metric reports.

/// Sort a sample in place (NaN-free by construction: all inputs are
/// measured durations, counts or ratios of them).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// The `p`-quantile (`0.0..=1.0`) of a **sorted** sample by linear
/// interpolation between closest ranks; 0 for an empty sample.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, 0.5)
}

/// The highest of p50/p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it: a tail read off fewer samples is one outlier,
/// not a percentile. `None` below 20 samples.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand)
    [(0.999, 1), (0.99, 10), (0.95, 50), (0.90, 100), (0.50, 500)]
        .into_iter()
        .find(|&(_, beyond)| samples * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// A tail percentile that interference from the host cannot move by
/// hitting a minority of the run: cut the samples, in time order, into
/// up to ten consecutive blocks of at least twenty, take the
/// `p`-quantile of each block, and report the lower quartile of those.
/// A stall inflates the blocks it falls in and leaves the rest alone; a
/// change in the code moves every block.
pub fn steady_tail(in_time_order: &[f64], p: f64) -> f64 {
    let blocks = (in_time_order.len() / 20).clamp(1, 10);
    let mut tails: Vec<f64> = (0..blocks)
        .map(|b| {
            let (from, to) = (
                b * in_time_order.len() / blocks,
                (b + 1) * in_time_order.len() / blocks,
            );
            let mut block = in_time_order[from..to].to_vec();
            sort(&mut block);
            quantile(&block, p)
        })
        .collect();
    sort(&mut tails);
    quantile(&tails, 0.25)
}

/// Run-to-run spread as the contract defines it: the distance between
/// the first and third quartile (Python's `statistics.quantiles(v,
/// n=4)`, exclusive method) as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let exclusive = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let mid = quantile(&v, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (exclusive(3) - exclusive(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(99), Some(0.50));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn steady_tail_ignores_a_stall_in_a_minority_of_blocks() {
        // 1000 samples whose per-block p95 is 95; the third and fourth
        // hundred are ten times slower.
        let mut v: Vec<f64> = (0..1_000).map(|i| (i % 100) as f64 + 1.0).collect();
        let calm = steady_tail(&v, 0.95);
        for x in &mut v[200..400] {
            *x *= 10.0;
        }
        assert_eq!(steady_tail(&v, 0.95), calm);
        assert!((calm - 95.05).abs() < 1e-9, "{calm}");
        // Too few samples for blocks: the plain quantile.
        assert_eq!(steady_tail(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(steady_tail(&[], 0.95), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0]), 0.0);
    }
}
