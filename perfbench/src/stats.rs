//! Small statistics the benchmark reports: trial counts for a target
//! precision, nearest-rank percentiles, medians, geometric means and the
//! worker idle ratio of a campaign.

/// z for a two-sided 95% interval, as used by the ε→n formula.
const Z: f64 = 1.96;

/// Trials that guarantee a 95% Wilson half-width ≤ `eps` for any SDC
/// probability: `n = ⌈z² / (4ε²)⌉`. The worst case is p = ½, where the
/// Wilson half-width is `z / (2√n) / √(1 + z²/n) ≤ z / (2√n)`.
pub fn trials_for_eps(eps: f64) -> u32 {
    // The tiny slack keeps float noise (0.03² is not exact) from
    // rounding an exact integer up by one.
    (Z * Z / (4.0 * eps * eps) - 1e-9).ceil() as u32
}

/// Samples that must lie strictly above a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `q·n` samples at or below it. `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond that rank, so a reported tail is
/// never decided by a handful of outliers.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Fraction of worker capacity not spent inside trials:
/// `1 − Σ trial time / (threads × wall)`. Serial phases (golden run,
/// capture) and load imbalance between statically chunked workers both
/// show up here.
pub fn idle_ratio(trial_ns: &[u64], threads: usize, wall_ns: u64) -> f64 {
    let busy: u64 = trial_ns.iter().sum();
    let capacity = threads as f64 * wall_ns as f64;
    if capacity == 0.0 {
        return 0.0;
    }
    (1.0 - busy as f64 / capacity).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_for_the_workload_epsilons() {
        assert_eq!(trials_for_eps(0.03), 1068);
        assert_eq!(trials_for_eps(0.02), 2401);
        assert_eq!(trials_for_eps(0.015), 4269);
        // The coarsened epsilons the benchmark runs at.
        assert_eq!(trials_for_eps(0.07), 196);
        assert_eq!(trials_for_eps(0.04), 601);
    }

    #[test]
    fn trial_count_bounds_the_wilson_half_width() {
        for eps in [0.015, 0.02, 0.03, 0.04, 0.07] {
            let n = trials_for_eps(eps) as u64;
            for sdc in [0, n / 4, n / 2, n / 2 + 1, n] {
                let ci = peppa_stats::binomial_ci(sdc, n, peppa_stats::ci::Z_95);
                assert!(ci.half_width <= eps, "eps {eps} n {n} sdc {sdc}: {ci:?}");
            }
        }
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_the_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // p99 of 1000 samples leaves exactly 10 above it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.995), None);
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.9), Some(90.0));
        assert_eq!(percentile(&small, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        // A single large value moves the geomean far less than the sum.
        let g = geomean(&[1.0, 1.0, 1.0, 1000.0]);
        assert!((g - 1000f64.powf(0.25)).abs() < 1e-9);
    }

    #[test]
    fn idle_ratio_on_synthetic_latencies() {
        // Two workers, 10 s wall: 20 s of capacity.
        assert_eq!(idle_ratio(&[10, 10], 2, 10), 0.0);
        assert_eq!(idle_ratio(&[10, 5], 2, 10), 0.25);
        // One worker idle the whole time: half the capacity wasted.
        assert_eq!(idle_ratio(&[10], 2, 10), 0.5);
        assert_eq!(idle_ratio(&[], 2, 10), 1.0);
        assert_eq!(idle_ratio(&[], 2, 0), 0.0);
    }
}
