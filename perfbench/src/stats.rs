//! Summary statistics and input derivation shared by every workload.

/// The median of `values` (the mean of the two middle values for an even
/// count).  `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so the benchmark's own spread figures match the ones its consumers
/// compute from the printed values.  `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    if sorted.len() < 2 {
        return None;
    }
    let m = (sorted.len() + 1) as i64;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, m - 2);
        // Exact integer offset, possibly outside 0..4 at the clamped ends
        // (Python then extrapolates, and so does this).
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The interquartile distance as a share of the median — the spread
/// figure the benchmark is tuned against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// Percentiles a timing may be reported at, highest first, in per-mille.
const TAIL_PERMILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// The highest reportable tail percentile for `n` samples: the largest of
/// p99.9, p99, p95, p90, p75 and p50 that has at least ten samples beyond
/// it.  `None` when even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .iter()
        .find(|&&pm| n * (1000 - pm as usize) / 1000 >= 10)
        .map(|&pm| f64::from(pm) / 10.0)
}

/// The nearest-rank `p`-th percentile of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The geometric mean of strictly positive values (`None` when empty or
/// when a value is not positive).
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Sebastiano Vigna's splitmix64 step.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The order in which a run learns its workload's fixed item list: a
/// Fisher–Yates shuffle of `0..len` driven by splitmix64 of the workload
/// seed.  The same seed always yields the same order, and every order is a
/// permutation, so every run of a workload does the same work.
pub fn seeded_order(seed: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3, 2], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0]), Some((1.25, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&ten).expect("ten values");
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn geometric_mean_of_positive_values() {
        let g = geometric_mean(&[1.0, 4.0]).expect("positive");
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[]), None);
    }

    #[test]
    fn seeded_order_is_a_reproducible_permutation() {
        for seed in 0..50 {
            let order = seeded_order(seed, 8);
            assert_eq!(order, seeded_order(seed, 8), "same seed, same order");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "a permutation");
        }
        let distinct: std::collections::BTreeSet<Vec<usize>> =
            (0..50).map(|seed| seeded_order(seed, 8)).collect();
        assert!(distinct.len() > 40, "seeds spread over many orders");
        assert_eq!(seeded_order(3, 0), Vec::<usize>::new());
        assert_eq!(seeded_order(3, 1), vec![0]);
    }
}
