//! Order statistics over latency samples and over repetitions.

/// The `p`-th percentile (0–100) of `samples`, nearest-rank on the
/// sorted order. Reorders `samples` in place (selection, not a full
/// sort: a repetition holds up to a million latencies).
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The reported figure for a metric measured once per repetition: the
/// median — refused when repetitions went missing, so a run that lost
/// some never prints a number that looks comparable to a full one.
pub fn median_of_reps(values: &[f64], configured: usize) -> Result<f64, String> {
    if values.len() < configured {
        return Err(format!(
            "only {} of {configured} repetitions completed; refusing to report a median",
            values.len()
        ));
    }
    Ok(median(values))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread figure the acceptance rule uses. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), so
/// this reproduces the driver's arithmetic. `None` below two values.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // Python: j = k*(n+1)//4 clamped to [1, n-1]; delta = k*(n+1) - 4j.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return None;
    }
    Some((quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut one = vec![7];
        assert_eq!(percentile(&mut one, 99.9), 7);
        // 1000 samples: exactly ten lie beyond the 99th percentile.
        let mut k: Vec<u64> = (0..1000).collect();
        let p99 = percentile(&mut k, 99.0);
        assert_eq!(k.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn median_of_repetitions_takes_the_middle_and_refuses_short_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_of_reps(&[5.0, 9.0, 7.0, 1.0, 8.0], 5), Ok(7.0));
        assert!(median_of_reps(&[5.0, 9.0, 7.0, 1.0], 5).is_err());
        // One wild repetition does not move the reported figure.
        assert_eq!(median_of_reps(&[10.0, 10.2, 9.9, 10.1, 250.0], 5), Ok(10.1));
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        let got = iqr_share(&[10.0, 12.0, 11.0]).unwrap();
        assert!((got - 2.0 / 11.0).abs() < 1e-12, "{got}");
        assert_eq!(iqr_share(&[1.0]), None);
    }

    #[test]
    fn mean_handles_empty_input() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
    }
}
