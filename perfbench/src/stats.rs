//! Order statistics and process measurements.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by the nearest-rank method;
/// `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `p`-th percentile of `xs`, which must have at least ten samples
/// above that percentile (the benchmark sizes its phases so that it does).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(
        xs.len() as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9,
        "p{p} of {} samples has fewer than ten samples beyond it",
        xs.len()
    );
    quantile(xs, p / 100.0)
}

/// The median over groups of whole passes of each group's `p`-th
/// percentile. Consecutive passes form a group once it holds `group`
/// samples; a short remainder joins the last group. A disturbance of the
/// machine that lands in one group moves only that group's figure.
pub fn grouped_percentile(passes: &[Vec<f64>], group: usize, p: f64) -> f64 {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for pass in passes {
        open.extend(pass);
        if open.len() >= group {
            groups.push(std::mem::take(&mut open));
        }
    }
    match groups.last_mut() {
        Some(last) => last.extend(open),
        None => groups.push(open),
    }
    let per_group: Vec<f64> = groups.iter().map(|g| percentile(g, p)).collect();
    median(&per_group)
}

/// This process's peak resident set size in MiB (`VmHWM`), or `NaN` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds in `nanos`.
pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert!(std::panic::catch_unwind(|| percentile(&xs[..999], 99.0)).is_err());
    }

    #[test]
    fn grouped_percentile_takes_the_median_group() {
        let calm: Vec<f64> = (1..=1000).map(f64::from).collect();
        let mut stormy = calm.clone();
        stormy[999] = 1e9;
        stormy[998] = 1e9;
        let passes: Vec<Vec<f64>> = vec![calm.clone(), stormy.clone(), calm.clone()];
        assert_eq!(grouped_percentile(&passes, 1000, 99.0), 990.0);
        // Short passes gather into groups; the remainder joins the last.
        let halves: Vec<Vec<f64>> = calm.chunks(500).map(<[f64]>::to_vec).collect();
        assert_eq!(grouped_percentile(&halves, 1000, 99.0), 990.0);
    }

    #[test]
    fn reads_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
    }
}
