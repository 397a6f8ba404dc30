//! Sample summaries and the result line.

/// Samples that must lie beyond the `.tail` percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle samples for even counts); 0 for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `.tail` rule: the highest nearest-rank percentile that leaves at
/// least [`TAIL_BEYOND`] samples above it. With `n > TAIL_BEYOND`
/// samples that is the `(TAIL_BEYOND + 1)`-th largest sample, at
/// percentile `100 · (n − TAIL_BEYOND) / n`. Returns `(value,
/// percentile)`; with too few samples no percentile qualifies and the
/// maximum is returned at percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= TAIL_BEYOND {
        return (s[n - 1], 100.0);
    }
    let rank = n - TAIL_BEYOND;
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Out of order on purpose: the summaries must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 20 samples 1..=20: the 11th largest is 10, at p50.
        assert_eq!(tail(&ramp(20)), (10.0, 50.0));
        // 100 samples: the 11th largest is 90, at p90.
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        // 11 samples: only the smallest has ten above it.
        let (v, p) = tail(&ramp(11));
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        for n in [11usize, 37, 150, 1000] {
            let xs = ramp(n);
            let (v, _) = tail(&xs);
            assert_eq!(
                xs.iter().filter(|&&x| x > v).count(),
                TAIL_BEYOND,
                "n = {n}"
            );
        }
    }

    #[test]
    fn tail_with_too_few_samples_is_the_maximum() {
        assert_eq!(tail(&ramp(10)), (10.0, 100.0));
        assert_eq!(tail(&[2.5]), (2.5, 100.0));
        assert_eq!(tail(&[]), (0.0, 100.0));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            3,
            0,
            &[Metric {
                name: "x_ms",
                value: 1.234_567_890_123,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"x_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
        );
    }
}
