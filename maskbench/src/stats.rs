//! Order statistics and process measurements shared by the benchmark and
//! its steadiness command.

/// Tail percentiles tried from the highest down, in per-mille.
const TAIL_LADDER_PER_MILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// Fewest samples that carry a tail: below this only the median is
/// reported.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Nearest rank (1-based) of the `per_mille` percentile among `n`
/// samples: the smallest rank whose share of samples is at least the
/// percentile.
fn nearest_rank(per_mille: u64, n: usize) -> usize {
    ((per_mille * n as u64).div_ceil(1000) as usize).clamp(1, n)
}

/// Value at the nearest rank of the `per_mille` percentile of sorted
/// samples.
pub fn percentile_sorted(sorted: &[f64], per_mille: u64) -> f64 {
    sorted[nearest_rank(per_mille, sorted.len()) - 1]
}

/// Median (nearest rank, so always an observed sample).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 500)
}

/// Median as Python's `statistics.median` computes it: the mean of the
/// two middle values for an even count.
pub fn median_interpolated(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile (in per-mille) reported for `n` samples: the
/// highest percentile of the ladder p99.9, p99, p95, p90, p75 that has at
/// least [`TAIL_SAMPLES_BEYOND`] samples beyond its nearest rank. `None`
/// below [`MIN_TAIL_SAMPLES`], where the median is reported alone.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    TAIL_LADDER_PER_MILLE
        .into_iter()
        .find(|&p| n - nearest_rank(p, n) >= TAIL_SAMPLES_BEYOND)
}

/// Median and tail of a latency sample, plus the tail percentile used
/// (`None`: fewer than [`MIN_TAIL_SAMPLES`] samples, tail = median).
///
/// Both are Harrell–Davis estimates: a weighted mean of the order
/// statistics, with weights from the beta distribution of the quantile's
/// rank. The search workloads mix programs whose costs differ thirtyfold
/// with wide gaps between them, and a single order statistic there jumps
/// from one key to its neighbour with small timing noise; the weighted
/// estimate moves smoothly instead.
pub fn median_and_tail(values: &[f64]) -> (f64, f64, Option<u64>) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = harrell_davis_sorted(&v, 0.5);
    match tail_per_mille(v.len()) {
        Some(p) => (p50, harrell_davis_sorted(&v, p as f64 / 1000.0), Some(p)),
        None => (p50, p50, None),
    }
}

/// Harrell–Davis estimate of quantile `q` (in (0, 1)) of sorted samples.
pub fn harrell_davis_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    let mut prev = 0.0;
    let mut est = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n as f64, a, b);
        est += (cdf - prev) * x;
        prev = cdf;
    }
    est
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection keeps the series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`: the CDF of a
/// Beta(a, b) variable at `x` (continued fraction, modified Lentz).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Peak resident set size in MB from the text of `/proc/<pid>/status`
/// (its `VmHWM` line, in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_alone_below_forty_samples() {
        for n in [1, 2, 10, 39] {
            assert_eq!(tail_per_mille(n), None, "n = {n}");
        }
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        let (p50, tail, p) = median_and_tail(&v);
        assert!((p50 - 20.0).abs() < 1e-9, "{p50}");
        assert_eq!((tail, p), (p50, None));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // (samples, expected percentile in per-mille)
        for (n, want) in [
            (40, 750),
            (66, 750),
            (99, 750),
            (100, 900),
            (199, 900),
            (200, 950),
            (999, 950),
            (1000, 990),
            (9999, 990),
            (10_000, 999),
            (50_000, 999),
        ] {
            let p = tail_per_mille(n).expect("tail");
            assert_eq!(p, want, "n = {n}");
            assert!(n - nearest_rank(p, n) >= TAIL_SAMPLES_BEYOND, "n = {n}");
            // No higher rung of the ladder qualifies.
            for higher in TAIL_LADDER_PER_MILLE.into_iter().filter(|&h| h > p) {
                assert!(n - nearest_rank(higher, n) < TAIL_SAMPLES_BEYOND);
            }
        }
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p50, tail, p) = median_and_tail(&v);
        assert_eq!(p, Some(900));
        // Harrell–Davis on 1..=n estimates quantile q at q·n + 1/2.
        assert!((p50 - 50.5).abs() < 1e-6, "{p50}");
        assert!((tail - 90.5).abs() < 1e-6, "{tail}");
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // Beta(1, 1) is uniform; Beta(2, 1) has CDF x^2; Beta(a, a) is
        // symmetric about 1/2.
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(0.3, 2.0, 1.0) - 0.09).abs() < 1e-12);
        assert!((beta_cdf(0.5, 33.5, 33.5) - 0.5).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_moves_smoothly_across_a_gap() {
        // Ten cheap keys, ten dear ones: the nearest-rank median of a
        // sample that straddles the gap jumps by the gap; the weighted
        // estimate moves by a fraction of it.
        let mut v: Vec<f64> = (0..10).map(|i| 80.0 + f64::from(i)).collect();
        v.extend((0..11).map(|i| 120.0 + f64::from(i)));
        let base = harrell_davis_sorted(&v, 0.5);
        let mut shifted = v.clone();
        shifted[10] = 89.5; // the lowest dear key gets cheap
        shifted.sort_by(f64::total_cmp);
        let moved = harrell_davis_sorted(&shifted, 0.5);
        assert!(percentile_sorted(&v, 500) - percentile_sorted(&shifted, 500) > 30.0);
        assert!((base - moved).abs() < 10.0, "{base} -> {moved}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11)) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2]) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median_interpolated(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_interpolated(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn peak_rss_parses_vmhwm_in_kb() {
        let status =
            "Name:\tmaskbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 40000 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 12 MB\n"), None);
        let live = peak_rss_mb().expect("this process has a VmHWM line");
        assert!(live > 0.0);
    }
}
