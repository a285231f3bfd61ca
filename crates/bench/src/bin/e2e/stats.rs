//! Order statistics over sample series: median, the quartiles Python's
//! `statistics.quantiles(v, n=4)` returns (so the spread this driver
//! reports is the one the benchmark contract checks), and the percentile
//! picker.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of the finite samples; `None` for an empty series.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method (Python's default);
/// `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The sample a tenth of the way in from the fast end (nearest rank; the
/// fastest of ten or fewer). `higher_is_fast` says which end that is.
///
/// The hosts this runs on are small shared VMs whose speed drops by a
/// sixth for seconds at a time. Interference only ever adds time, so a
/// run's median follows the share of the run that was disturbed, while
/// its fast end stays at the undisturbed cost as long as any part of the
/// run was quiet. One sample in from the very end keeps a single lucky
/// reading from deciding the value.
pub fn fast_decile(v: &[f64], higher_is_fast: bool) -> Option<f64> {
    let s = sorted(v);
    if s.is_empty() {
        return None;
    }
    let rank = s.len().div_ceil(10);
    Some(if higher_is_fast { s[s.len() - rank] } else { s[rank - 1] })
}

/// Percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it (the median when even that has fewer).
pub fn pick_percentile(n: usize) -> f64 {
    let beyond = |p: f64| (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
    LADDER.iter().rev().copied().find(|&p| beyond(p) >= 10).unwrap_or(LADDER[0])
}

/// Nearest-rank percentile `p` (0..=100) of the finite samples.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let s = sorted(v);
    if s.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_decile_is_one_tenth_in_from_the_fast_end() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(fast_decile(&v, false), Some(3.0));
        assert_eq!(fast_decile(&v, true), Some(28.0));
        assert_eq!(fast_decile(&v[..10], false), Some(1.0));
        assert_eq!(fast_decile(&v[..11], true), Some(10.0));
        assert_eq!(fast_decile(&[4.0], true), Some(4.0));
        assert_eq!(fast_decile(&[], true), None);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        assert_eq!(pick_percentile(10_000), 99.9);
        assert_eq!(pick_percentile(1_000), 99.0);
        assert_eq!(pick_percentile(200), 95.0);
        assert_eq!(pick_percentile(100), 90.0);
        assert_eq!(pick_percentile(99), 75.0);
        assert_eq!(pick_percentile(40), 75.0);
        assert_eq!(pick_percentile(39), 50.0);
        assert_eq!(pick_percentile(20), 50.0);
        assert_eq!(pick_percentile(5), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
    }
}
