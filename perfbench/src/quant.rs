//! Exact percentiles over per-request samples.

/// The nearest-rank percentile `q` (in `(0, 1]`) of `sorted`: the
/// sample at 1-based rank `ceil(q * n)`.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// [`percentile`], but only when at least ten samples rank above it,
/// so the tail it reports is measured rather than a single outlier.
#[must_use]
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    let r = rank(sorted.len(), q);
    (!sorted.is_empty() && sorted.len() - r >= 10).then(|| sorted[r - 1])
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_known_samples() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.5), 500);
        assert_eq!(percentile(&s, 0.99), 990);
        assert_eq!(percentile(&s, 0.999), 999);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), 3);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let s: Vec<u64> = (1..=1000).collect();
        // p99 leaves 10 samples beyond it; p999 leaves one.
        assert_eq!(tail(&s, 0.99), Some(990));
        assert_eq!(tail(&s, 0.999), None);
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&s, 0.999), Some(9990));
        assert_eq!(tail(&[], 0.5), None);
    }
}
