//! Goodput search: the highest offered rate that meets the latency
//! limit with no growing backlog and no failed request.

/// The outcome of one probe at a fixed offered rate.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Offered rate, simulated kops/s.
    pub rate_kops: f64,
    /// p99 latency over the probe's requests, simulated µs.
    pub p99_us: f64,
    /// Outstanding requests when half the probe's arrivals were due.
    pub backlog_mid: u64,
    /// Outstanding requests when the last arrival was due.
    pub backlog_end: u64,
    /// Requests that failed (wrong, missing or refused).
    pub failed: u64,
}

impl Probe {
    /// Whether the outstanding work grew across the probe: the
    /// backlog at the last arrival is well above the one at the
    /// midpoint (an overloaded server's backlog grows linearly).
    #[must_use]
    pub fn backlog_grew(&self) -> bool {
        self.backlog_end as f64 > 1.5 * self.backlog_mid as f64 + 64.0
    }

    /// Whether the probe meets `limit_us` with no growing backlog and
    /// nothing failed.
    #[must_use]
    pub fn passes(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us && !self.backlog_grew() && self.failed == 0
    }
}

/// Bisects `[lo, hi]` kops/s for `steps` probes and returns the
/// highest passing probed rate (`None` when no probe passed) with
/// every probe in the order run. `lo` is probed first; the bisection
/// then runs over `[lo, hi]` if it passed and over `[0, lo]` if not.
/// Deterministic: the probed rates depend only on the outcomes.
pub fn goodput(
    lo: f64,
    hi: f64,
    steps: usize,
    limit_us: f64,
    mut probe: impl FnMut(f64) -> Probe,
) -> (Option<f64>, Vec<Probe>) {
    let mut probes = Vec::with_capacity(steps + 1);
    let first = probe(lo);
    probes.push(first);
    let (mut pass, mut fail, mut best) = if first.passes(limit_us) {
        (lo, hi, Some(lo))
    } else {
        (0.0, lo, None)
    };
    for _ in 0..steps {
        let mid = (pass + fail) / 2.0;
        let p = probe(mid);
        probes.push(p);
        if p.passes(limit_us) {
            pass = mid;
            best = Some(mid);
        } else {
            fail = mid;
        }
    }
    (best, probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An M/M/1-like synthetic curve: p99 = base / (1 - rate/capacity),
    /// with the backlog growing past capacity.
    fn synthetic(rate: f64, capacity: f64) -> Probe {
        let rho = rate / capacity;
        let (p99_us, grew) = if rho < 1.0 {
            (10.0 / (1.0 - rho), false)
        } else {
            (1e6, true)
        };
        Probe {
            rate_kops: rate,
            p99_us,
            backlog_mid: 100,
            backlog_end: if grew { 10_000 } else { 100 },
            failed: 0,
        }
    }

    #[test]
    fn finds_the_knee_of_a_synthetic_curve() {
        // limit 100 µs: the knee sits at rho = 0.9, i.e. 900 kops/s.
        let (best, probes) = goodput(200.0, 2000.0, 10, 100.0, |r| synthetic(r, 1000.0));
        let best = best.expect("a passing rate");
        assert!((880.0..=900.0).contains(&best), "knee found at {best}");
        assert_eq!(probes.len(), 11);
        // Deterministic: the same curve gives the same probes.
        let (again, probes2) = goodput(200.0, 2000.0, 10, 100.0, |r| synthetic(r, 1000.0));
        assert_eq!(again, Some(best));
        let rates = |p: &[Probe]| p.iter().map(|x| x.rate_kops).collect::<Vec<_>>();
        assert_eq!(rates(&probes), rates(&probes2));
    }

    #[test]
    fn searches_below_a_failing_low_bound() {
        let (best, _) = goodput(800.0, 2000.0, 8, 100.0, |r| synthetic(r, 500.0));
        let best = best.expect("a passing rate");
        assert!((430.0..=450.0).contains(&best), "knee found at {best}");
    }

    #[test]
    fn failures_and_growing_backlog_fail_a_probe() {
        let mut p = synthetic(100.0, 1000.0);
        assert!(p.passes(100.0));
        p.failed = 1;
        assert!(!p.passes(100.0));
        p.failed = 0;
        p.backlog_end = 1000;
        assert!(p.backlog_grew());
        assert!(!p.passes(100.0));
    }
}
