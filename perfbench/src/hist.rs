//! Fixed-size log-linear histogram of nanosecond durations.
//!
//! Values below 128 ns get a bucket each; above that every power of two is
//! split into 64 buckets (1.6 % relative width). Percentiles interpolate
//! linearly inside the bucket that holds the requested rank, so a reported
//! value moves continuously with the data instead of snapping to bucket
//! edges. Memory is constant (about 30 KiB), so recording many samples
//! does not grow the process and skew the peak-memory metric.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Exact indices below `2 * SUB`, then 64 per power of two up to `u64::MAX`.
const BUCKETS: usize = ((63 - SUB_BITS) as usize) * SUB as usize + 2 * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (shift as u64 * SUB + (v >> shift)) as usize
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    (((i - shift * SUB) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// Mean in nanoseconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.n as f64).max(0.5);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, width) = bounds(i);
                return lo + width * ((target - below as f64) / c as f64);
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (lo, width) = bounds(last);
        lo + width
    }

    /// Number of samples strictly above the `q`-quantile's bucket: how many
    /// samples a reported percentile rests on.
    pub fn samples_above(&self, q: f64) -> u64 {
        let v = self.quantile(q);
        let cut = index(v as u64);
        self.counts[cut + 1..].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range_contiguously() {
        let mut prev_end = 0.0;
        for i in 0..BUCKETS {
            let (lo, w) = bounds(i);
            assert_eq!(lo, prev_end, "bucket {i} must start where {} ended", i - 1);
            prev_end = lo + w;
        }
        for v in [0, 1, 127, 128, 129, 1000, 123_456_789, 1 << 50] {
            let (lo, w) = bounds(index(v));
            assert!(
                v as f64 >= lo && (v as f64) < lo + w,
                "{v} outside its bucket"
            );
        }
    }

    #[test]
    fn quantiles_track_uniform_data_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = q * 100_000.0;
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.02, "q{q}: {got} vs {want}");
        }
        assert!((h.mean() - 50_000.5).abs() < 1e-6);
        // 1000 samples lie above the p99; those in its own bucket do not count.
        assert!((600..=1000).contains(&h.samples_above(0.99)));
    }
}
