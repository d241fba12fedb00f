//! Client-side latency histogram and small numeric helpers.

use std::time::Duration;

/// Sub-buckets per power of two: a quantile read from a bucket midpoint
/// is within 0.4% of the true sample.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 40;

/// Log-linear latency histogram (HDR style). Fixed size, so recording
/// millions of samples neither allocates nor moves the peak RSS.
pub struct LatHist {
    buckets: Vec<u64>,
    count: u64,
}

fn bucket(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let idx = (shift as usize + 1) * SUB + ((ns >> shift) as usize - SUB);
    idx.min(SUB * (OCTAVES + 1) - 1)
}

/// A bucket's range `[low, low + width)`, in ns.
fn bucket_range(idx: usize) -> (f64, f64) {
    if idx < SUB {
        return (idx as f64, 1.0);
    }
    let shift = (idx / SUB - 1) as u32;
    (
        (((SUB + idx % SUB) as u64) << shift) as f64,
        (1u64 << shift) as f64,
    )
}

impl LatHist {
    pub fn new() -> LatHist {
        LatHist {
            buckets: vec![0; SUB * (OCTAVES + 1)],
            count: 0,
        }
    }

    pub fn record(&mut self, d: Duration) {
        self.buckets[bucket(d.as_nanos().min(u64::MAX as u128) as u64)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in microseconds (0 when empty), interpolated
    /// within its bucket as if the bucket's samples were spread evenly.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).clamp(1.0, self.count as f64);
        let mut seen = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && seen + c >= target {
                let (low, width) = bucket_range(i);
                return (low + width * (target - seen) / c) / 1e3;
            }
            seen += c;
        }
        unreachable!("target is at most the sample count")
    }
}

/// The machine's CPU time from the `cpu` line of `/proc/stat`, in clock
/// ticks: time spent running anything, and time a vCPU was ready to run
/// while the hypervisor ran something else (steal).
#[derive(Clone, Copy, Default, Debug)]
pub struct CpuTicks {
    pub busy: u64,
    pub steal: u64,
}

impl CpuTicks {
    /// All zero where `/proc/stat` cannot be read, which turns the steal
    /// correction off.
    pub fn read() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if fields.len() < 8 {
            return CpuTicks::default();
        }
        // user nice system idle iowait irq softirq steal ...
        CpuTicks {
            busy: fields[0] + fields[1] + fields[2] + fields[5] + fields[6],
            steal: fields[7],
        }
    }

    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            busy: self.busy.saturating_sub(earlier.busy),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }

    pub fn add(self, other: CpuTicks) -> CpuTicks {
        CpuTicks {
            busy: self.busy + other.busy,
            steal: self.steal + other.steal,
        }
    }

    /// The share of the CPU time the machine asked for that it did not
    /// get; `None` when no CPU time was accounted.
    pub fn stolen_share(self) -> Option<f64> {
        let asked = self.busy + self.steal;
        (self.busy > 0).then(|| self.steal as f64 / asked as f64)
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `n / d`, or 0 when nothing was counted.
pub fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = LatHist::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        for (q, want) in [(0.5, 500.0), (0.99, 990.0), (0.999, 999.0)] {
            let got = h.quantile_us(q);
            assert!((got - want).abs() / want < 0.005, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn buckets_are_monotonic() {
        let mut prev = 0;
        for ns in (0..1_000_000u64).step_by(37) {
            let b = bucket(ns);
            assert!(b >= prev);
            prev = b;
        }
    }
}
