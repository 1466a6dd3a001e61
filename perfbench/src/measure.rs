//! Latency histogram, memory reading, and the result line.

/// Sub-bucket bits: values below `2^SUB` ns are exact, larger ones keep
/// `SUB - 1` bits (0.1 %) of precision. Fixed size, so the sample count
/// does not show in the run's memory.
const SUB: u32 = 11;
const HALF: usize = 1 << (SUB - 1);
const BUCKETS: usize = (64 - SUB as usize + 2) * HALF;

pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < 1 << SUB {
            v as usize
        } else {
            let shift = 64 - v.leading_zeros() - SUB;
            ((shift as usize) << (SUB - 1)) + (v >> shift) as usize
        }
    }

    /// The middle of bucket `i`, in ns.
    fn value(i: usize) -> f64 {
        if i < 1 << SUB {
            i as f64
        } else {
            let shift = i / HALF - 1;
            let low = ((i - shift * HALF) as u64) << shift;
            low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in ns: the smallest recorded value with at least
    /// `ceil(q * n)` samples at or below it.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        0.0
    }

    /// Samples strictly beyond the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - ((q * self.total as f64).ceil() as u64).min(self.total)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics every workload reports, from its latency
/// histogram and counts, and after them two that are printed by name but
/// left out of the result object:
///
/// * `op_p99_us`, with the samples beyond it: beyond p98 the latencies on a
///   shared VM are mostly interference, and their spread between runs
///   exceeded any usable bound;
/// * `fail_ratio`: it is 0 on a correct run, where a bound relative to the
///   median means nothing; the result object carries `failed` and
///   `attempted` instead.
pub fn end_to_end(
    hist: &Histogram,
    attempted: u64,
    wall_s: f64,
    setup_s: f64,
    failed: u64,
) -> (Vec<Metric>, Vec<Metric>) {
    let us = |q: f64| hist.quantile(q) / 1000.0;
    println!(
        "# latency samples {}: {} beyond p90, {} beyond p99",
        hist.count(),
        hist.beyond(0.90),
        hist.beyond(0.99)
    );
    let reported = vec![
        metric("ops_per_s", ratio(hist.count() as f64, wall_s), "1/s"),
        metric("op_p50_us", us(0.50), "us"),
        metric("op_p90_us", us(0.90), "us"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let printed = vec![
        metric("op_p99_us", us(0.99), "us"),
        metric(
            "fail_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ];
    (reported, printed)
}

fn print_metric(m: &Metric) {
    println!("{:<28} {:>16} {}", m.name, format!("{}", m.value), m.unit);
}

/// Prints every metric by name (then the `printed` ones), then the result
/// object, with the `reported` metrics, as the last line.
pub fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    reported: &[Metric],
    printed: &[Metric],
) {
    reported.iter().chain(printed).for_each(print_metric);
    let body: Vec<String> = reported
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_contiguous_and_precise() {
        let mut last = 0;
        for v in [0u64, 1, 2047, 2048, 2049, 4095, 4096, 1 << 20, 123_456_789] {
            let i = Histogram::index(v);
            assert!(i >= last && i < BUCKETS);
            last = i;
            let mid = Histogram::value(i);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 1000.0 + 0.5,
                "{v} -> {mid}"
            );
        }
    }

    #[test]
    fn quantiles_follow_ranks() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 500.0);
        assert_eq!(h.quantile(0.99), 990.0);
        assert_eq!(h.beyond(0.99), 10);
    }
}
