//! Lightweight observability primitives for the simulator: power-of-two
//! (log₂) bucket histograms, interval time series, and a small registry
//! that assembles named counters/gauges/histograms into Markdown or JSON
//! run reports.
//!
//! Everything here is observation-only and dependency-free. The hot
//! simulator paths own their [`Hist`]s directly (no name lookups per
//! sample); the [`Registry`] exists at the reporting boundary, where
//! end-of-run values are gathered under stable names.
//!
//! Merging is plain commutative integer addition, so per-worker
//! histograms folded in job-index order render byte-identically for any
//! `--jobs N` — the same determinism contract as the experiments runner.

#![warn(missing_docs)]

use std::fmt::Write as _;

/// Number of possible log₂ buckets for a `u64` sample (bucket 0 for the
/// value zero plus one bucket per bit position).
pub const MAX_BUCKETS: usize = 65;

/// A power-of-two-bucket histogram over `u64` samples.
///
/// Bucket 0 holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. The vector only grows as large as the highest
/// bucket actually hit, so an all-small distribution stays tiny.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

/// Log₂ bucket index for `v`: 0 for 0, `floor(log2(v)) + 1` otherwise.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (i - 1);
        let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
        (lo, hi)
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Record `n` samples of the same value `v`, as `n` calls of
    /// [`Hist::record`] would.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = bucket_index(v);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += n;
        self.count += n;
        self.sum += v * n;
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (commutative and associative: elementwise
    /// bucket adds, summed counts, max of maxima).
    pub fn merge(&mut self, other: &Hist) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts, lowest bucket first (trailing zero buckets are
    /// not materialized).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), assuming samples are
    /// uniformly spread within each log₂ bucket (linear interpolation
    /// between the bucket bounds). Exact for single-value buckets, an
    /// estimate otherwise; clamped to the observed maximum. 0.0 when
    /// empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                let (lo, hi) = bucket_bounds(i);
                let v = lo as f64 + frac * (hi - lo) as f64;
                return v.min(self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }

    /// JSON object: `{"count":..,"sum":..,"max":..,"mean":..,
    /// "p50":..,"p95":..,"p99":..,
    /// "buckets":[{"lo":..,"hi":..,"count":..},..]}` with empty buckets
    /// omitted.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.6},\
             \"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3},\"buckets\":[",
            self.count,
            self.sum,
            self.max,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99),
        );
        let mut first = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let (lo, hi) = bucket_bounds(i);
            let _ = write!(s, "{{\"lo\":{lo},\"hi\":{hi},\"count\":{c}}}");
        }
        s.push_str("]}");
        s
    }

    /// Text rendering: one `[lo, hi]` row per non-empty bucket with a
    /// proportional bar.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            let bar = "#".repeat((c * 40).div_ceil(peak) as usize);
            let _ = writeln!(s, "  [{lo:>8}, {hi:>8}] {c:>10} {bar}");
        }
        if self.count == 0 {
            s.push_str("  (empty)\n");
        }
        s
    }
}

/// One interval row: cumulative-counter deltas over `(start, end_cycle]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesRow {
    /// Last cycle covered by this row (a multiple of the interval except
    /// for a final partial row at the end of a run).
    pub end_cycle: u64,
    /// Column deltas, in [`Series::cols`] order.
    pub vals: Vec<u64>,
}

/// A periodic interval time series: fixed columns of integer counter
/// deltas, one row per elapsed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Snapshot period in cycles.
    pub interval: u64,
    /// Column names, parallel to every row's `vals`.
    pub cols: Vec<&'static str>,
    /// Rows in time order.
    pub rows: Vec<SeriesRow>,
}

impl Series {
    /// An empty series sampling every `interval` cycles.
    pub fn new(interval: u64, cols: Vec<&'static str>) -> Series {
        Series {
            interval: interval.max(1),
            cols,
            rows: Vec::new(),
        }
    }

    /// Append a row ending at `end_cycle`. `vals` must match `cols`.
    pub fn push(&mut self, end_cycle: u64, vals: Vec<u64>) {
        debug_assert_eq!(vals.len(), self.cols.len());
        self.rows.push(SeriesRow { end_cycle, vals });
    }

    /// Sum of one column across all rows (`None` for unknown columns) —
    /// the reconciliation hook: a delta column must total the cumulative
    /// end-of-run counter.
    pub fn column_total(&self, col: &str) -> Option<u64> {
        let i = self.cols.iter().position(|&c| c == col)?;
        Some(self.rows.iter().map(|r| r.vals[i]).sum())
    }

    /// JSON object:
    /// `{"interval":..,"cols":[..],"rows":[{"end_cycle":..,"vals":[..]},..]}`.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"interval\":{},\"cols\":[", self.interval);
        for (i, c) in self.cols.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{c}\"");
        }
        s.push_str("],\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let vals: Vec<String> = r.vals.iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "{{\"end_cycle\":{},\"vals\":[{}]}}",
                r.end_cycle,
                vals.join(",")
            );
        }
        s.push_str("]}");
        s
    }
}

/// One named value gathered at the reporting boundary.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotonically accumulated integer.
    Counter(u64),
    /// A point-in-time or derived floating value.
    Gauge(f64),
    /// A full distribution.
    Hist(Hist),
}

/// An ordered registry of named metrics, assembled once per report.
/// Insertion order is preserved so renderings are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    items: Vec<(String, Metric)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a counter value under `name`.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.items.push((name.to_owned(), Metric::Counter(v)));
    }

    /// Register a gauge value under `name`.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.items.push((name.to_owned(), Metric::Gauge(v)));
    }

    /// Register a histogram under `name`.
    pub fn hist(&mut self, name: &str, h: Hist) {
        self.items.push((name.to_owned(), Metric::Hist(h)));
    }

    /// Registered `(name, metric)` pairs in insertion order.
    pub fn items(&self) -> &[(String, Metric)] {
        &self.items
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// JSON object mapping each name to its value (histograms to their
    /// [`Hist::to_json`] objects).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, m)) in self.items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":");
            match m {
                Metric::Counter(v) => {
                    let _ = write!(s, "{v}");
                }
                Metric::Gauge(v) => {
                    let _ = write!(s, "{v:.6}");
                }
                Metric::Hist(h) => s.push_str(&h.to_json()),
            }
        }
        s.push('}');
        s
    }

    /// Markdown rendering: a `name | value` table for scalars followed by
    /// one histogram block per registered [`Hist`].
    pub fn to_markdown(&self) -> String {
        let mut s = String::from("| metric | value |\n|---|---|\n");
        for (name, m) in &self.items {
            match m {
                Metric::Counter(v) => {
                    let _ = writeln!(s, "| {name} | {v} |");
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(s, "| {name} | {v:.4} |");
                }
                Metric::Hist(_) => {}
            }
        }
        for (name, m) in &self.items {
            if let Metric::Hist(h) = m {
                let _ = writeln!(
                    s,
                    "\n**{name}** (n={}, mean={:.2}, p50={:.1}, p95={:.1}, p99={:.1}, max={})\n\n```text\n{}```",
                    h.count(),
                    h.mean(),
                    h.percentile(0.50),
                    h.percentile(0.95),
                    h.percentile(0.99),
                    h.max(),
                    h.render()
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Value 0 lives alone in bucket 0; each 2^k starts a new bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..63 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v - 1), k, "2^{k}-1 ends bucket {k}");
            assert_eq!(bucket_index(v), k + 1, "2^{k} starts bucket {}", k + 1);
            assert_eq!(bucket_index(v + 1), k + 1);
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        assert_eq!(bucket_bounds(0), (0, 0));
        for i in 1..MAX_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            let (prev_lo, prev_hi) = bucket_bounds(i - 1);
            assert!(prev_hi < lo && prev_lo <= prev_hi);
        }
        assert_eq!(bucket_bounds(64).1, u64::MAX);
    }

    #[test]
    fn record_accumulates_count_sum_max() {
        let mut h = Hist::new();
        for v in [0, 1, 2, 3, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1021);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.buckets()[0], 1); // the 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 1); // 7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[10], 1); // 1000 in [512, 1023]
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut bulk = Hist::new();
        let mut one = Hist::new();
        for (v, n) in [(5, 3), (0, 2), (1000, 1), (7, 0)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                one.record(v);
            }
        }
        assert_eq!(bulk, one);
    }

    #[test]
    fn merge_is_commutative_and_matches_single_stream() {
        let all: Vec<u64> = (0..500).map(|i| (i * i) % 777).collect();
        let mut whole = Hist::new();
        for &v in &all {
            whole.record(v);
        }
        // Split across 3 workers, merge in both orders.
        let parts: Vec<Hist> = all
            .chunks(167)
            .map(|c| {
                let mut h = Hist::new();
                for &v in c {
                    h.record(v);
                }
                h
            })
            .collect();
        let mut fwd = Hist::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Hist::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
        assert_eq!(fwd.to_json(), rev.to_json());
    }

    #[test]
    fn series_column_totals_reconcile() {
        let mut s = Series::new(100, vec!["cycles", "committed"]);
        s.push(100, vec![100, 42]);
        s.push(200, vec![100, 58]);
        s.push(250, vec![50, 10]); // final partial row
        assert_eq!(s.column_total("cycles"), Some(250));
        assert_eq!(s.column_total("committed"), Some(110));
        assert_eq!(s.column_total("nope"), None);
        let j = s.to_json();
        assert!(j.contains("\"interval\":100"));
        assert!(j.contains("{\"end_cycle\":250,\"vals\":[50,10]}"));
    }

    #[test]
    fn registry_renders_json_and_markdown() {
        let mut r = Registry::new();
        r.counter("cycles", 1000);
        r.gauge("ipc", 1.5);
        let mut h = Hist::new();
        h.record(4);
        r.hist("occupancy", h);
        let j = r.to_json();
        assert!(j.contains("\"cycles\":1000"));
        assert!(j.contains("\"ipc\":1.500000"));
        assert!(j.contains("\"occupancy\":{\"count\":1"));
        let md = r.to_markdown();
        assert!(md.contains("| cycles | 1000 |"));
        assert!(md.contains("**occupancy**"));
        assert!(matches!(r.get("cycles"), Some(Metric::Counter(1000))));
    }

    #[test]
    fn empty_hist_is_safe() {
        let h = Hist::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert!(h.render().contains("(empty)"));
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(
            h.to_json(),
            "{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0.000000,\
             \"p50\":0.000,\"p95\":0.000,\"p99\":0.000,\"buckets\":[]}"
        );
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        // 100 samples of the value 7 all land in the [4, 7] bucket; the
        // estimator assumes uniform spread inside it, so p50 is the
        // bucket midpoint and higher quantiles climb toward (and are
        // clamped by) the observed max.
        let mut h = Hist::new();
        for _ in 0..100 {
            h.record(7);
        }
        assert_eq!(h.percentile(0.50), 5.5);
        assert!((h.percentile(0.99) - 6.97).abs() < 1e-9);
        assert_eq!(h.percentile(1.0), 7.0, "p100 clamps to max");

        // Single-value buckets are exact: bucket 1 holds only [1, 1].
        let mut h = Hist::new();
        for _ in 0..10 {
            h.record(1);
        }
        assert_eq!(h.percentile(0.50), 1.0);
        assert_eq!(h.percentile(0.99), 1.0);

        // 90 samples in [0,0] and 10 in [8,15]: p50 sits in the zero
        // bucket, p95/p99 interpolate inside [8, 15], ordered and
        // bounded by the bucket.
        let mut h = Hist::new();
        for _ in 0..90 {
            h.record(0);
        }
        for v in 0..10 {
            h.record(8 + v % 8);
        }
        assert_eq!(h.percentile(0.50), 0.0);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!((8.0..=15.0).contains(&p95), "p95 {p95} inside the bucket");
        assert!(p95 <= p99, "quantiles are monotone");
        assert!(p99 <= h.max() as f64, "clamped to the observed max");
    }
}
