//! Metrics: lock-free counters, gauges, and log2-bucket histograms behind
//! a name-keyed [`Registry`].
//!
//! Naming convention (see DESIGN.md §9): dot-separated lowercase paths,
//! `subsystem.object.property` (`tcp.dial.retries`,
//! `service.decide.latency_us`); labels render into the key as
//! `name{k=v,...}` with keys in call-site order. Units are spelled in the
//! final segment (`_us`, `_bytes`, `_frames`).
//!
//! Histograms use 65 fixed log2 buckets — bucket 0 holds exact zeros,
//! bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)` — so two snapshots
//! merge *exactly* (element-wise add; no rebinning error), and percentile
//! estimates carry a bounded relative error of at most one bucket width
//! (< 2×), tightened by intra-bucket interpolation and clamped to the
//! exact tracked `[min, max]`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize, Value};

/// Number of histogram buckets: one for zero + one per power of two.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of `v`: 0 for 0, else `floor(log2 v) + 1`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (0 for buckets 0 and 1).
#[must_use]
pub fn bucket_low(i: usize) -> u64 {
    if i <= 1 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
#[must_use]
pub fn bucket_high(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Monotone counter handle (clone = same underlying cell).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous gauge handle (clone = same underlying cell).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (high-water mark).
    pub fn record_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCells {
    fn default() -> HistCells {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Log2-bucket histogram handle (clone = same underlying cells).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistCells>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot for reporting (individual loads are
    /// relaxed; concurrent writers may skew totals by in-flight samples).
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let c = &self.0;
        HistSnapshot {
            buckets: c.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            min: c.min.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// Owned histogram state: mergeable, queryable, serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (`HIST_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Exact merge: log2 buckets line up, so merging is element-wise
    /// addition — associative and commutative with no rebinning error.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean sample (NaN when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `p`-th percentile (`0 < p ≤ 100`), NaN when empty.
    ///
    /// Locates the bucket holding the nearest-rank sample, interpolates
    /// linearly by rank inside the bucket, and clamps to the exact
    /// tracked `[min, max]`; estimates are therefore monotone in `p`,
    /// exact at the extremes, and never off by more than one bucket
    /// width in between.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        // Nearest-rank (1-based): the smallest rank covering fraction p.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let within = (rank - cum) as f64 / n as f64; // (0, 1]
                let low = bucket_low(i) as f64;
                let high = bucket_high(i) as f64;
                let est = low + (high - low) * within;
                return est.clamp(self.min as f64, self.max as f64);
            }
            cum += n;
        }
        self.max as f64
    }

    /// Render as one JSONL record line: `{"t":"hist","name":...}`.
    #[must_use]
    pub fn to_json_line(&self, name: &str) -> String {
        let doc = Value::Object(vec![
            ("t".into(), Value::Str("hist".into())),
            ("name".into(), Value::Str(name.into())),
            ("count".into(), Value::UInt(self.count)),
            ("sum".into(), Value::UInt(self.sum)),
            ("min".into(), Value::UInt(if self.count == 0 { 0 } else { self.min })),
            ("max".into(), Value::UInt(self.max)),
            (
                "buckets".into(),
                Value::Array(self.buckets.iter().map(|&b| Value::UInt(b)).collect()),
            ),
        ]);
        let mut out = String::new();
        doc.render(&mut out);
        out
    }

    /// Parse a `{"t":"hist",...}` record; `None` for other lines.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<(String, HistSnapshot)> {
        if v.get("t")?.as_str()? != "hist" {
            return None;
        }
        let count = v.get("count")?.as_u64()?;
        let buckets: Vec<u64> = v
            .get("buckets")?
            .as_array()?
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        if buckets.len() != HIST_BUCKETS {
            return None;
        }
        Some((
            v.get("name")?.as_str()?.to_string(),
            HistSnapshot {
                buckets,
                count,
                sum: v.get("sum")?.as_u64()?,
                min: if count == 0 { u64::MAX } else { v.get("min")?.as_u64()? },
                max: v.get("max")?.as_u64()?,
            },
        ))
    }
}

/// A point-in-time reading of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram snapshot.
    Histogram(HistSnapshot),
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Name-keyed metric registry. Cloning shares the underlying map, so one
/// registry can be handed to every node thread of a run; `global()` is the
/// process-wide instance used by code with no registry in reach (geometry
/// kernels, TCP dialing).
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

impl Registry {
    /// New empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Counter handle for `name` (created on first use).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Labeled counter handle; the key renders as `name{k=v,...}`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric type.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = labeled(name, labels);
        let mut map = self.metrics.lock().expect("registry poisoned");
        match map.entry(key).or_insert_with(|| Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {} is not a counter", labeled(name, labels)),
        }
    }

    /// Gauge handle for `name` (created on first use).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Labeled gauge handle.
    ///
    /// # Panics
    /// If the key is already registered as a different metric type.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = labeled(name, labels);
        let mut map = self.metrics.lock().expect("registry poisoned");
        match map.entry(key).or_insert_with(|| Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {} is not a gauge", labeled(name, labels)),
        }
    }

    /// Histogram handle for `name` (created on first use).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Labeled histogram handle.
    ///
    /// # Panics
    /// If the key is already registered as a different metric type.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = labeled(name, labels);
        let mut map = self.metrics.lock().expect("registry poisoned");
        match map.entry(key).or_insert_with(|| Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {} is not a histogram", labeled(name, labels)),
        }
    }

    /// Read every registered metric, sorted by key.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let map = self.metrics.lock().expect("registry poisoned");
        map.iter()
            .map(|(k, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (k.clone(), v)
            })
            .collect()
    }

    /// Render the whole registry as JSONL record lines (one per metric):
    /// `{"t":"counter"|"gauge"|"hist",...}`.
    #[must_use]
    pub fn to_jsonl_lines(&self) -> Vec<String> {
        self.snapshot()
            .into_iter()
            .map(|(name, v)| match v {
                MetricValue::Counter(c) => {
                    let doc = Value::Object(vec![
                        ("t".into(), Value::Str("counter".into())),
                        ("name".into(), Value::Str(name)),
                        ("value".into(), Value::UInt(c)),
                    ]);
                    let mut out = String::new();
                    doc.render(&mut out);
                    out
                }
                MetricValue::Gauge(g) => {
                    let doc = Value::Object(vec![
                        ("t".into(), Value::Str("gauge".into())),
                        ("name".into(), Value::Str(name)),
                        ("value".into(), Value::Int(g)),
                    ]);
                    let mut out = String::new();
                    doc.render(&mut out);
                    out
                }
                MetricValue::Histogram(h) => h.to_json_line(&name),
            })
            .collect()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.metrics.lock().expect("registry poisoned");
        f.debug_struct("Registry").field("metrics", &map.len()).finish()
    }
}

/// Message/round counters for one execution (the original 3-counter trace,
/// kept verbatim for the sync/async engines; richer runs use [`Registry`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Total point-to-point messages sent.
    pub messages_sent: u64,
    /// Rounds executed (synchronous) or scheduler steps (asynchronous).
    pub rounds: u64,
    /// Messages delivered (asynchronous engine; equals sent for lockstep).
    pub messages_delivered: u64,
}

impl ExecutionTrace {
    /// Count one sent message.
    pub fn record_message(&mut self) {
        self.messages_sent += 1;
    }

    /// Count one delivered message.
    pub fn record_delivery(&mut self) {
        self.messages_delivered += 1;
    }

    /// Count one round / scheduler step.
    pub fn record_round(&mut self) {
        self.rounds += 1;
    }

    /// Merge another trace into this one (for multi-phase protocols).
    pub fn absorb(&mut self, other: &ExecutionTrace) {
        self.messages_sent += other.messages_sent;
        self.rounds += other.rounds;
        self.messages_delivered += other.messages_delivered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's bounds agree with its index mapping.
        for i in 1..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_low(i).max(1)), i);
            assert_eq!(bucket_index(bucket_high(i)), i);
        }
    }

    #[test]
    fn histogram_counts_land_in_their_buckets() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 9);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 2); // 4, 7
        assert_eq!(s.buckets[4], 1); // 8
        assert_eq!(s.buckets[10], 1); // 1023
        assert_eq!(s.buckets[11], 1); // 1024
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.sum, 2072);
    }

    /// Merging is associative and commutative: (a ∪ b) ∪ c == a ∪ (b ∪ c)
    /// for every field, because buckets are fixed and add element-wise.
    #[test]
    fn merge_is_associative_and_commutative() {
        let make = |vals: &[u64]| {
            let h = Histogram::default();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = make(&[1, 5, 9]);
        let b = make(&[0, 2, 1000]);
        let c = make(&[7, 7, 65535]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab, ba);
        assert_eq!(ab_c.count, 9);
    }

    /// The percentile estimate is exact at the extremes and within one
    /// bucket width (a factor of 2) of the true nearest-rank value inside.
    #[test]
    fn percentile_error_is_bounded_by_one_bucket() {
        let h = Histogram::default();
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 3u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = x % 10_000;
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        let s = h.snapshot();
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
            let truth = samples[rank - 1] as f64;
            let est = s.percentile(p);
            // One log2 bucket: est and truth share a bucket (or clamp),
            // so est ∈ [truth/2, 2·truth] modulo the zero bucket.
            assert!(
                est <= 2.0 * truth.max(1.0) && est >= truth / 2.0 - 1.0,
                "p{p}: est {est} vs truth {truth}"
            );
        }
        assert_eq!(s.percentile(100.0), s.max as f64);
        assert!((s.percentile(0.1) - s.min as f64).abs() <= s.min as f64);
        // Monotone in p.
        let mut last = 0.0f64;
        for p in 1..=100 {
            let v = s.percentile(f64::from(p));
            assert!(v >= last, "percentiles must be monotone");
            last = v;
        }
    }

    #[test]
    fn percentile_of_empty_and_singleton() {
        assert!(HistSnapshot::default().percentile(50.0).is_nan());
        let h = Histogram::default();
        h.record(42);
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), 42.0);
        assert_eq!(s.percentile(99.0), 42.0);
    }

    #[test]
    fn hist_json_round_trips() {
        let h = Histogram::default();
        for v in [1u64, 100, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let line = s.to_json_line("x.y_us");
        let v = serde_json::from_str(&line).expect("parses");
        let (name, back) = HistSnapshot::from_value(&v).expect("hist line");
        assert_eq!(name, "x.y_us");
        assert_eq!(back, s);
    }

    #[test]
    fn registry_shares_handles_and_labels_keys() {
        let reg = Registry::new();
        let c1 = reg.counter("a.b");
        let c2 = reg.counter("a.b");
        c1.inc();
        c2.add(2);
        assert_eq!(reg.counter("a.b").get(), 3);
        let l = reg.counter_with("a.b", &[("node", "3")]);
        l.inc();
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a.b", "a.b{node=3}"]);
        reg.gauge("g").record_max(5);
        reg.gauge("g").record_max(3);
        assert_eq!(reg.gauge("g").get(), 5);
    }

    #[test]
    fn execution_trace_counters_accumulate_and_absorb() {
        let mut t = ExecutionTrace::default();
        t.record_message();
        t.record_message();
        t.record_round();
        t.record_delivery();
        assert_eq!((t.messages_sent, t.rounds, t.messages_delivered), (2, 1, 1));
        let b = ExecutionTrace { messages_sent: 10, rounds: 4, messages_delivered: 9 };
        t.absorb(&b);
        assert_eq!((t.messages_sent, t.rounds, t.messages_delivered), (12, 5, 10));
    }
}
