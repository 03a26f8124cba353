//! Virtual-time metrics registry: per-task counters and log-bucketed
//! latency histograms underneath the traced-stage observability layer.
//!
//! Everything the harness reported before this crate was a mean. The
//! traced stages already carry per-sample virtual-clock durations; this
//! registry accumulates them into fixed-shape histograms so a run can
//! report p50/p95/p99/p99.9 per stage instead of collapsing the
//! distribution. Three constraints shape the design, mirroring
//! `bband_trace`:
//!
//! * **No allocation once a name is in use.** A registry reserves its
//!   name tables at [`collect`] time. A histogram's bucket array is
//!   allocated on its name's first record, as a window's is on the first
//!   sample that lands in it; after that, recording is a name lookup plus
//!   a handful of index writes. Names beyond [`MAX_NAMES`] are counted in
//!   `dropped`, never silently folded.
//! * **One thread-local read when disabled.** The whole crate is gated on
//!   a per-thread collector count; with no [`collect`] scope live on the
//!   calling thread the fast path of [`record_ps`]/[`counter`] is a single
//!   thread-local read and a branch.
//! * **Deterministic serial-vs-pool drain.** [`collect`] returns a
//!   [`TaskMetrics`] per pool task; [`MetricsSet::from_tasks`] merges them
//!   by task index in first-appearance order, so the merged output is
//!   byte-identical no matter which worker thread ran which task.
//!
//! Histograms are HDR-style base-2 log buckets with [`SUB_BUCKETS`] linear
//! sub-buckets per octave: relative bucket width is bounded (≤ 12.5%), the
//! index math is a handful of bit operations, and the whole shape is a
//! fixed [`NUM_BUCKETS`]-slot array — no per-value allocation, ever.
//! Values are virtual-time picoseconds (or any u64 the caller keys by).

use bband_sim::SimDuration;
use std::cell::{Cell, RefCell};

/// Maximum distinct histogram names (and, separately, counter names) one
/// registry tracks. Recordings to further names are counted as dropped.
pub const MAX_NAMES: usize = 64;

/// log2 of the linear sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 3;

/// Linear sub-buckets per octave: relative error ≤ 1/8 per bucket.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total buckets: one octave group per shifted msb position plus the
/// exact sub-[`SUB_BUCKETS`] values, covering the full u64 range.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Bucket index for a recorded value. Values below [`SUB_BUCKETS`] get
/// exact single-value buckets; above, the top `SUB_BITS` bits after the
/// most significant bit select a linear sub-bucket within the octave.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
    ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
}

/// Inclusive lower bound and exclusive width of bucket `i` — the inverse
/// of [`bucket_index`]: every value in `[lo, lo + width)` maps to `i`.
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < NUM_BUCKETS);
    let group = i >> SUB_BITS;
    let sub = (i & (SUB_BUCKETS - 1)) as u64;
    if group == 0 {
        (sub, 1)
    } else {
        let width = 1u64 << (group - 1);
        ((SUB_BUCKETS as u64 + sub) << (group - 1), width)
    }
}

/// One merged (or per-task) histogram: fixed bucket array plus exact
/// count/sum/min/max sidecars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Registry name (`&'static str` from the recording site).
    pub name: &'static str,
    /// Occupancy per [`bucket_index`] slot.
    pub buckets: Vec<u64>,
    /// Total recorded samples.
    pub count: u64,
    /// Exact sum of all recorded values (for exact means).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// An empty histogram named `name`, for a caller that records values
    /// itself and hands the result to [`merge`].
    pub fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Add one value: the one per-sample update, for aggregates, windows
    /// and caller-held histograms alike.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Exact mean of the recorded values, in nanoseconds (values are
    /// picoseconds).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64 / 1000.0
    }

    /// Quantile `q` in `[0, 1]` of the recorded distribution, linearly
    /// interpolated within the containing bucket, in raw (picosecond)
    /// units. The 0-based fractional rank is `q * (count - 1)`, so
    /// `quantile(0.5)` over the exact values `0..=7` is 3.5 — the
    /// textbook median. Exact `min`/`max` clamp the ends, so p0 and p100
    /// are always the true extremes regardless of bucket width.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * (self.count - 1) as f64;
        let mut before = 0u64;
        for (i, &k) in self.buckets.iter().enumerate() {
            if k == 0 {
                continue;
            }
            if rank < (before + k) as f64 {
                let (lo, width) = bucket_bounds(i);
                let frac = (rank - before as f64) / k as f64;
                let v = lo as f64 + width as f64 * frac;
                return v.clamp(self.min as f64, self.max as f64);
            }
            before += k;
        }
        self.max as f64
    }

    /// [`Histogram::quantile`] converted to nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        self.quantile(q) / 1000.0
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One named monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Registry name.
    pub name: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// One fixed-width virtual-time window of a [`WindowSeries`]: the
/// histogram of every sample whose *timestamp* fell in
/// `[index * width, (index + 1) * width)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSlice {
    /// Window number: `timestamp_ps / width_ps`.
    pub index: u64,
    /// Distribution of the values recorded inside this window.
    pub hist: Histogram,
}

/// A histogram split into fixed-width virtual-time windows so long runs
/// show drift over time instead of one aggregate. Only populated inside
/// [`collect_windowed`] scopes, and only by timestamped recordings
/// ([`record_ps_at`]); plain [`record_ps`] feeds the aggregate alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSeries {
    /// Registry name (same namespace as the aggregate histogram).
    pub name: &'static str,
    /// Window width in virtual-time picoseconds.
    pub width_ps: u64,
    /// Occupied windows, sorted by `index`; empty windows are absent.
    pub windows: Vec<WindowSlice>,
}

/// Everything one [`collect`] scope accumulated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskMetrics {
    /// Histograms in first-recording order.
    pub hists: Vec<Histogram>,
    /// Counters in first-recording order.
    pub counters: Vec<Counter>,
    /// Windowed series (empty unless collected via [`collect_windowed`]).
    pub windows: Vec<WindowSeries>,
    /// Recordings lost to name-table overflow ([`MAX_NAMES`]).
    pub dropped: u64,
}

/// The deterministic merge of per-task metrics: histograms and counters
/// united by name in task-major first-appearance order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSet {
    /// Merged histograms, first-appearance order over tasks.
    pub hists: Vec<Histogram>,
    /// Merged counters, first-appearance order over tasks.
    pub counters: Vec<Counter>,
    /// Merged windowed series, first-appearance order over tasks; windows
    /// of the same `(name, index)` merge, so the result is independent of
    /// which worker thread ran which task.
    pub windows: Vec<WindowSeries>,
    /// Total recordings lost to name-table overflow, summed over tasks.
    pub dropped: u64,
}

impl MetricsSet {
    /// Merge per-task metrics by name. Task index order (not thread
    /// schedule) fixes the output order, so pooled and serial runs that
    /// produced the same tasks merge to identical sets.
    pub fn from_tasks(tasks: Vec<TaskMetrics>) -> Self {
        let mut set = MetricsSet::default();
        for task in tasks {
            set.dropped += task.dropped;
            for h in &task.hists {
                match set.hists.iter_mut().find(|m| m.name == h.name) {
                    Some(m) => m.merge(h),
                    None => set.hists.push(h.clone()),
                }
            }
            for c in &task.counters {
                match set.counters.iter_mut().find(|m| m.name == c.name) {
                    Some(m) => m.value += c.value,
                    None => set.counters.push(*c),
                }
            }
            for w in &task.windows {
                match set.windows.iter_mut().find(|m| m.name == w.name) {
                    Some(m) => {
                        assert_eq!(
                            m.width_ps, w.width_ps,
                            "windowed series {} merged across different widths",
                            w.name
                        );
                        for slice in &w.windows {
                            match m.windows.binary_search_by_key(&slice.index, |s| s.index) {
                                Ok(p) => m.windows[p].hist.merge(&slice.hist),
                                Err(p) => m.windows.insert(p, slice.clone()),
                            }
                        }
                    }
                    None => set.windows.push(w.clone()),
                }
            }
        }
        set
    }

    /// Wrap a single task (serial collection).
    pub fn from_task(task: TaskMetrics) -> Self {
        Self::from_tasks(vec![task])
    }

    /// The merged histogram named `name`, if any task recorded to it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// The merged value of counter `name` (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// The merged windowed series named `name`, if any task recorded one.
    pub fn window_series(&self, name: &str) -> Option<&WindowSeries> {
        self.windows.iter().find(|w| w.name == name)
    }
}

/// The recording registry for one collect scope. Its tables are
/// reserved for [`MAX_NAMES`] entries up front; a histogram (and a window)
/// allocates its buckets on first use, and recording never allocates
/// after that.
struct Registry {
    /// Histograms in first-recording order.
    hists: Vec<Histogram>,
    counters: Vec<Counter>,
    /// Window width in ps; 0 disables windowing (plain [`collect`]).
    window_width: u64,
    /// Occupied windows per histogram, parallel to `hists`, sorted by
    /// index. How many windows a run occupies depends on its data.
    windows: Vec<Vec<WindowSlice>>,
    dropped: u64,
}

impl Registry {
    fn new() -> Self {
        Registry::with_window(0)
    }

    fn with_window(window_width: u64) -> Self {
        Registry {
            hists: Vec::with_capacity(MAX_NAMES),
            counters: Vec::with_capacity(MAX_NAMES),
            window_width,
            windows: Vec::with_capacity(MAX_NAMES),
            dropped: 0,
        }
    }

    /// The slot of histogram `name`, registered on first use. A full name
    /// table drops the `values` recordings the caller is making.
    #[inline]
    fn name_slot(&mut self, name: &'static str, values: u64) -> Option<usize> {
        match self.hists.iter().position(|h| h.name == name) {
            Some(h) => Some(h),
            None if self.hists.len() < MAX_NAMES => {
                self.hists.push(Histogram::new(name));
                self.windows.push(Vec::new());
                Some(self.hists.len() - 1)
            }
            None => {
                self.dropped += values;
                None
            }
        }
    }

    #[inline]
    fn record(&mut self, name: &'static str, v: u64) {
        if let Some(h) = self.name_slot(name, 1) {
            self.hists[h].record(v);
        }
    }

    /// Every value of `h` at once, into the aggregate only, as
    /// [`Registry::record`] of each would leave it.
    fn merge(&mut self, h: &Histogram) {
        if let Some(slot) = self.name_slot(h.name, h.count) {
            self.hists[slot].merge(h);
        }
    }

    /// Timestamped recording: aggregate as [`Registry::record`] plus, when
    /// windowing is on, the window containing `at_ps`.
    #[inline]
    fn record_at(&mut self, name: &'static str, v: u64, at_ps: u64) {
        let Some(h) = self.name_slot(name, 1) else {
            return;
        };
        self.hists[h].record(v);
        if self.window_width == 0 {
            return;
        }
        let index = at_ps / self.window_width;
        let slices = &mut self.windows[h];
        // Samples mostly arrive in nondecreasing virtual time, so the hot
        // path is the window of the previous sample.
        let pos = if slices.last().map(|s| s.index) == Some(index) {
            slices.len() - 1
        } else {
            slices
                .binary_search_by_key(&index, |s| s.index)
                .unwrap_or_else(|p| {
                    let hist = Histogram::new(name);
                    slices.insert(p, WindowSlice { index, hist });
                    p
                })
        };
        slices[pos].hist.record(v);
    }

    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter().position(|c| c.name == name) {
            Some(c) => self.counters[c].value += delta,
            None if self.counters.len() < MAX_NAMES => {
                self.counters.push(Counter { name, value: delta });
            }
            None => self.dropped += 1,
        }
    }

    fn into_task(self) -> TaskMetrics {
        let width_ps = self.window_width;
        let windows = self
            .hists
            .iter()
            .zip(self.windows)
            .filter(|(_, windows)| !windows.is_empty())
            .map(|(h, windows)| WindowSeries {
                name: h.name,
                width_ps,
                windows,
            })
            .collect();
        TaskMetrics {
            hists: self.hists,
            counters: self.counters,
            windows,
            dropped: self.dropped,
        }
    }
}

thread_local! {
    /// Live [`collect`] scopes on this thread. The disabled fast path of
    /// every recording call is one read of this.
    static COLLECTORS: Cell<u32> = const { Cell::new(0) };
    static REGISTRY: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

/// Is a collect scope live on this thread? One thread-local read.
#[inline]
pub fn enabled() -> bool {
    COLLECTORS.with(|c| c.get() != 0)
}

/// Record a raw value (virtual-time picoseconds by convention) into the
/// histogram named `name`. No-op (one thread-local read) unless a
/// collector is installed on this thread.
#[inline]
pub fn record_ps(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().last_mut() {
            reg.record(name, v);
        }
    });
}

/// Record a virtual-time duration into the histogram named `name`.
#[inline]
pub fn record(name: &'static str, dur: SimDuration) {
    record_ps(name, dur.as_ps());
}

/// Record a raw value with the virtual-time instant `at_ps` it belongs to.
/// Aggregates exactly like [`record_ps`]; inside a [`collect_windowed`]
/// scope the value additionally lands in the fixed-width window that
/// contains `at_ps`.
#[inline]
pub fn record_ps_at(name: &'static str, v: u64, at_ps: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().last_mut() {
            reg.record_at(name, v, at_ps);
        }
    });
}

/// Fold a histogram the caller filled with [`Histogram::record`] into the
/// registry's histogram of the same name: one registry write for many
/// values, leaving the registry exactly as [`record_ps`] of each value
/// would. An empty `h` registers no name, a full name table counts all of
/// its values as dropped, and only the aggregate is fed (a histogram
/// carries no timestamps for windows). Same gating as [`record_ps`].
pub fn merge(h: &Histogram) {
    if h.count == 0 || !enabled() {
        return;
    }
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().last_mut() {
            reg.merge(h);
        }
    });
}

/// Add `delta` to the counter named `name`. Same gating as [`record_ps`].
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().last_mut() {
            reg.counter(name, delta);
        }
    });
}

/// Run `f` with a fresh registry installed on this thread, returning its
/// result and everything it recorded. The unit of deterministic merging:
/// wrap each [`bband_sim::WorkerPool`] task closure in `collect` and merge
/// the returned [`TaskMetrics`] by task index. Scopes nest; the inner
/// scope shadows the outer until it returns.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, TaskMetrics) {
    collect_with(Registry::new(), f)
}

/// Like [`collect`], but additionally splits every timestamped recording
/// ([`record_ps_at`]) into fixed-width virtual-time windows of `width`.
/// Merging windowed tasks is deterministic: windows key on
/// `(name, at_ps / width)`, which depends only on the recorded data.
pub fn collect_windowed<R>(width: SimDuration, f: impl FnOnce() -> R) -> (R, TaskMetrics) {
    assert!(!width.is_zero(), "window width must be non-zero");
    collect_with(Registry::with_window(width.as_ps()), f)
}

fn collect_with<R>(reg: Registry, f: impl FnOnce() -> R) -> (R, TaskMetrics) {
    REGISTRY.with(|r| r.borrow_mut().push(reg));
    COLLECTORS.with(|c| c.set(c.get() + 1));
    let out = f();
    COLLECTORS.with(|c| c.set(c.get() - 1));
    let reg = REGISTRY
        .with(|r| r.borrow_mut().pop())
        .expect("metrics registry stack underflow");
    (out, reg.into_task())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_below_the_first_octave() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, 1));
        }
        // The first octave group continues exact single-value buckets.
        for v in SUB_BUCKETS as u64..2 * SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, 1));
        }
    }

    #[test]
    fn bucket_bounds_invert_the_index_across_octaves() {
        // Boundary probes per bucket: lo, lo + width - 1 map to i; the
        // neighbours map off it.
        for i in 0..NUM_BUCKETS {
            let (lo, width) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(lo + (width - 1)), i, "hi of bucket {i}");
            if lo > 0 {
                assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
            }
            if let Some(next) = lo.checked_add(width) {
                assert_eq!(bucket_index(next), i + 1, "above bucket {i}");
            } else {
                assert_eq!(i, NUM_BUCKETS - 1, "only the top bucket ends at 2^64");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        // Log-bucket resolution: every bucket above the exact range is no
        // wider than lo/SUB_BUCKETS — ≤ 12.5% relative error.
        for i in 2 * SUB_BUCKETS..NUM_BUCKETS {
            let (lo, width) = bucket_bounds(i);
            assert!(width * SUB_BUCKETS as u64 <= lo, "bucket {i} too wide");
        }
    }

    #[test]
    fn quantile_interpolates_within_exact_buckets() {
        let (_, task) = collect(|| {
            for v in 0..8u64 {
                record_ps("lat", v);
            }
        });
        let set = MetricsSet::from_task(task);
        let h = set.hist("lat").unwrap();
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 28);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 7);
        // Median of 0..=7 is 3.5 by linear interpolation.
        assert!((h.quantile(0.5) - 3.5).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 7.0);
        // p25 over ranks 0..7: rank 1.75 inside bucket [1, 2).
        assert!((h.quantile(0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_respects_exact_min_and_max() {
        let (_, task) = collect(|| {
            record_ps("lat", 1_000_003);
            record_ps("lat", 1_000_003);
        });
        let set = MetricsSet::from_task(task);
        let h = set.hist("lat").unwrap();
        // Both samples share one wide bucket; the exact sidecars clamp
        // the interpolation to the true extremes.
        assert_eq!(h.quantile(0.0), 1_000_003.0);
        assert_eq!(h.quantile(1.0), 1_000_003.0);
        assert!((h.mean_ns() - 1000.003).abs() < 1e-9);
    }

    #[test]
    fn identical_samples_pin_every_quantile() {
        let (_, task) = collect(|| {
            for _ in 0..1000 {
                record("stage", SimDuration::from_ps(26_560));
            }
        });
        let set = MetricsSet::from_task(task);
        let h = set.hist("stage").unwrap();
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 26_560.0, "q={q}");
        }
        assert!((h.mean_ns() - 26.56).abs() < 1e-12);
    }

    #[test]
    fn counters_accumulate_and_merge_by_name() {
        let (_, a) = collect(|| {
            counter("naks", 2);
            counter("naks", 3);
            counter("drops", 1);
        });
        let (_, b) = collect(|| {
            counter("drops", 4);
        });
        let set = MetricsSet::from_tasks(vec![a, b]);
        assert_eq!(set.counter_value("naks"), 5);
        assert_eq!(set.counter_value("drops"), 5);
        assert_eq!(set.counter_value("absent"), 0);
    }

    #[test]
    fn merge_order_is_task_major_first_appearance() {
        let (_, a) = collect(|| {
            record_ps("x", 1);
            record_ps("y", 2);
        });
        let (_, b) = collect(|| {
            record_ps("z", 3);
            record_ps("x", 4);
        });
        let set = MetricsSet::from_tasks(vec![a, b]);
        let names: Vec<&str> = set.hists.iter().map(|h| h.name).collect();
        assert_eq!(names, ["x", "y", "z"]);
        assert_eq!(set.hist("x").unwrap().count, 2);
        assert_eq!(set.hist("x").unwrap().sum, 5);
    }

    /// 70 distinct static names, more than one registry holds.
    static NAMES: [&str; 70] = [
        "n00", "n01", "n02", "n03", "n04", "n05", "n06", "n07", "n08", "n09", "n10", "n11", "n12",
        "n13", "n14", "n15", "n16", "n17", "n18", "n19", "n20", "n21", "n22", "n23", "n24", "n25",
        "n26", "n27", "n28", "n29", "n30", "n31", "n32", "n33", "n34", "n35", "n36", "n37", "n38",
        "n39", "n40", "n41", "n42", "n43", "n44", "n45", "n46", "n47", "n48", "n49", "n50", "n51",
        "n52", "n53", "n54", "n55", "n56", "n57", "n58", "n59", "n60", "n61", "n62", "n63", "n64",
        "n65", "n66", "n67", "n68", "n69",
    ];

    #[test]
    fn name_overflow_counts_dropped_instead_of_allocating() {
        let (_, task) = collect(|| {
            for name in NAMES {
                record_ps(name, 1);
            }
        });
        assert_eq!(task.hists.len(), MAX_NAMES);
        assert_eq!(task.dropped, (NAMES.len() - MAX_NAMES) as u64);
    }

    /// Values at 0, in the exact sub-bucket range, in wide octaves and
    /// near `u64::MAX` (their sum still fits).
    const MERGED: [u64; 8] = [0, 3, 7, 8, 13, 382_810, 1 << 40, u64::MAX - (1 << 41)];

    /// Runs `scope` twice: once with `put` recording every value of
    /// `values` into "lat" with `record_ps`, once with `put` merging a
    /// histogram of them. Returns both tasks, by value first.
    fn by_value_and_merged(
        values: &[u64],
        scope: impl Fn(&dyn Fn()) -> TaskMetrics,
    ) -> (TaskMetrics, TaskMetrics) {
        let mut h = Histogram::new("lat");
        values.iter().for_each(|&v| h.record(v));
        let by_value = scope(&|| values.iter().for_each(|&v| record_ps("lat", v)));
        (by_value, scope(&|| merge(&h)))
    }

    /// A merge leaves the registry exactly as recording each value would:
    /// buckets, count, sum and extremes, and the name's first-appearance
    /// place between names recorded before and after it, whether the
    /// merge registers the name or adds to it.
    #[test]
    fn merge_equals_recording_each_value() {
        let (by_value, merged) = by_value_and_merged(&MERGED, |put| {
            collect(|| {
                record_ps("before", 1);
                put();
                record_ps("after", 2);
                record_ps("before", 3);
            })
            .1
        });
        assert_eq!(merged, by_value);
        let names: Vec<&str> = merged.hists.iter().map(|h| h.name).collect();
        assert_eq!(names, ["before", "lat", "after"]);
        let lat = &merged.hists[1];
        assert_eq!(lat.count, MERGED.len() as u64);
        assert_eq!((lat.min, lat.max), (0, u64::MAX - (1 << 41)));

        let (by_value, merged) = by_value_and_merged(&MERGED, |put| {
            collect(|| {
                record_ps("lat", 5);
                put();
            })
            .1
        });
        assert_eq!(merged, by_value);
        assert_eq!(merged.hists[0].count, 1 + MERGED.len() as u64);

        // An empty histogram registers no name.
        let (by_value, merged) = by_value_and_merged(&[], |put| collect(put).1);
        assert_eq!(merged, by_value);
        assert_eq!(merged, TaskMetrics::default());
    }

    /// Under `collect_windowed` a merge feeds the aggregate alone, as
    /// `record_ps` does, and a full name table drops every merged value,
    /// as per-value recording counts one drop each.
    #[test]
    fn merge_skips_windows_and_drops_each_value_of_a_full_table() {
        let (by_value, merged) = by_value_and_merged(&MERGED, |put| {
            collect_windowed(SimDuration::from_ps(100), || {
                record_ps_at("lat", 10, 250);
                put();
            })
            .1
        });
        assert_eq!(merged, by_value);
        assert_eq!(merged.hists[0].count, 1 + MERGED.len() as u64);
        let w = &merged.windows[0].windows;
        assert_eq!((w.len(), w[0].index, w[0].hist.count), (1, 2, 1));

        let (by_value, merged) = by_value_and_merged(&MERGED, |put| {
            collect(|| {
                for name in &NAMES[..MAX_NAMES] {
                    record_ps(name, 1);
                }
                put();
            })
            .1
        });
        assert_eq!(merged, by_value);
        assert_eq!(merged.dropped, MERGED.len() as u64);
    }

    #[test]
    fn windowed_collection_splits_by_timestamp() {
        let (_, task) = collect_windowed(SimDuration::from_ps(100), || {
            record_ps_at("lat", 10, 0); // window 0
            record_ps_at("lat", 20, 99); // window 0
            record_ps_at("lat", 30, 100); // window 1
            record_ps_at("lat", 40, 350); // window 3 (window 2 stays absent)
            record_ps("lat", 50); // aggregate only
        });
        let set = MetricsSet::from_task(task);
        let h = set.hist("lat").unwrap();
        assert_eq!(h.count, 5, "aggregate sees every sample");
        let w = set.window_series("lat").unwrap();
        assert_eq!(w.width_ps, 100);
        let idx: Vec<u64> = w.windows.iter().map(|s| s.index).collect();
        assert_eq!(idx, [0, 1, 3], "empty windows are absent");
        assert_eq!(w.windows[0].hist.count, 2);
        assert_eq!(w.windows[0].hist.sum, 30);
        assert_eq!(w.windows[1].hist.count, 1);
        assert_eq!(w.windows[2].hist.max, 40);
    }

    #[test]
    fn plain_collect_produces_no_windows() {
        let (_, task) = collect(|| record_ps_at("lat", 10, 12345));
        assert!(task.windows.is_empty());
        assert_eq!(
            task.hists[0].count, 1,
            "timestamped sample still aggregates"
        );
    }

    #[test]
    fn windowed_merge_is_order_independent() {
        let run = |samples: &[(u64, u64)]| {
            collect_windowed(SimDuration::from_ps(50), || {
                for &(v, at) in samples {
                    record_ps_at("w", v, at);
                }
            })
            .1
        };
        let a = run(&[(1, 10), (2, 60)]);
        let b = run(&[(3, 20), (4, 160)]);
        let ab = MetricsSet::from_tasks(vec![a.clone(), b.clone()]);
        let ba = MetricsSet::from_tasks(vec![b, a]);
        let series = ab.window_series("w").unwrap();
        let idx: Vec<u64> = series.windows.iter().map(|s| s.index).collect();
        assert_eq!(idx, [0, 1, 3]);
        assert_eq!(
            series.windows[0].hist.count, 2,
            "window 0 merged across tasks"
        );
        // Slice contents are identical regardless of merge order (series
        // order is first-appearance, so compare per-name).
        assert_eq!(
            ab.window_series("w").unwrap().windows,
            ba.window_series("w").unwrap().windows
        );
    }

    #[test]
    fn out_of_order_timestamps_land_in_the_right_window() {
        let (_, task) = collect_windowed(SimDuration::from_ps(10), || {
            record_ps_at("o", 1, 95);
            record_ps_at("o", 2, 5); // earlier window after a later one
            record_ps_at("o", 3, 95);
        });
        let w = &task.windows[0];
        let idx: Vec<u64> = w.windows.iter().map(|s| s.index).collect();
        assert_eq!(idx, [0, 9]);
        assert_eq!(w.windows[0].hist.sum, 2);
        assert_eq!(w.windows[1].hist.sum, 4);
    }

    #[test]
    fn nested_scopes_shadow_the_outer() {
        let ((), outer) = collect(|| {
            record_ps("outer", 1);
            let ((), inner) = collect(|| record_ps("inner", 2));
            assert_eq!(inner.hists.len(), 1);
            assert_eq!(inner.hists[0].name, "inner");
            record_ps("outer", 3);
        });
        assert_eq!(outer.hists.len(), 1);
        assert_eq!(outer.hists[0].count, 2);
        assert_eq!(outer.hists[0].sum, 4);
    }

    /// Gating is per thread: a scope held open on another thread leaves
    /// this one disabled, and records and merges made here never reach it.
    #[test]
    fn a_scope_on_another_thread_leaves_this_one_disabled() {
        use std::sync::mpsc::channel;
        let (opened, wait_opened) = channel();
        let (release, wait_release) = channel::<()>();
        let holder = std::thread::spawn(move || {
            collect(|| {
                opened.send(()).unwrap();
                wait_release.recv().unwrap();
                enabled()
            })
        });
        wait_opened.recv().unwrap();
        assert!(!enabled());
        record_ps("elsewhere", 1);
        let mut h = Histogram::new("elsewhere");
        h.record(1);
        merge(&h);
        release.send(()).unwrap();
        let (held_enabled, task) = holder.join().unwrap();
        assert!(held_enabled);
        assert!(task.hists.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        /// Every u64 lands in exactly the bucket whose bounds contain it.
        #[test]
        fn bucket_roundtrip(v in any::<u64>()) {
            let i = bucket_index(v);
            let (lo, width) = bucket_bounds(i);
            prop_assert!(v >= lo);
            prop_assert!((v - lo) < width);
        }

        /// Quantiles are monotone in q and bracketed by min/max.
        #[test]
        fn quantiles_are_monotone(values in proptest::collection::vec(any::<u32>(), 1..200)) {
            let (_, task) = collect(|| {
                for &v in &values {
                    record_ps("q", v as u64);
                }
            });
            let set = MetricsSet::from_task(task);
            let h = set.hist("q").unwrap();
            let mut prev = f64::NEG_INFINITY;
            for step in 0..=20 {
                let q = step as f64 / 20.0;
                let x = h.quantile(q);
                prop_assert!(x >= prev, "quantile must be monotone");
                prop_assert!(x >= h.min as f64 && x <= h.max as f64);
                prev = x;
            }
        }
    }
}
