//! Shared pieces of the three workloads: engine settings, value codec,
//! sample statistics and the metric record the report prints.

use std::sync::Arc;
use std::time::{Duration, Instant};

use learned_index::IndexKind;
use lsm_io::{CostModel, SimStorage, Storage};
use lsm_tree::{IndexChoice, Maintenance, Options};
use lsm_workloads::{value_for_key, KEY_LEN};

/// Value payload width of every workload.
pub const VALUE_LEN: usize = 64;

/// User bytes one put carries: the 24-byte on-disk key plus the value.
pub const USER_BYTES_PER_PUT: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile, printed next to it.
    pub samples: Option<usize>,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
    }
}

impl Metric {
    pub fn of_samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted (timed ops plus correctness reads).
    pub attempted: u64,
    /// Errors, sheds and missing values.
    pub failed: u64,
    /// Reads that returned a value other than the one last written.
    pub wrong: u64,
    pub e2e: Vec<Metric>,
    /// Per-layer metrics; filled only by a traced pass.
    pub layers: Vec<Metric>,
}

/// The settings every workload shares: PGM with position boundary 64,
/// 64 B values, 1 MiB SSTables and a 1 MiB write buffer.
pub fn engine_options(
    cache_bytes: usize,
    maintenance: Maintenance,
    observability: bool,
) -> Options {
    Options {
        write_buffer_bytes: 1 << 20,
        sstable_target_bytes: 1 << 20,
        value_width: VALUE_LEN,
        index: IndexChoice::with_boundary(IndexKind::Pgm, 64),
        block_cache_bytes: cache_bytes,
        maintenance,
        observability,
        ..Options::default()
    }
}

/// A fresh simulated device with the default (Table 1) cost model.
pub fn sim_storage() -> Arc<SimStorage> {
    Arc::new(SimStorage::new(CostModel::default()))
}

/// Bytes of every file resident on `storage` (tables, logs, manifests).
pub fn resident_bytes(storage: &dyn Storage) -> Result<u64, String> {
    let mut total = 0;
    for name in storage.list().map_err(|e| e.to_string())? {
        total += storage.size_of(&name).map_err(|e| e.to_string())?;
    }
    Ok(total)
}

/// The value written for `key` at overwrite `version`; version 0 is the
/// dataset's canonical [`value_for_key`] payload.
pub fn value_at(key: u64, version: u32) -> Vec<u8> {
    value_for_key(key ^ (u64::from(version) << 48), VALUE_LEN)
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Exact quantile of nanosecond samples by nearest rank, in microseconds.
/// Sorts `samples` in place; 0 for an empty set.
pub fn quantile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1e3
}

/// Samples per window of a windowed percentile (100 ms of the `serve`
/// stream). One host stall of a few ms delays every request due during
/// it; the median over windows keeps a few such stalls from deciding the
/// figure.
pub const TAIL_WINDOW: usize = 1_000;

/// Median, over consecutive windows of `window` samples (in run
/// order), of each window's `q` quantile, in microseconds. A trailing
/// window shorter than half a window is dropped.
pub fn windowed_quantile_us(samples: &[u64], window: usize, q: f64) -> f64 {
    let per: Vec<f64> = samples
        .chunks(window)
        .filter(|c| c.len() * 2 >= window)
        .map(|c| quantile_us(&mut c.to_vec(), q))
        .collect();
    median(&per)
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean nanoseconds per call of `f` over `items`, timed as one batch so
/// the clock read does not dominate sub-microsecond calls.
pub fn mean_ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    for item in items {
        f(item);
    }
    nanos(started.elapsed()) as f64 / items.len() as f64
}

/// Render `v` as a JSON number (non-finite values become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
