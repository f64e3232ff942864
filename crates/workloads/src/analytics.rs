//! Enterprise data-analytics workload (paper §5.3): the NYC-Taxi-style
//! columnar table and queries Q0–Q5.
//!
//! The real dataset (1.7 B trip records) cannot be shipped, so a generator
//! produces a table with the same column schema and the same selectivity
//! (≈0.03 % of trips are at least 30 miles), which is what determines the
//! I/O-amplification behaviour the experiment measures. Queries run either
//! against host vectors (reference / RAPIDS input) or against BaM-backed
//! column arrays with on-demand, data-dependent accesses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bam_baselines::rapids::RapidsQuery;
use bam_core::{BamArray, BamError, BamSystem};
use bam_gpu_sim::GpuExecutor;

/// The distance threshold of the paper's query family, in miles.
pub const MIN_DISTANCE_MILES: f64 = 30.0;

/// The host-resident taxi table (ground truth and RAPIDS input).
#[derive(Debug, Clone)]
pub struct TaxiTable {
    /// Trip distance column.
    pub distance: Vec<f64>,
    /// Dependent metric columns in the order queries add them: Q1 adds the
    /// total fare, Q2 surcharges, Q3 the hail fee, Q4 tolls and Q5 taxes.
    pub metrics: [Vec<f64>; 5],
}

impl TaxiTable {
    /// Generates `rows` trips with roughly `selectivity` of them at least 30
    /// miles long (the paper's dataset has ≈511 K of 1.7 B ≈ 0.03 %).
    pub fn generate(rows: usize, selectivity: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut distance = Vec::with_capacity(rows);
        let mut metrics: [Vec<f64>; 5] = Default::default();
        for m in &mut metrics {
            m.reserve(rows);
        }
        for _ in 0..rows {
            let long_trip = rng.gen_bool(selectivity.clamp(0.0, 1.0));
            let d = if long_trip {
                MIN_DISTANCE_MILES + rng.gen_range(0.0..70.0)
            } else {
                rng.gen_range(0.1..MIN_DISTANCE_MILES - 0.01)
            };
            distance.push(d);
            let base_fare = 2.5 + d * rng.gen_range(1.5..3.5);
            metrics[0].push(base_fare);
            metrics[1].push(rng.gen_range(0.0..5.0));
            metrics[2].push(if rng.gen_bool(0.05) { 2.75 } else { 0.0 });
            metrics[3].push(if rng.gen_bool(0.2) {
                rng.gen_range(1.0..20.0)
            } else {
                0.0
            });
            metrics[4].push(base_fare * 0.08875);
        }
        Self { distance, metrics }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.distance.len()
    }

    /// Bytes per column (8-byte values, as in the paper).
    pub fn column_bytes(&self) -> u64 {
        self.rows() as u64 * 8
    }

    /// Rows with distance ≥ 30 miles.
    pub fn selected_rows(&self) -> u64 {
        self.distance
            .iter()
            .filter(|&&d| d >= MIN_DISTANCE_MILES)
            .count() as u64
    }

    /// The [`RapidsQuery`] demand `Q<q>` places on the RAPIDS baseline.
    pub fn rapids_query(&self, q: usize) -> RapidsQuery {
        RapidsQuery {
            rows: self.rows() as u64,
            value_bytes: 8,
            columns: (q + 1) as u64,
            selected_rows: self.selected_rows(),
        }
    }
}

/// Output of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutput {
    /// Sum over selected rows of the dependent metrics (for Q0: count of
    /// selected rows as a float).
    pub aggregate: f64,
    /// Number of rows selected by the distance filter.
    pub selected_rows: u64,
    /// Number of element accesses the query performed.
    pub accesses: u64,
}

/// Host reference execution of `Q<q>`.
pub fn query_reference(table: &TaxiTable, q: usize) -> QueryOutput {
    let mut aggregate = 0.0f64;
    let mut selected = 0u64;
    let mut accesses = 0u64;
    for i in 0..table.rows() {
        accesses += 1;
        if table.distance[i] >= MIN_DISTANCE_MILES {
            selected += 1;
            if q == 0 {
                aggregate += 1.0;
            } else {
                for col in 0..q.min(5) {
                    accesses += 1;
                    aggregate += table.metrics[col][i];
                }
            }
        }
    }
    QueryOutput {
        aggregate,
        selected_rows: selected,
        accesses,
    }
}

/// BaM-backed column arrays for the taxi table.
#[derive(Debug, Clone)]
pub struct BamTaxiTable {
    /// Distance column on storage.
    pub distance: BamArray<f64>,
    /// Dependent metric columns on storage.
    pub metrics: Vec<BamArray<f64>>,
    rows: u64,
}

impl BamTaxiTable {
    /// Uploads every column of `table` onto the simulated SSDs.
    ///
    /// # Errors
    ///
    /// Propagates storage-capacity and media errors.
    pub fn upload(system: &BamSystem, table: &TaxiTable) -> Result<Self, BamError> {
        let distance = system.create_array::<f64>(table.rows() as u64)?;
        distance.preload(&table.distance)?;
        let mut metrics = Vec::with_capacity(5);
        for col in &table.metrics {
            let arr = system.create_array::<f64>(table.rows() as u64)?;
            arr.preload(col)?;
            metrics.push(arr);
        }
        Ok(Self {
            distance,
            metrics,
            rows: table.rows() as u64,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// Executes `Q<q>` on the GPU with on-demand BaM accesses: the distance
/// column is scanned sequentially (with cache-line reuse), and the dependent
/// columns are only touched for rows that pass the filter — the source of
/// BaM's I/O-amplification advantage over RAPIDS (§5.3).
///
/// # Errors
///
/// Propagates the first storage/cache error hit by any thread.
pub fn query_bam(
    table: &BamTaxiTable,
    q: usize,
    exec: &GpuExecutor,
) -> Result<QueryOutput, BamError> {
    /// Rows each GPU thread scans (one cache line of 8-byte values per 512 B
    /// line at test scale; any multiple works).
    const ROWS_PER_THREAD: u64 = 64;
    let rows = table.rows();
    let threads = rows.div_ceil(ROWS_PER_THREAD) as usize;
    let aggregate_bits = AtomicU64::new(0f64.to_bits());
    let selected = AtomicU64::new(0);
    let accesses = AtomicU64::new(0);
    let first_error: Mutex<Option<BamError>> = Mutex::new(None);

    let add_to_aggregate = |value: f64| {
        let mut cur = aggregate_bits.load(Ordering::Acquire);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match aggregate_bits.compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    };

    exec.launch(threads, |warp| {
        for (_lane, tid) in warp.lanes() {
            let start = tid as u64 * ROWS_PER_THREAD;
            if start >= rows {
                continue;
            }
            let count = ROWS_PER_THREAD.min(rows - start);
            let distances = match table.distance.read_run(start, count) {
                Ok(d) => d,
                Err(e) => {
                    first_error.lock().expect("poisoned").get_or_insert(e);
                    continue;
                }
            };
            accesses.fetch_add(count, Ordering::Relaxed);
            let mut local_sum = 0.0f64;
            let mut local_selected = 0u64;
            for (i, d) in distances.iter().enumerate() {
                if *d >= MIN_DISTANCE_MILES {
                    local_selected += 1;
                    if q == 0 {
                        local_sum += 1.0;
                    } else {
                        let row = start + i as u64;
                        for col in table.metrics.iter().take(q.min(5)) {
                            match col.read(row) {
                                Ok(v) => {
                                    local_sum += v;
                                    accesses.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    first_error.lock().expect("poisoned").get_or_insert(e);
                                }
                            }
                        }
                    }
                }
            }
            if local_selected > 0 {
                selected.fetch_add(local_selected, Ordering::Relaxed);
                add_to_aggregate(local_sum);
            }
        }
    });
    if let Some(e) = first_error.lock().expect("poisoned").take() {
        return Err(e);
    }
    Ok(QueryOutput {
        aggregate: f64::from_bits(aggregate_bits.into_inner()),
        selected_rows: selected.into_inner(),
        accesses: accesses.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bam_core::BamConfig;
    use bam_gpu_sim::GpuSpec;

    #[test]
    fn generator_hits_requested_selectivity() {
        let t = TaxiTable::generate(20_000, 0.01, 7);
        let frac = t.selected_rows() as f64 / t.rows() as f64;
        assert!((0.005..0.02).contains(&frac), "selectivity {frac}");
        assert_eq!(t.column_bytes(), 160_000);
    }

    #[test]
    fn reference_query_accesses_grow_with_columns() {
        let t = TaxiTable::generate(5_000, 0.05, 1);
        let q0 = query_reference(&t, 0);
        let q5 = query_reference(&t, 5);
        assert_eq!(q0.selected_rows, q5.selected_rows);
        assert!(q5.accesses > q0.accesses);
        assert!(q5.aggregate > 0.0);
        assert!((q0.aggregate - q0.selected_rows as f64).abs() < 1e-9);
    }

    #[test]
    fn rapids_demand_matches_table() {
        let t = TaxiTable::generate(2_000, 0.05, 3);
        let q3 = t.rapids_query(3);
        assert_eq!(q3.rows, 2_000);
        assert_eq!(q3.columns, 4);
        assert_eq!(q3.selected_rows, t.selected_rows());
    }

    #[test]
    fn bam_queries_match_reference() {
        let table = TaxiTable::generate(4_096, 0.03, 11);
        let mut cfg = BamConfig::test_scale();
        cfg.ssd_capacity_bytes = 16 << 20;
        let sys = BamSystem::new(cfg).unwrap();
        let bam_table = BamTaxiTable::upload(&sys, &table).unwrap();
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 4);
        for q in [0usize, 2, 5] {
            let reference = query_reference(&table, q);
            let bam = query_bam(&bam_table, q, &exec).unwrap();
            assert_eq!(bam.selected_rows, reference.selected_rows, "Q{q}");
            assert!(
                (bam.aggregate - reference.aggregate).abs()
                    < 1e-6 * reference.aggregate.abs().max(1.0),
                "Q{q}: {} vs {}",
                bam.aggregate,
                reference.aggregate
            );
        }
        // Data-dependent access keeps I/O amplification near 1 for BaM.
        let m = sys.metrics();
        assert!(m.bytes_read > 0);
    }
}
