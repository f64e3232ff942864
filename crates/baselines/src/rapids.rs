//! RAPIDS-style GPU data-analytics baseline (Fig 12, Fig 14).
//!
//! RAPIDS executes queries on the GPU but relies on the CPU to find,
//! allocate, and transfer entire column row-groups into GPU memory before the
//! query kernel runs. The paper profiles queries Q0–Q5 on the NYC Taxi
//! dataset (with the file pinned in the CPU page cache, its best case) and
//! finds >73 % of end-to-end time in row-group initialization, ~23 % in
//! cleanup, and an I/O amplification that grows linearly with the number of
//! data-dependent columns because whole columns are transferred even though
//! only ~0.03 % of their rows are needed.

use bam_pcie::LinkSpec;
use bam_timing::{CpuStackModel, ExecutionBreakdown, GpuRateModel};

/// Description of one analytics query as RAPIDS executes it.
#[derive(Debug, Clone, Copy)]
pub struct RapidsQuery {
    /// Number of table rows.
    pub rows: u64,
    /// Bytes per value in each column (8 for the taxi metrics).
    pub value_bytes: u64,
    /// Number of columns the query touches (1 for Q0, 2 for Q1, ... 6 for Q5).
    pub columns: u64,
    /// Number of rows that satisfy the filter predicate (data-dependent
    /// columns only need these).
    pub selected_rows: u64,
}

impl RapidsQuery {
    /// Bytes RAPIDS transfers: every touched column in full.
    pub fn bytes_transferred(&self) -> u64 {
        self.columns * self.rows * self.value_bytes
    }

    /// Bytes the query actually needs: the filter column in full plus the
    /// selected rows of each dependent column.
    fn bytes_needed(&self) -> u64 {
        self.rows * self.value_bytes + (self.columns - 1) * self.selected_rows * self.value_bytes
    }

    /// I/O amplification factor (Fig 12 / Fig 14 right axis).
    pub fn io_amplification(&self) -> f64 {
        self.bytes_transferred() as f64 / self.bytes_needed() as f64
    }
}

/// Result of evaluating one query under the RAPIDS model.
#[derive(Debug, Clone, Copy)]
pub struct RapidsQueryResult {
    /// Seconds spent in CPU row-group initialization (find + allocate +
    /// stage + transfer).
    pub row_group_init_s: f64,
    /// Seconds of GPU query execution.
    pub query_s: f64,
    /// Seconds of CPU-side cleanup.
    pub cleanup_s: f64,
    /// I/O amplification factor.
    pub io_amplification: f64,
}

impl RapidsQueryResult {
    /// End-to-end seconds.
    pub fn total_s(&self) -> f64 {
        self.row_group_init_s + self.query_s + self.cleanup_s
    }

    /// As an [`ExecutionBreakdown`] (CPU work charged to the middle
    /// component).
    pub fn breakdown(&self) -> ExecutionBreakdown {
        ExecutionBreakdown::serial(self.query_s, self.row_group_init_s + self.cleanup_s, 0.0)
    }
}

/// The RAPIDS analytics engine model.
#[derive(Debug, Clone)]
pub struct RapidsModel {
    /// CPU software stack.
    pub cpu: CpuStackModel,
    /// GPU rates for the query kernel.
    pub gpu: GpuRateModel,
    /// Host↔GPU link.
    pub gpu_link: LinkSpec,
    /// Fraction of row-group handling charged to cleanup (paper: ≈23 % of
    /// end-to-end vs ≈73 % init ⇒ cleanup ≈ 0.31 × init).
    pub cleanup_fraction_of_init: f64,
}

impl RapidsModel {
    /// The configuration profiled in Figure 14 (dataset pinned in the page
    /// cache, so no storage I/O at all).
    pub fn prototype() -> Self {
        Self {
            cpu: CpuStackModel::epyc_host(),
            gpu: GpuRateModel::a100(),
            gpu_link: LinkSpec::gen4_x16(),
            cleanup_fraction_of_init: 0.31,
        }
    }

    /// Evaluates one query.
    pub fn evaluate(&self, q: &RapidsQuery) -> RapidsQueryResult {
        let moved = q.bytes_transferred();
        // Row-group init: CPU staging of every column + the PCIe transfer
        // (not overlapped with the query kernel, which needs the whole row
        // group resident first).
        let staging = self.cpu.staging_time_s(moved);
        let transfer = moved as f64 / self.gpu_link.effective_bandwidth_bps();
        let row_group_init_s = staging + transfer;
        // GPU query: one scan op per row per column.
        let query_s = self.gpu.compute_time_s(q.rows * q.columns);
        let cleanup_s = row_group_init_s * self.cleanup_fraction_of_init;
        RapidsQueryResult {
            row_group_init_s,
            query_s,
            cleanup_s,
            io_amplification: q.io_amplification(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's taxi-query family: 1.7 B rows, 8-byte metrics, 511 K
    /// selected rows, Q0..Q5 touch 1..6 columns.
    fn taxi_query(columns: u64) -> RapidsQuery {
        RapidsQuery {
            rows: 1_700_000_000,
            value_bytes: 8,
            columns,
            selected_rows: 511_000,
        }
    }

    #[test]
    fn amplification_grows_linearly_with_columns() {
        // Fig 14: ~2x at Q1 growing to >6x at Q5.
        let q1 = taxi_query(2).io_amplification();
        let q5 = taxi_query(6).io_amplification();
        assert!((1.8..2.2).contains(&q1), "Q1 amplification {q1}");
        assert!(q5 > 5.5, "Q5 amplification {q5}");
        assert!(q5 > q1 * 2.5);
    }

    #[test]
    fn q0_has_no_amplification() {
        let q0 = taxi_query(1);
        assert!((q0.io_amplification() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn row_group_handling_dominates_query_time() {
        // Fig 14: init + cleanup account for >90% of end-to-end time.
        let m = RapidsModel::prototype();
        let r = m.evaluate(&taxi_query(2));
        let cpu_fraction = (r.row_group_init_s + r.cleanup_s) / r.total_s();
        assert!(cpu_fraction > 0.85, "cpu fraction {cpu_fraction}");
        assert!(r.breakdown().total_s() > 0.0);
    }

    #[test]
    fn more_columns_cost_more_time() {
        let m = RapidsModel::prototype();
        let t1 = m.evaluate(&taxi_query(1)).total_s();
        let t6 = m.evaluate(&taxi_query(6)).total_s();
        assert!(t6 > t1 * 3.0);
    }
}
