//! # bam-workloads — the applications of the BaM evaluation
//!
//! Every workload the paper evaluates, in two forms where applicable: a host
//! reference implementation (ground truth for correctness and compute-cost
//! accounting) and a BaM-backed implementation whose data lives on the
//! simulated SSDs and is accessed on demand by simulated GPU threads.
//!
//! * [`graph`] — Table 3 dataset generators, CSR, BFS, and connected
//!   components (§5.2).
//! * [`analytics`] — the NYC-Taxi-style columnar table and queries Q0–Q5
//!   (§5.3).
//! * [`vectoradd`] — the write-intensive vectorAdd workload (§5.4).
//! * [`micro`] — raw random/sequential throughput microbenchmarks
//!   (§4.3, §5.1).

pub mod analytics;
pub mod graph;
pub mod micro;
pub mod vectoradd;

pub use analytics::{query_bam, query_reference, BamTaxiTable, QueryOutput, TaxiTable};
pub use graph::{
    bfs_bam, bfs_reference, cc_bam, cc_reference, graph_demand, upload_edge_list, BfsResult,
    CcResult, CsrGraph, DatasetDescriptor, DatasetKind,
};
pub use micro::{build_raw_system, random_read, random_write, sequential_read, MicroRunResult};
pub use vectoradd::{setup as vectoradd_setup, vectoradd_bam, vectoradd_demand, VectorAddResult};
