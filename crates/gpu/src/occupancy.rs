//! Register usage and occupancy accounting (paper Figure 13 and §5.5).
//!
//! BaM's cache probe and I/O stack are inlined into application kernels and
//! increase per-thread register usage. The paper reports the register counts
//! with and without BaM for each studied application and argues the
//! applications remain storage-bound, so the reduced occupancy does not
//! limit performance. This module provides a static cost model that
//! reproduces those counts and the resulting occupancy.

use crate::spec::GpuSpec;

/// Register usage of one application kernel with and without BaM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterUsage {
    /// Application name as used in Figure 13.
    pub application: String,
    /// Registers per thread without BaM.
    pub without_bam: u32,
    /// Registers per thread with BaM inlined.
    pub with_bam: u32,
    /// Whether the compiler spills registers with BaM (observed for the
    /// RAPIDS workload in the paper).
    pub spills_with_bam: bool,
}

/// The register-cost model for BaM-augmented kernels.
#[derive(Debug, Clone)]
pub struct OccupancyModel {
    /// Registers consumed by the inlined BaM cache-probe path.
    pub cache_probe_registers: u32,
    /// Registers consumed by the inlined I/O-stack submission/poll path.
    pub io_stack_registers: u32,
    /// Architectural per-thread register cap.
    pub max_registers: u32,
}

impl Default for OccupancyModel {
    fn default() -> Self {
        Self {
            cache_probe_registers: 22,
            io_stack_registers: 18,
            max_registers: 255,
        }
    }
}

impl OccupancyModel {
    /// Registers a kernel uses once BaM is inlined: the base usage plus the
    /// cache and I/O stack paths, capped at the architectural limit (beyond
    /// which the compiler spills).
    pub fn with_bam(&self, base_registers: u32) -> u32 {
        (base_registers + self.cache_probe_registers + self.io_stack_registers)
            .min(self.max_registers)
    }

    /// Whether inlining BaM forces spilling for a kernel of the given base
    /// register usage.
    fn spills(&self, base_registers: u32) -> bool {
        base_registers + self.cache_probe_registers + self.io_stack_registers > self.max_registers
    }

    /// The Figure 13 table: register usage for every studied application.
    /// Base (without-BaM) counts are taken from the paper's figure.
    pub fn figure13(&self) -> Vec<RegisterUsage> {
        let apps: [(&str, u32); 5] = [
            ("BFS", 28),
            ("CC", 36),
            ("RAPIDS (Q0)", 29),
            ("RAPIDS (Q5)", 221),
            ("VecAdd", 21),
        ];
        apps.iter()
            .map(|&(name, base)| RegisterUsage {
                application: name.to_string(),
                without_bam: base,
                with_bam: self.with_bam(base),
                spills_with_bam: self.spills(base),
            })
            .collect()
    }

    /// Occupancy (resident threads per SM) for a kernel using
    /// `registers_per_thread`, on `gpu`.
    pub fn occupancy(&self, gpu: &GpuSpec, registers_per_thread: u32) -> u32 {
        gpu.occupancy_threads_per_sm(registers_per_thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bam_increases_register_usage_but_stays_capped() {
        let m = OccupancyModel::default();
        let rows = m.figure13();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.with_bam > r.without_bam || r.with_bam == m.max_registers);
            assert!(r.with_bam <= 255);
        }
        // The heavy RAPIDS query spills.
        let q5 = rows.iter().find(|r| r.application.contains("Q5")).unwrap();
        assert!(q5.spills_with_bam);
        let bfs = rows.iter().find(|r| r.application == "BFS").unwrap();
        assert!(!bfs.spills_with_bam);
    }

    #[test]
    fn occupancy_reduction_is_modest_for_bfs() {
        let m = OccupancyModel::default();
        let gpu = GpuSpec::a100_80gb();
        let without = m.occupancy(&gpu, 28);
        let with = m.occupancy(&gpu, m.with_bam(28));
        assert!(with <= without);
        // Still hundreds of resident threads per SM — plenty to stay
        // storage-bound, as §5.5 argues.
        assert!(with >= 640, "with-BaM occupancy {with}");
    }
}
