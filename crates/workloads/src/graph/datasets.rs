//! The graph datasets of Table 3, reproduced as scaled synthetic generators.

use super::csr::CsrGraph;
use super::generate::{rmat, uniform_random, web_crawl, RmatParams};

/// Which Table 3 dataset a descriptor stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// GAP-kron (K): synthetic Kronecker, heavy skew.
    GapKron,
    /// GAP-urand (U): uniform random.
    GapUrand,
    /// Friendster (F): social network.
    Friendster,
    /// MOLIERE_2016 (M): semantic/biomedical network, highest edge count.
    Moliere,
    /// uk-2007-05 (Uk): web crawl, deep BFS with tiny frontiers.
    Uk2007,
}

/// A Table 3 row: the original sizes plus the generator that reproduces its
/// structure at a chosen scale.
#[derive(Debug, Clone)]
pub struct DatasetDescriptor {
    /// Which dataset this stands in for.
    pub kind: DatasetKind,
    /// Short name used in the paper's figures (K, U, F, M, Uk).
    pub short_name: &'static str,
    /// Full name.
    pub name: &'static str,
    /// Node count of the original dataset.
    pub original_nodes: u64,
    /// Edge count of the original dataset.
    pub original_edges: u64,
    /// Edge-list size of the original dataset in GB (Table 3).
    pub original_size_gb: f64,
}

impl DatasetDescriptor {
    /// All Table 3 rows in the paper's order.
    pub fn table3() -> Vec<Self> {
        vec![
            Self {
                kind: DatasetKind::GapKron,
                short_name: "K",
                name: "GAP-kron",
                original_nodes: 134_200_000,
                original_edges: 4_220_000_000,
                original_size_gb: 31.5,
            },
            Self {
                kind: DatasetKind::GapUrand,
                short_name: "U",
                name: "GAP-urand",
                original_nodes: 134_200_000,
                original_edges: 4_290_000_000,
                original_size_gb: 32.0,
            },
            Self {
                kind: DatasetKind::Friendster,
                short_name: "F",
                name: "Friendster",
                original_nodes: 65_600_000,
                original_edges: 3_610_000_000,
                original_size_gb: 26.9,
            },
            Self {
                kind: DatasetKind::Moliere,
                short_name: "M",
                name: "MOLIERE_2016",
                original_nodes: 30_200_000,
                original_edges: 6_670_000_000,
                original_size_gb: 49.7,
            },
            Self {
                kind: DatasetKind::Uk2007,
                short_name: "Uk",
                name: "uk-2007-05",
                original_nodes: 105_900_000,
                original_edges: 3_740_000_000,
                original_size_gb: 27.8,
            },
        ]
    }

    /// Whether the paper runs CC on this dataset (it skips Uk because CC
    /// needs an undirected graph).
    pub fn used_for_cc(&self) -> bool {
        self.kind != DatasetKind::Uk2007
    }

    /// Generates a scaled instance: `scale` is the fraction of the original
    /// node count (e.g. `1e-4` for a hundred-thousandth-scale instance); the
    /// edge/node ratio of the original is preserved.
    ///
    /// # Panics
    ///
    /// Panics if the scaled node count is below 16.
    pub fn generate(&self, scale: f64, seed: u64) -> CsrGraph {
        let nodes = ((self.original_nodes as f64 * scale) as u64).max(16);
        assert!(
            nodes >= 16 && nodes < u32::MAX as u64,
            "scaled node count {nodes} out of range"
        );
        let avg_degree = self.original_edges as f64 / self.original_nodes as f64;
        let edges = (nodes as f64 * avg_degree) as u64;
        let nodes = nodes as u32;
        match self.kind {
            DatasetKind::GapKron => {
                let scale_log2 = (nodes as f64).log2().ceil() as u32;
                rmat(
                    scale_log2.clamp(4, 30),
                    edges / 2,
                    RmatParams::gap_kron(),
                    seed,
                )
            }
            DatasetKind::GapUrand => uniform_random(nodes, edges / 2, seed),
            DatasetKind::Friendster => {
                let scale_log2 = (nodes as f64).log2().ceil() as u32;
                rmat(
                    scale_log2.clamp(4, 30),
                    edges / 2,
                    RmatParams::social(),
                    seed,
                )
            }
            DatasetKind::Moliere => {
                let scale_log2 = (nodes as f64).log2().ceil() as u32;
                rmat(
                    scale_log2.clamp(4, 30),
                    edges / 2,
                    RmatParams::social(),
                    seed.wrapping_add(1),
                )
            }
            DatasetKind::Uk2007 => web_crawl(nodes, edges / 2, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let t = DatasetDescriptor::table3();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].short_name, "K");
        assert!(t.iter().all(|d| d.original_edges > 3_000_000_000));
        // MOLIERE is the largest by edges and size.
        let m = t.iter().find(|d| d.kind == DatasetKind::Moliere).unwrap();
        assert!(t.iter().all(|d| d.original_size_gb <= m.original_size_gb));
        // Only Uk is excluded from CC.
        assert_eq!(t.iter().filter(|d| !d.used_for_cc()).count(), 1);
    }

    #[test]
    fn scaled_generation_preserves_density() {
        for d in DatasetDescriptor::table3() {
            let g = d.generate(2e-5, 11);
            let avg_degree_orig = d.original_edges as f64 / d.original_nodes as f64;
            let avg_degree = g.num_edges() as f64 / g.num_nodes() as f64;
            // Symmetrization doubles stored edges; accept a factor-of-two band.
            assert!(
                avg_degree > avg_degree_orig * 0.5 && avg_degree < avg_degree_orig * 3.0,
                "{}: avg degree {avg_degree:.1} vs original {avg_degree_orig:.1}",
                d.name
            );
        }
    }
}
