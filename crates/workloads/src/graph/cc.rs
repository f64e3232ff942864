//! Connected components (label propagation).
//!
//! The paper runs CC on the undirected Table 3 graphs. The implementation
//! here is iterative label propagation: every node repeatedly adopts the
//! minimum label among itself and its neighbours until a fixed point. Like
//! BFS, a host reference validates the BaM version, whose edge list is read
//! on demand through the [`BamArray`].

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use bam_core::{BamArray, BamError};
use bam_gpu_sim::warp::WARP_SIZE;
use bam_gpu_sim::GpuExecutor;

use super::csr::CsrGraph;

/// Result of a connected-components run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcResult {
    /// Component label of every node (the smallest node id in its component).
    pub labels: Vec<u32>,
    /// Edges traversed across all iterations.
    pub edges_traversed: u64,
    /// Number of label-propagation iterations executed.
    pub iterations: u32,
}

impl CcResult {
    /// Number of distinct components.
    pub fn num_components(&self) -> usize {
        let mut labels = self.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }
}

/// Host reference label-propagation CC.
pub fn cc_reference(graph: &CsrGraph) -> CcResult {
    let n = graph.num_nodes() as usize;
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut edges_traversed = 0u64;
    let mut iterations = 0u32;
    loop {
        let mut changed = false;
        for u in 0..n as u32 {
            let mut best = labels[u as usize];
            for &v in graph.neighbors(u) {
                edges_traversed += 1;
                best = best.min(labels[v as usize]);
            }
            if best < labels[u as usize] {
                labels[u as usize] = best;
                changed = true;
            }
        }
        iterations += 1;
        if !changed {
            break;
        }
    }
    CcResult {
        labels,
        edges_traversed,
        iterations,
    }
}

/// Connected components with the edge list accessed on demand through BaM.
///
/// # Errors
///
/// Propagates the first storage/cache error hit by any thread.
pub fn cc_bam(
    offsets: &[u64],
    edges: &BamArray<u32>,
    exec: &GpuExecutor,
) -> Result<CcResult, BamError> {
    let n = offsets.len() - 1;
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let edges_traversed = AtomicU64::new(0);
    let mut iterations = 0u32;
    let first_error: Mutex<Option<BamError>> = Mutex::new(None);
    loop {
        let changed = AtomicBool::new(false);
        let labels_ref = &labels;
        let changed_ref = &changed;
        let edges_traversed_ref = &edges_traversed;
        let first_error_ref = &first_error;
        exec.launch(n, |warp| {
            let mut runs = [None; WARP_SIZE];
            let mut edges_of_warp = 0;
            for (lane, u) in warp.lanes() {
                let count = offsets[u + 1] - offsets[u];
                runs[lane] = Some((offsets[u], count));
                edges_of_warp += count;
            }
            let adopt_minimum = |lane: usize, neighbors: &[u32]| {
                let label = &labels_ref[warp.thread_id(lane)];
                let mut best = label.load(Ordering::Acquire);
                for &v in neighbors {
                    best = best.min(labels_ref[v as usize].load(Ordering::Acquire));
                }
                // Monotonically lower our label to the minimum seen.
                let mut cur = label.load(Ordering::Acquire);
                while best < cur {
                    match label.compare_exchange(cur, best, Ordering::AcqRel, Ordering::Acquire) {
                        Ok(_) => {
                            changed_ref.store(true, Ordering::Release);
                            break;
                        }
                        Err(actual) => cur = actual,
                    }
                }
            };
            match edges.read_runs_warp(warp, &runs, adopt_minimum) {
                Ok(()) => {
                    edges_traversed_ref.fetch_add(edges_of_warp, Ordering::Relaxed);
                }
                Err(e) => {
                    first_error_ref.lock().expect("poisoned").get_or_insert(e);
                }
            }
        });
        if let Some(e) = first_error.lock().expect("poisoned").take() {
            return Err(e);
        }
        iterations += 1;
        if !changed.load(Ordering::Acquire) {
            break;
        }
    }
    Ok(CcResult {
        labels: labels.into_iter().map(|l| l.into_inner()).collect(),
        edges_traversed: edges_traversed.into_inner(),
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generate::uniform_random;
    use crate::graph::storage::upload_edge_list;
    use bam_core::{BamConfig, BamSystem};
    use bam_gpu_sim::GpuSpec;

    #[test]
    fn reference_cc_identifies_components() {
        // Two triangles and an isolated node.
        let g =
            CsrGraph::from_edge_list(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], true);
        let r = cc_reference(&g);
        assert_eq!(r.num_components(), 3);
        assert_eq!(r.labels[0], r.labels[1]);
        assert_eq!(r.labels[3], r.labels[5]);
        assert_ne!(r.labels[0], r.labels[3]);
        assert_eq!(r.labels[6], 6);
    }

    #[test]
    fn bam_cc_matches_reference() {
        let g = uniform_random(400, 700, 9);
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        let edges = upload_edge_list(&sys, &g).unwrap();
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 4);
        let reference = cc_reference(&g);
        let bam = cc_bam(&g.offsets, &edges, &exec).unwrap();
        assert_eq!(bam.labels, reference.labels);
        assert_eq!(bam.num_components(), reference.num_components());
        assert!(sys.metrics().cache_hits + sys.metrics().cache_misses > 0);
    }
}
