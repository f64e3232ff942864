//! Breadth-first search.
//!
//! Two implementations share the same algorithm: a host reference used for
//! validation and compute-cost accounting, and the BaM version in which the
//! edge list lives on the simulated SSDs behind a [`BamArray`], while the
//! (much smaller) offsets array stays resident — the layout the paper uses
//! (Appendix B.2).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use bam_core::{BamArray, BamError};
use bam_gpu_sim::warp::WARP_SIZE;
use bam_gpu_sim::GpuExecutor;

use super::csr::CsrGraph;

/// Result of a BFS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// BFS level of every node (`u32::MAX` when unreachable).
    pub distances: Vec<u32>,
    /// Number of edges traversed (neighbour-list entries read).
    pub edges_traversed: u64,
    /// Number of BFS levels executed.
    pub iterations: u32,
}

impl BfsResult {
    /// Number of nodes reached from the source.
    pub fn reached(&self) -> u64 {
        self.distances.iter().filter(|&&d| d != u32::MAX).count() as u64
    }
}

/// Host reference BFS over an in-memory CSR graph.
pub fn bfs_reference(graph: &CsrGraph, source: u32) -> BfsResult {
    let n = graph.num_nodes() as usize;
    let mut distances = vec![u32::MAX; n];
    distances[source as usize] = 0;
    let mut frontier = vec![source];
    let mut level = 0u32;
    let mut edges_traversed = 0u64;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in graph.neighbors(u) {
                edges_traversed += 1;
                if distances[v as usize] == u32::MAX {
                    distances[v as usize] = level + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
        level += 1;
    }
    BfsResult {
        distances,
        edges_traversed,
        iterations: level,
    }
}

/// BFS with the edge list accessed on demand through BaM.
///
/// Each BFS level launches one GPU kernel; a warp takes 32 frontier nodes,
/// reads their neighbour lists from the [`BamArray`] in one warp-scope call
/// ([`BamArray::read_runs_warp`]: cache-line reference reuse, and all of the
/// warp's misses in flight together), and atomically claims unvisited
/// neighbours for the next frontier.
///
/// # Errors
///
/// Propagates the first storage/cache error hit by any thread.
pub fn bfs_bam(
    offsets: &[u64],
    edges: &BamArray<u32>,
    source: u32,
    exec: &GpuExecutor,
) -> Result<BfsResult, BamError> {
    let n = offsets.len() - 1;
    assert!((source as usize) < n, "source out of range");
    let distances: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    distances[source as usize].store(0, Ordering::Relaxed);
    let edges_traversed = AtomicU64::new(0);
    let first_error: Mutex<Option<BamError>> = Mutex::new(None);

    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        let next = Mutex::new(Vec::new());
        let frontier_ref = &frontier;
        let distances_ref = &distances;
        let edges_traversed_ref = &edges_traversed;
        let first_error_ref = &first_error;
        let next_ref = &next;
        exec.launch(frontier.len(), |warp| {
            let mut runs = [None; WARP_SIZE];
            let mut edges_of_warp = 0;
            for (lane, tid) in warp.lanes() {
                let u = frontier_ref[tid] as usize;
                let count = offsets[u + 1] - offsets[u];
                runs[lane] = Some((offsets[u], count));
                edges_of_warp += count;
            }
            let mut local_next = Vec::new();
            let claim_unvisited = |_lane: usize, neighbors: &[u32]| {
                for &v in neighbors {
                    if distances_ref[v as usize]
                        .compare_exchange(u32::MAX, level + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        local_next.push(v);
                    }
                }
            };
            match edges.read_runs_warp(warp, &runs, claim_unvisited) {
                Ok(()) => {
                    edges_traversed_ref.fetch_add(edges_of_warp, Ordering::Relaxed);
                }
                Err(e) => {
                    first_error_ref.lock().expect("poisoned").get_or_insert(e);
                }
            }
            if !local_next.is_empty() {
                next_ref.lock().expect("poisoned").append(&mut local_next);
            }
        });
        if let Some(e) = first_error.lock().expect("poisoned").take() {
            return Err(e);
        }
        frontier = next.into_inner().expect("poisoned");
        level += 1;
    }

    Ok(BfsResult {
        distances: distances.into_iter().map(|d| d.into_inner()).collect(),
        edges_traversed: edges_traversed.into_inner(),
        iterations: level,
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
    fn reference_bfs_on_path_graph() {
        let g = CsrGraph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], true);
        let r = bfs_reference(&g, 0);
        assert_eq!(r.distances, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.iterations, 5);
        assert_eq!(r.reached(), 5);
    }

    #[test]
    fn unreachable_nodes_stay_at_max() {
        let g = CsrGraph::from_edge_list(4, &[(0, 1)], true);
        let r = bfs_reference(&g, 0);
        assert_eq!(r.distances[2], u32::MAX);
        assert_eq!(r.reached(), 2);
    }

    #[test]
    fn bam_bfs_matches_reference_on_random_graph() {
        let g = uniform_random(600, 2400, 3);
        let sys = BamSystem::new(BamConfig::test_scale()).unwrap();
        let edges = upload_edge_list(&sys, &g).unwrap();
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 4);

        let reference = bfs_reference(&g, 5);
        let bam = bfs_bam(&g.offsets, &edges, 5, &exec).unwrap();
        assert_eq!(bam.distances, reference.distances);
        assert_eq!(bam.edges_traversed, reference.edges_traversed);
        // The run must have gone through the cache/storage stack.
        let m = sys.metrics();
        assert!(m.cache_misses > 0);
        assert!(m.read_requests > 0);
    }
}
