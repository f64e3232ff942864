//! Property-based tests of the core invariants, using proptest.
//!
//! The properties mirror the guarantees the paper's design relies on:
//! the queue protocol never loses or corrupts a command under concurrency,
//! the cache is always coherent with its backing store, and the workload
//! kernels agree with their host references on arbitrary inputs.

use proptest::prelude::*;
use std::sync::Arc;

use bam::core::BamQueuePair;
use bam::core::{decode_records, recover, BamError, CacheJournal, JournalRecord, MemoryBacking};
use bam::core::{BamConfig, BamSystem};
use bam::gpu::warp::{ballot, groups, match_any, WARP_SIZE};
use bam::gpu::{GpuExecutor, GpuSpec};
use bam::mem::{BumpAllocator, ByteRegion};
use bam::nvme::{NvmeCommand, NvmeCompletion, SsdDevice, SsdSpec};
use bam::obs::LatencyHisto;
use bam::workloads::graph::{bfs_bam, bfs_reference, upload_edge_list, CsrGraph};

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// NVMe command encode/decode is lossless for every field combination.
    #[test]
    fn nvme_command_roundtrip(cid in any::<u16>(), slba in any::<u64>(), nlb in 1u32..1024, dptr in any::<u64>()) {
        let cmd = NvmeCommand::read(cid, slba, nlb, dptr);
        prop_assert_eq!(NvmeCommand::decode(&cmd.encode()), Some(cmd));
        let w = NvmeCommand::write(cid, slba, nlb, dptr);
        prop_assert_eq!(NvmeCommand::decode(&w.encode()), Some(w));
    }

    /// Completion entries round-trip including the phase bit.
    #[test]
    fn nvme_completion_roundtrip(cid in any::<u16>(), sq_head in any::<u16>(), phase in any::<bool>()) {
        let c = NvmeCompletion { cid, status: bam::nvme::NvmeStatus::Success, sq_head, phase };
        prop_assert_eq!(NvmeCompletion::decode(&c.encode()), c);
    }

    /// match_any partitions the active lanes into disjoint groups that
    /// exactly cover them, and every group's lanes share a key.
    #[test]
    fn warp_match_any_partitions(keys in prop::collection::vec(0u64..8, WARP_SIZE), active in any::<u32>()) {
        let masks = match_any(&keys, active);
        let mut covered: u32 = 0;
        for (leader, mask) in groups(&masks, active) {
            prop_assert_eq!(covered & mask, 0, "groups must be disjoint");
            covered |= mask;
            for lane in 0..WARP_SIZE {
                if mask & (1 << lane) != 0 {
                    prop_assert_eq!(keys[lane], keys[leader]);
                    prop_assert!(active & (1 << lane) != 0);
                }
            }
        }
        prop_assert_eq!(covered, active, "groups must cover all active lanes");
        // ballot of all-true equals the active mask.
        prop_assert_eq!(ballot(&[true; WARP_SIZE], active), active);
    }

    /// CSR construction preserves every edge and the degree sum.
    #[test]
    fn csr_preserves_edges(edges in prop::collection::vec((0u32..64, 0u32..64), 1..200)) {
        let g = CsrGraph::from_edge_list(64, &edges, false);
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        let degree_sum: u64 = (0..64).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, edges.len() as u64);
        for (u, v) in &edges {
            prop_assert!(g.neighbors(*u).contains(v), "edge ({u},{v}) lost");
        }
    }

    /// The log-linear histogram's percentiles stay within one bucket width
    /// (~2% relative above the linear range) of the exact nearest-rank
    /// percentile, on arbitrary samples spanning nine decades.
    #[test]
    fn histo_quantiles_match_exact_within_bucket_error(
        samples in prop::collection::vec(0u64..1_000_000_000, 1..500),
        qs in prop::collection::vec(0u64..1001, 1..8),
    ) {
        let histo = LatencyHisto::from_samples(samples.iter().copied());
        prop_assert_eq!(histo.count(), samples.len() as u64);
        prop_assert_eq!(histo.sum_ns(), samples.iter().sum::<u64>());
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for qn in qs {
            let q = qn as f64 / 1000.0;
            // Exact nearest-rank percentile over the sorted samples.
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = histo.value_at_quantile(q);
            // Bucket width at the exact value: 1 in the linear range, else
            // 1/64 of the value's power-of-two range (~2 values relative).
            let tolerance = (exact / 64).max(1);
            prop_assert!(
                approx.abs_diff(exact) <= tolerance,
                "q={q}: approx {approx} vs exact {exact} (tolerance {tolerance})"
            );
            prop_assert!(approx >= histo.min_ns() && approx <= histo.max_ns());
        }
    }

    /// Merging histograms is exactly recording the concatenated samples.
    #[test]
    fn histo_merge_equals_concatenation(
        a in prop::collection::vec(0u64..1_000_000_000, 0..300),
        b in prop::collection::vec(0u64..1_000_000_000, 0..300),
    ) {
        let mut merged = LatencyHisto::from_samples(a.iter().copied());
        merged.merge(&LatencyHisto::from_samples(b.iter().copied()));
        let concat = LatencyHisto::from_samples(a.iter().chain(&b).copied());
        prop_assert_eq!(merged, concat);
    }
}

/// Bytes of the byte-region model test's regions: every address below 200
/// plus every length below 600 fits.
const MODEL_REGION: usize = 800;

/// Asserts that `region` holds exactly `model`.
fn assert_region_matches(region: &ByteRegion, model: &[u8], after: &str) {
    let mut whole = vec![0u8; model.len()];
    region.read_bytes(0, &mut whole);
    assert!(
        whole == model,
        "region diverged from its model after {after}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// `ByteRegion`'s byte, fill, copy and pod accesses behave exactly like
    /// the same operations on a `Vec<u8>`, at every start and end offset
    /// within a word and across multi-word bodies. Op kinds: 0 write, 1 read,
    /// 2 fill, 3 copy between the regions (direction by `seed`'s low bit),
    /// 4 `read_pod::<u32>`, 5 `read_pod::<u64>`.
    #[test]
    fn byte_region_matches_vec_model(
        ops in prop::collection::vec((0u8..6, 0u64..200, 0usize..600, (0u64..200, any::<u8>())), 1..60),
    ) {
        let a = ByteRegion::new(MODEL_REGION);
        let b = ByteRegion::new(MODEL_REGION);
        let mut ma = vec![0u8; MODEL_REGION];
        let mut mb: Vec<u8> = (0..MODEL_REGION).map(|i| (i * 7 + 1) as u8).collect();
        b.write_bytes(0, &mb);
        for (kind, addr, len, (src, seed)) in ops {
            let at = addr as usize;
            match kind {
                0 => {
                    let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
                    a.write_bytes(addr, &data);
                    ma[at..at + len].copy_from_slice(&data);
                }
                1 => {
                    let mut out = vec![0u8; len];
                    a.read_bytes(addr, &mut out);
                    prop_assert_eq!(&out[..], &ma[at..at + len], "read at {} len {}", addr, len);
                }
                2 => {
                    a.fill(addr, len, seed);
                    ma[at..at + len].fill(seed);
                }
                3 => {
                    let from = src as usize;
                    if seed & 1 == 0 {
                        a.copy_from(addr, &b, src, len);
                        ma[at..at + len].copy_from_slice(&mb[from..from + len]);
                    } else {
                        b.copy_from(addr, &a, src, len);
                        mb[at..at + len].copy_from_slice(&ma[from..from + len]);
                    }
                }
                4 => {
                    let want = u32::from_le_bytes(ma[at..at + 4].try_into().unwrap());
                    prop_assert_eq!(a.read_pod::<u32>(addr), want, "u32 at {}", addr);
                }
                _ => {
                    let want = u64::from_le_bytes(ma[at..at + 8].try_into().unwrap());
                    prop_assert_eq!(a.read_pod::<u64>(addr), want, "u64 at {}", addr);
                }
            }
            let op = format!("op {kind} addr {addr} len {len} src {src}");
            assert_region_matches(&a, &ma, &op);
            assert_region_matches(&b, &mb, &op);
        }
    }
}

/// Line geometry of the journal-property rig: 16 lines of 64 bytes.
const JLINES: u64 = 16;
const JLINE_BYTES: u64 = 64;

/// Replays a sampled op stream into a fresh journal, returning the journal
/// plus the records it must decode to. Kind 0 is a write (offset and length
/// derived from `seed` so `offset + len <= JLINE_BYTES`), kind 1 an intent,
/// kind 2 a commit of the line's newest uncommitted intent (downgraded to an
/// intent when none is open, so untampered journals always recover cleanly).
fn journal_from_ops(ops: &[(u64, u64, u64)]) -> (CacheJournal, Vec<JournalRecord>) {
    let journal = CacheJournal::new();
    let mut expected = Vec::new();
    let mut latest_write: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut open_intents: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &(line_sel, seed, kind) in ops {
        let line = line_sel % JLINES;
        match kind {
            0 => {
                let offset = seed % (JLINE_BYTES / 2);
                let len = 1 + (seed >> 8) % (JLINE_BYTES / 2);
                let payload = vec![(seed >> 16) as u8; len as usize];
                let a = journal.append_write(line, offset, &payload).unwrap();
                latest_write.insert(line, a.lsn);
                expected.push(JournalRecord::Write {
                    lsn: a.lsn,
                    line,
                    offset,
                    payload,
                });
            }
            _ if kind == 2 && open_intents.contains_key(&line) => {
                let intent_lsn = open_intents.remove(&line).unwrap();
                let a = journal.append_writeback_commit(line, intent_lsn).unwrap();
                expected.push(JournalRecord::WritebackCommit {
                    lsn: a.lsn,
                    line,
                    intent_lsn,
                });
            }
            _ => {
                let covered = latest_write.get(&line).copied().unwrap_or(0);
                let a = journal.append_writeback_intent(line, covered).unwrap();
                open_intents.insert(line, a.lsn);
                expected.push(JournalRecord::WritebackIntent {
                    lsn: a.lsn,
                    line,
                    covered_lsn: covered,
                });
            }
        }
    }
    (journal, expected)
}

/// An in-memory backing store matching the journal-property rig's geometry.
fn journal_backing() -> (Arc<ByteRegion>, Arc<MemoryBacking>) {
    let data = Arc::new(ByteRegion::new((JLINES * JLINE_BYTES) as usize));
    let gpu = Arc::new(ByteRegion::new(4096));
    let backing = Arc::new(MemoryBacking::new(
        data,
        0,
        gpu.clone(),
        JLINE_BYTES,
        JLINES,
    ));
    (gpu, backing)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Journal encoding round-trips arbitrary append sequences with dense
    /// LSNs and no torn tail.
    #[test]
    fn journal_encoding_roundtrips(ops in prop::collection::vec((any::<u64>(), any::<u64>(), 0u64..3), 1..40)) {
        let (journal, expected) = journal_from_ops(&ops);
        let decoded = decode_records(&journal.snapshot()).unwrap();
        prop_assert!(!decoded.torn_tail);
        prop_assert_eq!(&decoded.records, &expected);
        for (i, rec) in decoded.records.iter().enumerate() {
            prop_assert_eq!(rec.lsn(), i as u64 + 1, "LSNs must be dense from 1");
        }
    }

    /// Cutting the journal anywhere yields the complete-record prefix and a
    /// torn-tail flag — truncation is a crash artifact, never "corruption".
    #[test]
    fn journal_truncation_is_torn_not_corrupt(
        ops in prop::collection::vec((any::<u64>(), any::<u64>(), 0u64..3), 1..24),
        cut_sel in any::<u64>(),
    ) {
        let (journal, expected) = journal_from_ops(&ops);
        let bytes = journal.snapshot();
        let cut = (cut_sel % (bytes.len() as u64 + 1)) as usize;
        let decoded = decode_records(&bytes[..cut]).unwrap();
        prop_assert!(decoded.records.len() <= expected.len());
        prop_assert_eq!(&decoded.records[..], &expected[..decoded.records.len()]);
        // The flag is exact: torn iff the cut kept part of the next record.
        let complete: usize = decoded.records.iter().map(|r| {
            bam::core::journal::RECORD_OVERHEAD_BYTES + match r {
                JournalRecord::Write { payload, .. } => payload.len(),
                _ => 0,
            }
        }).sum();
        prop_assert_eq!(decoded.torn_tail, cut != complete);
    }

    /// Flipping any single byte of a complete journal is detected and
    /// reported as typed corruption naming a plausible LSN.
    #[test]
    fn journal_byte_flips_are_typed_corruption(
        ops in prop::collection::vec((any::<u64>(), any::<u64>(), 0u64..3), 1..24),
        pos_sel in any::<u64>(),
        flip in 1u8..255,
    ) {
        let (journal, expected) = journal_from_ops(&ops);
        let mut bytes = journal.snapshot();
        let pos = (pos_sel % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        match decode_records(&bytes) {
            Err(BamError::JournalCorrupt { lsn }) => {
                prop_assert!(lsn >= 1 && lsn <= expected.len() as u64,
                    "flip at {} blamed lsn {}", pos, lsn);
            }
            other => prop_assert!(false, "flip at {} undetected: {:?}", pos, other),
        }
    }

    /// Recovery never panics: untampered journals replay cleanly, and torn,
    /// flipped, or torn-and-flipped journals either replay their valid
    /// prefix or fail with a typed error.
    #[test]
    fn journal_recovery_never_panics(
        ops in prop::collection::vec((any::<u64>(), any::<u64>(), 0u64..3), 1..24),
        cut_sel in any::<u64>(),
        flip_sel in any::<u64>(),
    ) {
        let (journal, _) = journal_from_ops(&ops);
        let bytes = journal.snapshot();
        let (gpu, backing) = journal_backing();
        prop_assert!(recover(&bytes, backing.as_ref(), &gpu, 1024).is_ok());

        // Torn-only journals still recover: the complete prefix replays.
        let cut = (cut_sel % (bytes.len() as u64 + 1)) as usize;
        let torn = &bytes[..cut];
        prop_assert!(recover(torn, backing.as_ref(), &gpu, 1024).is_ok());

        // Arbitrary further damage must at worst produce a typed error.
        let mut damaged = torn.to_vec();
        if !damaged.is_empty() {
            let pos = (flip_sel % damaged.len() as u64) as usize;
            damaged[pos] ^= 1 + (flip_sel >> 32) as u8 % 255;
        }
        match recover(&damaged, backing.as_ref(), &gpu, 1024) {
            Ok(_) | Err(BamError::JournalCorrupt { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected recovery error {:?}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Data written through BamArray and read back (with arbitrary interleaved
    /// reads) always matches a host-side model of the array.
    #[test]
    fn bam_array_matches_host_model(ops in prop::collection::vec((0u64..2_000, any::<u32>(), any::<bool>()), 1..80)) {
        let system = BamSystem::new(BamConfig::test_scale()).unwrap();
        let arr = system.create_array::<u32>(2_000).unwrap();
        let mut model = vec![0u32; 2_000];
        arr.preload(&model).unwrap();
        for (idx, value, is_write) in ops {
            if is_write {
                arr.write(idx, value).unwrap();
                model[idx as usize] = value;
            } else {
                prop_assert_eq!(arr.read(idx).unwrap(), model[idx as usize]);
            }
        }
        // After a flush, the media holds exactly the model contents.
        system.flush().unwrap();
        for (idx, expected) in model.iter().enumerate().step_by(111) {
            prop_assert_eq!(arr.read(idx as u64).unwrap(), *expected);
        }
    }

    /// The queue protocol delivers every command exactly once with correct
    /// data, for arbitrary block patterns, thread counts and ring sizes, with
    /// nobody but the waiters to drive the device. On a 2-entry ring
    /// (capacity 1) a submission waits for a credit that only another
    /// thread's `wait` returns.
    #[test]
    fn queue_protocol_never_loses_commands(
        lbas in prop::collection::vec(0u64..512, 8..64),
        threads in 1usize..6,
        small_ring in any::<bool>(),
    ) {
        let region = Arc::new(ByteRegion::new(8 << 20));
        let alloc = BumpAllocator::new(region.len() as u64);
        let ssd = SsdDevice::new(SsdSpec::intel_optane_p5800x(), region.clone(), 4 << 20);
        for lba in 0..512u64 {
            ssd.media().write_blocks(lba, &vec![(lba % 251) as u8; 512]).unwrap();
        }
        let entries = if small_ring { 2 } else { 16 };
        let qp = Arc::new(BamQueuePair::new(ssd.create_queue_pair(&alloc, entries).unwrap()));
        let per_thread: Vec<Vec<u64>> =
            (0..threads).map(|t| lbas.iter().skip(t).step_by(threads).copied().collect()).collect();
        std::thread::scope(|s| {
            for chunk in &per_thread {
                let qp = qp.clone();
                let region = region.clone();
                let dst = alloc.alloc(512, 512).unwrap();
                s.spawn(move || {
                    for &lba in chunk {
                        qp.read_and_wait(lba, 1, dst).unwrap();
                        let mut out = [0u8; 512];
                        region.read_bytes(dst, &mut out);
                        assert!(out.iter().all(|&b| b == (lba % 251) as u8), "lba {lba} corrupted");
                    }
                });
            }
        });
        prop_assert_eq!(qp.submissions(), lbas.len() as u64);
        prop_assert!(qp.sq_doorbell_writes() <= lbas.len() as u64);
    }

    /// BaM BFS agrees with the host reference on arbitrary random graphs.
    #[test]
    fn bfs_agrees_with_reference(
        num_nodes in 8u32..200,
        extra_edges in prop::collection::vec((0u32..200, 0u32..200), 0..300),
        source_pick in any::<u32>(),
    ) {
        // Keep endpoints in range and add a spanning chain so the graph is connected-ish.
        let mut edges: Vec<(u32, u32)> = (0..num_nodes - 1).map(|i| (i, i + 1)).collect();
        edges.extend(extra_edges.into_iter().map(|(u, v)| (u % num_nodes, v % num_nodes)));
        let graph = CsrGraph::from_edge_list(num_nodes, &edges, true);
        let source = source_pick % num_nodes;
        let system = BamSystem::new(BamConfig::test_scale()).unwrap();
        let bam_edges = upload_edge_list(&system, &graph).unwrap();
        let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), 2);
        let got = bfs_bam(&graph.offsets, &bam_edges, source, &exec).unwrap();
        let want = bfs_reference(&graph, source);
        prop_assert_eq!(got.distances, want.distances);
        prop_assert_eq!(got.edges_traversed, want.edges_traversed);
    }
}
