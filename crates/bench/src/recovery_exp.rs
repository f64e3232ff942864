//! Crash-recovery sweep: crash points × dirty-working-set sizes.
//!
//! Each cell drives a fixed dirty-write workload into a journalled
//! [`BamSystem`] with a [`CrashPoint`] armed at one of nine evenly spaced
//! durable steps (the last lands past the end — the no-crash control),
//! replays the surviving journal, and reports what recovery cost: how many
//! writes and lines were replayed, the journal's size and write
//! amplification, and the replay's simulated wall time on the event-driven
//! engine with the journal-flush stage enabled (vNV-Heap-style bounded
//! persist latency). Everything is deterministic — the replay time is
//! simulated, not measured — so the `recovery` binary's output is
//! bit-identical across runs and its `BENCH_recovery.json` sits under the
//! drift gate.

use std::sync::Arc;

use bam_core::journal::RECORD_OVERHEAD_BYTES;
use bam_core::{
    replay_plan, BamArray, BamConfig, BamError, BamSystem, CrashPoint, LineReplay, RecoveryReport,
};
use bam_nvme_sim::{DataLayout, SsdSpec};
use bam_pcie::LinkSpec;
use bam_sim::{PipelineParams, RequestDesc, Run, SimConfig, Workload};

/// Dirty working sets swept (cache lines written before the crash).
pub const RECOVERY_DIRTY_SETS: [u64; 3] = [16, 64, 256];

/// Evenly spaced crash points per working set; index `RECOVERY_CRASH_POINTS`
/// itself arms one step past the end (the run that never crashes).
pub const RECOVERY_CRASH_POINTS: u64 = 8;

/// Acknowledged application writes per dirty line.
pub const RECOVERY_WRITES_PER_LINE: u64 = 4;

/// Seed of the replay-time simulation.
pub const RECOVERY_SIM_SEED: u64 = 7;

/// One cell of the recovery sweep.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Dirty working set (lines) the workload writes.
    pub dirty_lines: u64,
    /// Durable step the crash was armed at.
    pub crash_step: u64,
    /// Durable steps the full workload takes (dry-run count).
    pub total_steps: u64,
    /// Writes acknowledged before the crash struck.
    pub acked_writes: u64,
    /// Journal size at the crash, in bytes (including any torn tail).
    pub journal_bytes: u64,
    /// Journal bytes per acknowledged payload byte.
    pub write_amplification: f64,
    /// Complete records recovery decoded.
    pub records_scanned: u64,
    /// Whether the crash tore the final append.
    pub torn_tail: bool,
    /// Write records recovery redid.
    pub replayed_writes: u64,
    /// Lines recovery fetched, patched, and wrote back.
    pub replayed_lines: u64,
    /// Simulated replay time in microseconds (one read + one journalled
    /// write per replayed line on a single Optane SSD).
    pub replay_us: f64,
}

/// The sweep's system: test-scale geometry with the cache halved relative to
/// the working set, so evictions (journalled write-backs) happen mid-run.
fn sweep_config(dirty_lines: u64) -> BamConfig {
    let mut cfg = BamConfig::test_scale();
    cfg.cache_bytes = (dirty_lines / 2).max(4) * cfg.cache_line_bytes;
    cfg
}

/// Drives the cell's workload: `RECOVERY_WRITES_PER_LINE` element writes
/// into each of `dirty_lines` lines, then a full flush. Returns the number
/// of acknowledged writes; once the crash trips, the remaining operations
/// fail with [`BamError::Crashed`] and are not counted.
fn drive_workload(sys: &BamSystem, arr: &BamArray<u64>, dirty_lines: u64) -> u64 {
    let per_line = sys.config().cache_line_bytes / 8;
    let mut acked = 0;
    for line in 0..dirty_lines {
        for j in 0..RECOVERY_WRITES_PER_LINE {
            let idx = line * per_line + j * 13 + line % 7;
            match arr.write(idx, line * 1_000 + j) {
                Ok(()) => acked += 1,
                Err(BamError::Crashed) => {}
                Err(other) => panic!("unexpected write error {other:?}"),
            }
        }
    }
    match sys.flush() {
        Ok(_) | Err(BamError::Crashed) => {}
        Err(other) => panic!("unexpected flush error {other:?}"),
    }
    acked
}

/// Simulated replay time: each replayed line is one 512 B read plus one
/// journalled 512 B write on a single Optane SSD, with the journal-flush
/// stage charging the bounded persist cost of one metadata record.
fn simulate_replay_us(replayed_lines: u64) -> f64 {
    if replayed_lines == 0 {
        return 0.0;
    }
    let pipeline = PipelineParams::from_specs(
        &SsdSpec::intel_optane_p5800x(),
        &LinkSpec::gen4_x4(),
        &LinkSpec::gen4_x16(),
        512,
    )
    .deterministic()
    .with_journal_flush(RECORD_OVERHEAD_BYTES as u64);
    let cfg = SimConfig {
        seed: RECOVERY_SIM_SEED,
        num_ssds: 1,
        queue_pairs_per_ssd: 4,
        pipeline,
    };
    let mut requests = Vec::with_capacity(2 * replayed_lines as usize);
    for _ in 0..replayed_lines {
        requests.push(RequestDesc::read(512));
        requests.push(RequestDesc::write(512));
    }
    let in_flight = (requests.len() as u32).min(64);
    let (report, _) = Run::new(&cfg)
        .single(Workload::ClosedLoop { in_flight }, &requests)
        .expect("at least one replayed line");
    report.sim_time_s * 1e6
}

/// Runs one cell: workload into an armed crash, then journal replay.
fn run_cell(dirty_lines: u64, crash_step: u64, total_steps: u64, torn_bytes: u64) -> RecoveryRow {
    let cp = Arc::new(CrashPoint::new());
    let sys = BamSystem::with_crash_point(sweep_config(dirty_lines), cp.clone()).unwrap();
    let per_line = sys.config().cache_line_bytes / 8;
    let arr = sys.create_array::<u64>(dirty_lines * per_line).unwrap();
    arr.preload(&vec![0u64; (dirty_lines * per_line) as usize])
        .unwrap();
    cp.arm(crash_step, torn_bytes);
    let acked = drive_workload(&sys, &arr, dirty_lines);

    let journal = sys.journal().expect("sweep systems are journalled");
    let write_amplification = journal.write_amplification();
    let image = journal.snapshot();
    let report = sys.recover_from_journal(&image).unwrap();

    RecoveryRow {
        dirty_lines,
        crash_step,
        total_steps,
        acked_writes: acked,
        journal_bytes: report.journal_bytes,
        write_amplification,
        records_scanned: report.records_scanned,
        torn_tail: report.torn_tail,
        replayed_writes: report.replayed_writes,
        replayed_lines: report.replayed_lines,
        replay_us: simulate_replay_us(report.replayed_lines),
    }
}

/// The cell `recovery --verbose` dissects: the largest dirty working set
/// crashed halfway through its durable steps. Returns the per-line replay
/// plan (decoded from the surviving journal *before* the replay runs) and
/// the recovery report; the plan's pending writes always sum to the
/// report's replayed writes.
pub fn verbose_cell() -> (Vec<LineReplay>, RecoveryReport) {
    let dirty_lines = *RECOVERY_DIRTY_SETS.last().expect("non-empty sweep");
    let per_line = sweep_config(dirty_lines).cache_line_bytes / 8;
    let build = || {
        let cp = Arc::new(CrashPoint::new());
        let sys = BamSystem::with_crash_point(sweep_config(dirty_lines), cp.clone()).unwrap();
        let arr = sys.create_array::<u64>(dirty_lines * per_line).unwrap();
        arr.preload(&vec![0u64; (dirty_lines * per_line) as usize])
            .unwrap();
        (cp, sys, arr)
    };
    // Dry run: count the durable steps this working set takes.
    let (cp, sys, arr) = build();
    drive_workload(&sys, &arr, dirty_lines);
    let total_steps = cp.steps_taken();

    // The mid-run crash, replayed with its plan decoded first.
    let (cp, sys, arr) = build();
    cp.arm(total_steps / 2, 24);
    drive_workload(&sys, &arr, dirty_lines);
    let image = sys
        .journal()
        .expect("sweep systems are journalled")
        .snapshot();
    let cfg = sys.config();
    let logical_capacity = match cfg.layout {
        DataLayout::Replicated => cfg.ssd_capacity_bytes,
        DataLayout::Striped { .. } => cfg.ssd_capacity_bytes * cfg.num_ssds as u64,
    };
    let plan = replay_plan(
        &image,
        logical_capacity / cfg.cache_line_bytes,
        cfg.cache_line_bytes,
    )
    .expect("a live run's journal decodes");
    let report = sys.recover_from_journal(&image).unwrap();
    (plan, report)
}

/// The full sweep: every dirty-set size × nine evenly spaced crash points
/// (the ninth past the end, so the no-crash journal is in the trajectory).
pub fn recovery_sweep() -> Vec<RecoveryRow> {
    let mut rows = Vec::new();
    for &dirty_lines in &RECOVERY_DIRTY_SETS {
        // Dry run: count the durable steps this working set takes.
        let cp = Arc::new(CrashPoint::new());
        let sys = BamSystem::with_crash_point(sweep_config(dirty_lines), cp.clone()).unwrap();
        let per_line = sys.config().cache_line_bytes / 8;
        let arr = sys.create_array::<u64>(dirty_lines * per_line).unwrap();
        arr.preload(&vec![0u64; (dirty_lines * per_line) as usize])
            .unwrap();
        drive_workload(&sys, &arr, dirty_lines);
        let total_steps = cp.steps_taken();

        for k in 0..=RECOVERY_CRASH_POINTS {
            let crash_step = k * total_steps / RECOVERY_CRASH_POINTS;
            rows.push(run_cell(
                dirty_lines,
                crash_step,
                total_steps,
                (k * 13) % 56,
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbose_cell_plan_matches_its_report() {
        let (plan, report) = verbose_cell();
        let planned_writes: u64 = plan.iter().map(|l| l.pending_writes).sum();
        let planned_lines = plan.iter().filter(|l| l.pending_writes > 0).count() as u64;
        assert_eq!(planned_writes, report.replayed_writes);
        assert_eq!(planned_lines, report.replayed_lines);
        assert!(report.replayed_lines > 0, "the mid-run crash owes a replay");
        assert!(report.to_string().contains("replayed"));
    }

    #[test]
    fn sweep_is_deterministic_and_replays_scale_with_dirty_set() {
        let a = recovery_sweep();
        assert_eq!(
            a.len() as u64,
            RECOVERY_DIRTY_SETS.len() as u64 * (RECOVERY_CRASH_POINTS + 1)
        );
        for row in &a {
            assert!(row.crash_step <= row.total_steps);
            assert!(row.replayed_writes <= row.acked_writes);
            assert!(row.replayed_lines <= row.dirty_lines);
            assert_eq!(row.replay_us == 0.0, row.replayed_lines == 0);
            if row.acked_writes > 0 {
                assert!(row.write_amplification > 1.0);
            }
        }
        // The no-crash control row of each working set committed every
        // write-back: nothing to replay.
        for row in a.iter().filter(|r| r.crash_step == r.total_steps) {
            assert_eq!(row.replayed_lines, 0, "committed flush must not replay");
            assert!(!row.torn_tail);
        }
        // Determinism: the whole sweep reproduces bit-identically.
        let b = recovery_sweep();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.crash_step, y.crash_step);
            assert_eq!(x.journal_bytes, y.journal_bytes);
            assert_eq!(x.replayed_writes, y.replayed_writes);
            assert!(x.write_amplification == y.write_amplification);
            assert!(x.replay_us == y.replay_us);
        }
    }
}
