//! Crash-replay sweeps: kill the stack at randomly and exhaustively chosen
//! durable steps, replay the journal, and assert the three recovery
//! invariants — no acknowledged write is lost, no committed write-back is
//! double-applied, and the replay is bit-identical when run twice.
//!
//! The discipline follows Memento (see SNIPPETS §1): a dry run with a
//! disarmed [`CrashPoint`] counts the durable steps a workload takes, then
//! the sweeps arm each (or a sampled) step index in turn and drive the same
//! workload into the crash.
//!
//! A run long enough to checkpoint the journal adds a DMON-style lockstep
//! check: the journal images just before and just after each checkpoint
//! must recover to the same media.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use bam::core::{decode_records, CacheJournal, JournalRecord};
use bam::core::{BamArray, BamConfig, BamError, BamSystem, CrashPoint};

/// 16 cache lines of 64 u64 elements under the 512-byte test-scale line.
const ELEMS: u64 = 16 * 64;

/// u64 elements per 512-byte line.
const PER_LINE: u64 = 64;

/// One workload step: an application write, a whole-line write (one
/// journal record with a 512-byte payload), or a full cache flush.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { idx: u64, value: u64 },
    WriteLine { line: u64, value: u64 },
    Flush,
}

/// Decodes the sampled op stream: `flush_after` turns a write into a
/// write-then-flush pair, so flushes land at arbitrary plan positions.
fn plan_from(ops: &[(u64, u64, bool)]) -> Vec<Op> {
    let mut plan = Vec::with_capacity(ops.len() * 2);
    for &(idx_sel, value, flush_after) in ops {
        plan.push(Op::Write {
            idx: idx_sel % ELEMS,
            value,
        });
        if flush_after {
            plan.push(Op::Flush);
        }
    }
    plan
}

/// A crash-injectable system over a zero-preloaded array of `elems`.
fn rig(cp: &Arc<CrashPoint>, elems: u64) -> (BamSystem, BamArray<u64>) {
    let sys = BamSystem::with_crash_point(BamConfig::test_scale(), cp.clone()).unwrap();
    let arr = sys.create_array::<u64>(elems).unwrap();
    arr.preload(&vec![0u64; elems as usize]).unwrap();
    (sys, arr)
}

/// Drives `plan` into the (possibly crashing) stack. Returns the
/// acknowledged state: index → last value whose write returned `Ok`. Once
/// the crash point trips, every further durable operation must fail with
/// [`BamError::Crashed`] — anything else is a bug.
fn apply_plan(sys: &BamSystem, arr: &BamArray<u64>, plan: &[Op]) -> HashMap<u64, u64> {
    let mut acked = HashMap::new();
    for op in plan {
        match *op {
            Op::Write { idx, value } => match arr.write(idx, value) {
                Ok(()) => {
                    acked.insert(idx, value);
                }
                Err(BamError::Crashed) => {}
                Err(other) => panic!("unexpected write error {other:?}"),
            },
            Op::WriteLine { line, value } => {
                let start = line * PER_LINE;
                match arr.write_run(start, &[value; PER_LINE as usize]) {
                    Ok(()) => acked.extend((start..start + PER_LINE).map(|idx| (idx, value))),
                    Err(BamError::Crashed) => {}
                    Err(other) => panic!("unexpected line write error {other:?}"),
                }
            }
            Op::Flush => match sys.flush() {
                Ok(_) => {}
                Err(BamError::Crashed) => {}
                Err(other) => panic!("unexpected flush error {other:?}"),
            },
        }
    }
    acked
}

/// An independent oracle for the no-double-apply invariant: from the journal
/// alone, the lines recovery must touch are exactly those with a write
/// record newer than the newest committed write-back horizon. A commit whose
/// intent lies at or below the checkpoint base lost its intent to the
/// checkpoint and is skipped; a missing intent above the base panics.
fn lines_recovery_must_touch(journal: &[u8]) -> u64 {
    let decoded = decode_records(journal).unwrap();
    let mut writes: HashMap<u64, Vec<u64>> = HashMap::new(); // line -> write lsns
    let mut intents: HashMap<u64, (u64, u64)> = HashMap::new(); // lsn -> (line, covered)
    let mut durable: HashMap<u64, u64> = HashMap::new(); // line -> horizon
    for rec in &decoded.records {
        match rec {
            JournalRecord::Write { lsn, line, .. } => writes.entry(*line).or_default().push(*lsn),
            JournalRecord::WritebackIntent {
                lsn,
                line,
                covered_lsn,
            } => {
                intents.insert(*lsn, (*line, *covered_lsn));
            }
            JournalRecord::WritebackCommit { intent_lsn, .. } => {
                if *intent_lsn <= decoded.base_lsn {
                    continue;
                }
                let (line, covered) = intents[intent_lsn];
                let horizon = durable.entry(line).or_insert(0);
                *horizon = (*horizon).max(covered);
            }
        }
    }
    writes
        .iter()
        .filter(|(line, lsns)| {
            let horizon = durable.get(line).copied().unwrap_or(0);
            lsns.iter().any(|&lsn| lsn > horizon)
        })
        .count() as u64
}

/// Every element of `arr`, read back through the (cold after recovery)
/// cache, so from the media.
fn read_all(arr: &BamArray<u64>) -> Vec<u64> {
    arr.read_run(0, arr.len()).unwrap()
}

/// The acknowledged state: preload zeros overwritten by `acked`.
fn acked_model(acked: &HashMap<u64, u64>, elems: u64) -> Vec<u64> {
    let mut model = vec![0; elems as usize];
    for (&idx, &value) in acked {
        model[idx as usize] = value;
    }
    model
}

/// Runs `plan` into a crash armed at durable step `crash_step` (tearing the
/// journal append, if that is what the step is, to `torn_bytes`), recovers,
/// and asserts every invariant. Panics (via assert) on any violation.
fn crash_recover_check(plan: &[Op], elems: u64, crash_step: u64, torn_bytes: u64) {
    let cp = Arc::new(CrashPoint::new());
    let (sys, arr) = rig(&cp, elems);
    cp.arm(crash_step, torn_bytes);
    let acked = apply_plan(&sys, &arr, plan);

    // The journal image that survived the crash drives the reboot.
    let journal = sys.journal().unwrap().snapshot();
    let report = sys.recover_from_journal(&journal).unwrap();

    // (b) No completed write-back is double-applied: recovery touched
    // exactly the lines the journal proves have redo work.
    assert_eq!(
        report.replayed_lines,
        lines_recovery_must_touch(&journal),
        "step {crash_step}: replayed lines disagree with the journal oracle"
    );

    // (a) No acknowledged write is lost, and nothing else changed: the whole
    // array must equal preload-zeros overwritten by the acknowledged writes.
    assert_eq!(
        read_all(&arr),
        acked_model(&acked, elems),
        "step {crash_step}: the array diverged after recovery"
    );

    // (c) Deterministic replay: recovering the same journal again produces a
    // bit-identical report and leaves the media untouched (idempotent redo).
    let report2 = sys.recover_from_journal(&journal).unwrap();
    assert_eq!(
        report, report2,
        "step {crash_step}: replay is not deterministic"
    );
    assert_eq!(read_all(&arr), acked_model(&acked, elems));

    // The stack is live again: a fresh write-flush-read cycle works.
    arr.write(0, 0xDEAD_BEEF).unwrap();
    sys.flush().unwrap();
    assert_eq!(arr.read(0).unwrap(), 0xDEAD_BEEF);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// The headline sweep: 128 random workloads, each killed at a random
    /// durable step with a random torn-append length, must all recover to
    /// the acknowledged state.
    #[test]
    fn random_crash_points_always_recover(
        ops in prop::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..40),
        crash_sel in any::<u64>(),
        torn_sel in 0u64..96,
    ) {
        let plan = plan_from(&ops);
        // Dry run with the crash point disarmed: count the durable steps the
        // plan takes, so the armed run samples a *reachable* step (arming at
        // exactly `total` never trips — the no-crash case stays in the sweep).
        let cp = Arc::new(CrashPoint::new());
        let (sys, arr) = rig(&cp, ELEMS);
        let full = apply_plan(&sys, &arr, &plan);
        prop_assert_eq!(full.len(), plan.iter().filter_map(|op| match op {
            Op::Write { idx, .. } => Some(*idx),
            _ => None,
        }).collect::<std::collections::HashSet<_>>().len());
        let total = cp.steps_taken();
        prop_assert!(total > 0, "a plan with writes must take durable steps");

        crash_recover_check(&plan, ELEMS, crash_sel % (total + 1), torn_sel);
    }
}

/// The exhaustive companion: one fixed eviction-and-flush-heavy plan, killed
/// at *every* durable step it takes, recovers at each of them.
#[test]
fn every_durable_step_of_a_fixed_plan_recovers() {
    let mut plan = Vec::new();
    for i in 0..24u64 {
        plan.push(Op::Write {
            idx: (i * 67) % ELEMS,
            value: i + 1,
        });
        if i % 7 == 3 {
            plan.push(Op::Flush);
        }
    }

    let cp = Arc::new(CrashPoint::new());
    let (sys, arr) = rig(&cp, ELEMS);
    apply_plan(&sys, &arr, &plan);
    let total = cp.steps_taken();
    assert!(
        total >= 24,
        "plan too small to be interesting: {total} steps"
    );

    for step in 0..=total {
        // Vary the tear across the sweep; 56 exceeds a metadata record's
        // length, so both header-torn and payload-torn tails occur.
        crash_recover_check(&plan, ELEMS, step, (step * 13) % 56);
    }
}

/// 256 lines, twice the test-scale cache's 128 slots, so writes evict.
const BIG_ELEMS: u64 = 256 * PER_LINE;

/// A write/evict/flush plan long enough to checkpoint the journal several
/// times: mostly whole-line writes (560 journal bytes each) over twice as
/// many lines as the cache holds, some element writes, a flush every 200
/// ops.
fn checkpoint_plan() -> Vec<Op> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut plan = Vec::new();
    for i in 1..=8_800u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        plan.push(if x.is_multiple_of(4) {
            Op::Write {
                idx: (x >> 8) % BIG_ELEMS,
                value: i,
            }
        } else {
            Op::WriteLine {
                line: (x >> 8) % (BIG_ELEMS / PER_LINE),
                value: i,
            }
        });
        if i.is_multiple_of(200) {
            plan.push(Op::Flush);
        }
    }
    plan
}

/// Journal bytes the checkpoints so far have cut away (less the checkpoint
/// record they left): it grows exactly when a checkpoint frees something.
fn retired(journal: &CacheJournal) -> u64 {
    journal.appended_bytes() - journal.live_bytes()
}

/// What a run of `plan` crashed at `crash_step` (appends torn to nothing)
/// leaves: the system, its array, the acknowledged state and the journal.
fn crashed_run(
    plan: &[Op],
    crash_step: u64,
) -> (BamSystem, BamArray<u64>, HashMap<u64, u64>, Vec<u8>) {
    let cp = Arc::new(CrashPoint::new());
    let (sys, arr) = rig(&cp, BIG_ELEMS);
    cp.arm(crash_step, 0);
    let acked = apply_plan(&sys, &arr, plan);
    let image = sys.journal().unwrap().snapshot();
    (sys, arr, acked, image)
}

/// The durable step index of every checkpoint [`checkpoint_plan`] takes,
/// found once: a dry run spots the ops whose journal retired more bytes,
/// then a bisection over each such op's steps finds the first step whose
/// crash leaves that checkpoint done, which is the one after it.
fn checkpoint_steps() -> &'static [u64] {
    static STEPS: OnceLock<Vec<u64>> = OnceLock::new();
    STEPS.get_or_init(|| {
        let plan = checkpoint_plan();
        let cp = Arc::new(CrashPoint::new());
        let (sys, arr) = rig(&cp, BIG_ELEMS);
        let journal = sys.journal().unwrap();
        let mut steps = Vec::new();
        for (i, op) in plan.iter().enumerate() {
            let (first, before) = (cp.steps_taken(), retired(journal));
            apply_plan(&sys, &arr, std::slice::from_ref(op));
            if retired(journal) == before {
                continue;
            }
            let (mut lo, mut hi) = (first, cp.steps_taken() - 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let (sys, ..) = crashed_run(&plan[..=i], mid + 1);
                if retired(sys.journal().unwrap()) > before {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            steps.push(lo);
        }
        steps
    })
}

/// DMON-style lockstep: at every checkpoint, the journal image just before
/// it (a crash at its step) and just after it (a crash at the next step)
/// leave identical media behind; recovering each must give byte-equal
/// arrays, both equal to the acknowledged state.
#[test]
fn checkpoints_are_invisible_to_recovery() {
    let plan = checkpoint_plan();
    let steps = checkpoint_steps();
    assert!(steps.len() >= 3, "only {} checkpoints", steps.len());
    for &step in steps {
        let (sys_before, arr_before, acked, before) = crashed_run(&plan, step);
        let (sys_after, arr_after, acked_after, after) = crashed_run(&plan, step + 1);
        assert_eq!(
            acked, acked_after,
            "step {step}: the checkpoint acked a write"
        );

        // The images: the checkpoint raised the base and kept, byte for
        // byte, every record above it.
        let (b, a) = (
            decode_records(&before).unwrap(),
            decode_records(&after).unwrap(),
        );
        assert!(!b.torn_tail && !a.torn_tail);
        assert!(a.base_lsn > b.base_lsn, "step {step} is not a checkpoint");
        assert!(after.len() < before.len());
        let kept: Vec<_> = b.records.iter().filter(|r| r.lsn() > a.base_lsn).collect();
        assert_eq!(kept, a.records.iter().collect::<Vec<_>>(), "step {step}");
        assert_eq!(before[before.len() - (after.len() - 48)..], after[48..]);

        // The media: recovering either image restores the same bytes.
        sys_before.recover_from_journal(&before).unwrap();
        sys_after.recover_from_journal(&after).unwrap();
        let (got_before, got_after) = (read_all(&arr_before), read_all(&arr_after));
        assert!(
            got_before == got_after,
            "step {step}: recovered media differ"
        );
        assert!(
            got_before == acked_model(&acked, BIG_ELEMS),
            "step {step}: recovery lost an acknowledged write"
        );
    }
}

/// A crash sweep over the checkpointing plan whose sampled steps include
/// every checkpoint step and both its neighbours, plus steps spread evenly
/// over the run.
#[test]
fn every_checkpoint_step_and_its_neighbours_recover() {
    let plan = checkpoint_plan();
    let steps = checkpoint_steps();
    assert!(steps.len() >= 3, "only {} checkpoints", steps.len());
    let last = *steps.last().unwrap();
    let mut sampled: Vec<u64> = steps.iter().flat_map(|&s| [s - 1, s, s + 1]).collect();
    sampled.extend((1..8).map(|i| last * i / 8));
    for step in sampled {
        crash_recover_check(&plan, BIG_ELEMS, step, (step * 13) % 56);
    }
}
