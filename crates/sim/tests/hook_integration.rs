//! End-to-end: a functional `bam-core` run instrumented with a
//! [`TraceRecorder`], its trace replayed under the event engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bam_core::{BamArray, BamConfig, BamSystem};
use bam_nvme_sim::{NvmeCommand, NvmeStatus, SsdSpec, StatsSnapshot};
use bam_pcie::LinkSpec;
use bam_sim::{PipelineParams, SimConfig, TraceRecorder, Workload};

fn preloaded_array(system: &BamSystem) -> BamArray<u64> {
    let arr = system.create_array::<u64>(4096).expect("array");
    arr.preload(&(0..4096u64).collect::<Vec<_>>())
        .expect("preload");
    arr
}

/// Strided cold reads: one storage request per 512 B line.
fn strided_reads(arr: &BamArray<u64>) {
    for i in (0..4096u64).step_by(64) {
        assert_eq!(arr.read(i).expect("read"), i);
    }
}

fn run_workload(system: &BamSystem) -> u64 {
    let arr = preloaded_array(system);
    strided_reads(&arr);
    // A few writes that must also show up in the trace.
    for i in (0..4096u64).step_by(512) {
        arr.write(i, i + 1).expect("write");
    }
    system.flush().expect("flush");
    system.metrics().total_requests()
}

/// The device-side counts of `system`, summed over its SSDs.
fn device_totals(system: &BamSystem) -> (u64, u64, u64) {
    let stats = system.ssd_stats();
    let sum = |f: fn(&StatsSnapshot) -> u64| stats.iter().map(f).sum::<u64>();
    (
        sum(|s| s.completions_posted),
        sum(StatsSnapshot::total_commands),
        sum(|s| s.failed_commands),
    )
}

#[test]
fn functional_trace_replays_through_the_engine() {
    let system = BamSystem::new(BamConfig::test_scale()).expect("system");
    let recorder = Arc::new(TraceRecorder::new());
    system.set_sim_hook(Some(recorder.clone()));
    let stack_requests = run_workload(&system);
    system.set_sim_hook(None);

    // The stack-level trace matches the metrics the stack itself counted...
    let trace = recorder.take_trace();
    assert_eq!(trace.len() as u64, stack_requests, "one event per command");
    assert!(trace.requests.iter().any(|r| r.write), "writes captured");
    assert!(trace.requests.iter().any(|r| !r.write), "reads captured");
    assert!(trace.requests.iter().all(|r| r.bytes == 512));
    // ...and the controllers completed the same commands end to end.
    let (posted, commands, _) = device_totals(&system);
    assert_eq!(posted, stack_requests);
    assert_eq!(commands, stack_requests);

    // Replay the measured stream on a 2-SSD Optane timing model.
    let config = SimConfig {
        seed: 7,
        num_ssds: 2,
        queue_pairs_per_ssd: 4,
        pipeline: PipelineParams::from_specs(
            &SsdSpec::intel_optane_p5800x(),
            &LinkSpec::gen4_x4(),
            &LinkSpec::gen4_x16(),
            512,
        ),
    };
    let workload = Workload::ClosedLoop { in_flight: 32 };
    let report = trace.replay(&config, workload).unwrap();
    assert_eq!(report.completed, stack_requests);
    // Every request pays at least the unloaded pipeline latency.
    assert!(report.latency.p50_us >= config.pipeline.unloaded_read_latency_us() * 0.99);
    assert!(report.latency.p999_us >= report.latency.p50_us);

    // Replays are deterministic: same trace, same seed, same report.
    assert_eq!(trace.replay(&config, workload), Ok(report));
}

#[test]
fn uninstalled_hook_records_nothing_more() {
    // The reference: one instrumented run on a fresh system.
    let reference = BamSystem::new(BamConfig::test_scale()).expect("system");
    let recorder = Arc::new(TraceRecorder::new());
    reference.set_sim_hook(Some(recorder.clone()));
    run_workload(&reference);
    let expected = recorder.take_trace();
    assert!(!expected.is_empty());

    // Install, run, uninstall, run: the trace holds the first run only.
    let system = BamSystem::new(BamConfig::test_scale()).expect("system");
    let recorder = Arc::new(TraceRecorder::new());
    system.set_sim_hook(Some(recorder.clone()));
    let first_run = run_workload(&system);
    system.set_sim_hook(None);
    let both_runs = run_workload(&system);
    assert!(both_runs > first_run, "the second run issued commands");
    let trace = recorder.take_trace();
    assert_eq!(trace.len() as u64, first_run);
    assert_eq!(trace, expected);
}

#[test]
fn failed_commands_are_counted_by_the_devices_not_traced() {
    let system = BamSystem::new(BamConfig::test_scale()).expect("system");
    assert!(system.config().fetch_retries > 0, "retries on");
    let arr = preloaded_array(&system);
    // Every third command, counted across the devices, fails.
    let fetched = Arc::new(AtomicU64::new(0));
    let counter = fetched.clone();
    let injector = Arc::new(move |_: &NvmeCommand| {
        (counter.fetch_add(1, Ordering::Relaxed) % 3 == 2).then_some(NvmeStatus::InternalError)
    });
    for device in 0..system.config().num_ssds {
        system.set_fault_injector(device, Some(injector.clone()));
    }
    let recorder = Arc::new(TraceRecorder::new());
    system.set_sim_hook(Some(recorder.clone()));
    strided_reads(&arr);
    system.set_sim_hook(None);

    let trace = recorder.take_trace();
    let metrics = system.metrics();
    let (posted, _, failed) = device_totals(&system);
    assert!(failed > 0, "the injector fired");
    assert_eq!(trace.len() as u64, metrics.total_requests());
    assert_eq!(posted, trace.len() as u64 + failed);
    assert_eq!(metrics.storage_retries, failed);
    assert_eq!(fetched.load(Ordering::Relaxed), posted);
}
