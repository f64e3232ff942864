//! End-to-end: a functional `bam-core` run instrumented with a
//! [`TraceRecorder`], its trace replayed under the event engine.

use std::sync::Arc;

use bam_core::{BamConfig, BamSystem};
use bam_nvme_sim::SsdSpec;
use bam_pcie::LinkSpec;
use bam_sim::{PipelineParams, SimConfig, TraceRecorder, Workload};

fn run_workload(system: &BamSystem) -> u64 {
    let arr = system.create_array::<u64>(4096).expect("array");
    arr.preload(&(0..4096u64).collect::<Vec<_>>())
        .expect("preload");
    // Strided cold reads (one storage request per 512 B line), plus a few
    // writes that must also show up in the trace.
    for i in (0..4096u64).step_by(64) {
        assert_eq!(arr.read(i).expect("read"), i);
    }
    for i in (0..4096u64).step_by(512) {
        arr.write(i, i + 1).expect("write");
    }
    system.flush().expect("flush");
    system.metrics().total_requests()
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
    // ...and the controllers observed the same commands end to end.
    assert_eq!(recorder.completions(), stack_requests);
    assert!(recorder.device_fetches() >= stack_requests);

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
fn uninstrumented_runs_record_nothing() {
    let system = BamSystem::new(BamConfig::test_scale()).expect("system");
    let recorder = Arc::new(TraceRecorder::new());
    // Hook never installed: the functional path stays untouched and the
    // recorder stays empty.
    run_workload(&system);
    assert!(recorder.take_trace().is_empty());
    assert_eq!(recorder.completions(), 0);
}
