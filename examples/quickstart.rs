//! Quickstart: build a BaM system, map a storage-backed array, and access it
//! from simulated GPU threads.
//!
//! Run with: `cargo run --example quickstart`

use bam::core::{BamConfig, BamSystem};
use bam::gpu::{GpuExecutor, GpuSpec, WARP_SIZE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a (scaled-down) BaM system: 2 simulated Optane SSDs, 512 B
    //    cache lines, a 64 KiB software cache, all allocated in simulated GPU
    //    memory — the same structure as the paper's prototype.
    let system = BamSystem::new(BamConfig::test_scale())?;
    println!(
        "BaM system up: {} SSDs, {} B cache lines",
        system.config().num_ssds,
        system.config().cache_line_bytes
    );

    // 2. Map a storage-backed array (the bam::array<T> abstraction) and
    //    preload a dataset onto the SSDs.
    let n: u64 = 100_000;
    let data = system.create_array::<f32>(n)?;
    data.preload(&(0..n).map(|i| (i as f32).sqrt()).collect::<Vec<_>>())?;

    // 3. Launch a GPU kernel: every thread reads one element on demand.
    //    Threads in a warp accessing the same cache line share one probe and
    //    one storage request (warp coalescing).
    let exec = GpuExecutor::new(GpuSpec::a100_80gb());
    let sum = std::sync::atomic::AtomicU64::new(0);
    exec.launch(n as usize, |warp| {
        let mut indices = [None; WARP_SIZE];
        for (lane, tid) in warp.lanes() {
            indices[lane] = Some(tid as u64);
        }
        let values = data.gather_warp(warp, &indices).expect("gather");
        for v in values.into_iter().flatten() {
            sum.fetch_add(v as u64, std::sync::atomic::Ordering::Relaxed);
        }
    });
    println!(
        "sum of sqrt values ≈ {}",
        sum.load(std::sync::atomic::Ordering::Relaxed)
    );

    // 4. The same at run granularity: every lane reads eight consecutive
    //    elements. One warp-scope call walks all lanes' lines in order and
    //    keeps the warp's misses in flight together.
    let run_sum = std::sync::atomic::AtomicU64::new(0);
    exec.launch((n / 8) as usize, |warp| {
        let mut runs = [None; WARP_SIZE];
        for (lane, tid) in warp.lanes() {
            runs[lane] = Some((tid as u64 * 8, 8));
        }
        data.read_runs_warp(warp, &runs, |_lane, values| {
            let sum: f32 = values.iter().sum();
            run_sum.fetch_add(sum as u64, std::sync::atomic::Ordering::Relaxed);
        })
        .expect("read runs");
    });
    println!(
        "sum over 8-element runs ≈ {}",
        run_sum.load(std::sync::atomic::Ordering::Relaxed)
    );

    // 5. Inspect what the software stack did (MetricsSnapshot's Display
    //    prints the cache and storage summary).
    println!("{}", system.metrics());
    println!("doorbell writes: {}", system.total_doorbell_writes());
    Ok(())
}
