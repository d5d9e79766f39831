//! Layer probes of the traced run: timed calls into one layer's public
//! functions, next to the op, on the op's own inputs. Probes are not
//! part of the op; they run after it, inside a `probe` span.

use std::time::Instant;

use t3_bench::experiments::ExperimentScale;
use t3_bench::jobs::sweep_jobs;
use t3_core::engine::{run_fused_gemm_rs_instrumented, FusedOptions, PolicyChoice};
use t3_gpu::collective::{CollectiveKind, RingCollective};
use t3_gpu::engine::{run_gemm_isolated_in_mode, WritePolicy};
use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_prof::analyze::Analysis;
use t3_runtime::{run, JobGraph, RunOptions};
use t3_sim::config::SystemConfig;
use t3_sim::SimMode;
use t3_spec::{SweepPlan, SystemSpec, WorkloadSpec};
use t3_trace::Instruments;

use crate::trace::Tracer;

/// The model counters the traced run reports, as the engines name them
/// in their metrics registries.
pub const COUNTERS: [&str; 7] = [
    "gemm.stages",
    "llc.hits",
    "llc.misses",
    "mc.stream_switches",
    "dma.transfers",
    "tracker.peak_entries",
    "link.bytes_sent",
];

/// Samples each of `keys` that the run's registry holds.
pub fn record_counters(tr: &mut Tracer, ins: &Instruments, keys: &[&str]) {
    let Some(m) = &ins.metrics else { return };
    for (name, value) in m.counters() {
        if keys.contains(&name) {
            tr.sample(name, value as f64);
        }
    }
}

/// Samples the simulated-time breakdown of an instrumented run that
/// took `host_ns` of host time.
pub fn record_analysis(tr: &mut Tracer, ins: &Instruments, host_ns: u64) {
    let Some(t) = &ins.tracer else { return };
    let a = Analysis::from_records(t.records());
    if a.total_cycles == 0 {
        return;
    }
    let total = a.total_cycles as f64;
    tr.sample(
        "sim.fast_forwardable_permille",
        1000.0 * a.fast_forwardable_cycles as f64 / total,
    );
    tr.sample("sim.overlap_permille", a.overlap_permille as f64);
    tr.sample(
        "sim.exposed_collective_cycles",
        a.exposed_collective_cycles as f64,
    );
    tr.sample("sim.memory_stall_cycles", a.memory_stall_cycles as f64);
    tr.sample("sim.host_ns_per_kcycle", host_ns as f64 * 1000.0 / total);
}

/// Times the single-GPU pieces of one sliced sublayer: the isolated
/// GEMM and ring reduce-scatter of the sequential baseline, and the
/// instrumented fused GEMM-RS. Samples the fused run's counters named
/// in `counters` and, when `analysis` is set, its simulated-time
/// breakdown.
pub fn sublayer(
    tr: &mut Tracer,
    sys: &SystemConfig,
    shape: GemmShape,
    mode: SimMode,
    counters: &[&str],
    analysis: bool,
) {
    let grid = GemmGrid::new(&sys.gpu, shape);
    tr.span("gpu.gemm_isolated", |_| {
        run_gemm_isolated_in_mode(sys, grid.clone(), WritePolicy::CachedLocal, mode)
    });
    tr.span("gpu.ring_collective", |_| {
        RingCollective::baseline(CollectiveKind::ReduceScatter, shape.output_bytes(), sys)
            .simulate(sys)
    });
    let opts = FusedOptions {
        policy: PolicyChoice::McaDynamic,
        mode,
        ..FusedOptions::default()
    };
    let mut ins = Instruments::full();
    let t = Instant::now();
    tr.span("core.fused_gemm_rs", |_| {
        run_fused_gemm_rs_instrumented(sys, grid, &opts, Some(&mut ins))
    });
    let host_ns = t.elapsed().as_nanos() as u64;
    record_counters(tr, &ins, counters);
    if analysis {
        record_analysis(tr, &ins, host_ns);
    }
}

/// Parses and expands a workload/system spec pair under `spec.parse`
/// and `spec.expand` spans.
pub fn spec(tr: &mut Tracer, workload: &str, system: &str) -> Result<SweepPlan, String> {
    let (w, s) = tr.span("spec.parse", |_| {
        (
            WorkloadSpec::parse("generated.t3w", workload),
            SystemSpec::parse("generated.t3s", system),
        )
    });
    let (w, s) = (w.map_err(|e| e.to_string())?, s.map_err(|e| e.to_string())?);
    tr.span("spec.expand", |_| {
        SweepPlan::expand("generated.t3w", &w, &s)
    })
    .map_err(|e| e.to_string())
}

/// Runs `plan` through the experiment runtime (one worker, no cache)
/// and samples `runtime.overhead_ms`: the run's wall time minus the
/// summed job times.
pub fn runtime(tr: &mut Tracer, plan: &SweepPlan, token_divisor: u64) -> Result<(), String> {
    let mut graph = JobGraph::new();
    for job in sweep_jobs(plan, ExperimentScale { token_divisor }) {
        graph.add(job);
    }
    let t = Instant::now();
    let summary = tr.span("runtime.run", |_| run(graph, &RunOptions::with_workers(1)));
    let wall_ns = t.elapsed().as_nanos();
    if !summary.ok() {
        return Err(format!("{} runtime job(s) failed", summary.failed()));
    }
    let jobs_ns: u128 = summary.results.iter().map(|r| r.wall_ns).sum();
    tr.sample(
        "runtime.overhead_ms",
        wall_ns.saturating_sub(jobs_ns) as f64 / 1e6,
    );
    Ok(())
}
