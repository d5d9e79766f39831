//! The paper's side studies.
//!
//! * [`cu_split_study`] — Figure 6: how much of the ideal
//!   overlap-speedup survives when the GEMM and the all-reduce must
//!   *share* compute units (72-8 and 64-16 splits vs an ideal where
//!   the GEMM keeps all 80 CUs and the AR is free).
//! * [`rs_validation`] — Figure 14: the multi-GPU reduce-scatter
//!   simulation against a first-principles bandwidth model over
//!   6–192 MB on four GPUs (the paper reports 6% geomean error
//!   against MI210 hardware).
//! * [`future_hw_study`] — Figure 20 / Section 7.5: T3's benefit on a
//!   "GPU-2X-CU" future system whose compute scales 2x while the
//!   network stays fixed.
//! * [`generation_phase_study`] — Section 7.3: the token-generation
//!   phase of inference has tiny, latency-bound all-reduces; T3 still
//!   hides them inside the (equally small) GEMMs.
//! * [`nmc_following_ops_study`] — Section 7.6: memory-intensive ops
//!   that follow an all-reduce (residual/dropout/optimizer) can run
//!   near-memory on the *reduced sub-array* before the all-gather,
//!   removing the N-fold redundancy.
//! * [`coarse_overlap_study`] — Sections 3.2/7.2: even *coarse-grained*
//!   overlap (data/pipeline parallelism hiding collectives behind
//!   independent kernels) contends for memory bandwidth; T3's MCA
//!   policy reduces that contention too.

use crate::configs::Configuration;
use crate::engine::PolicyChoice;
use t3_gpu::collective::{reference_ring_rs_cycles, CollectiveKind, RingCollective};
use t3_gpu::engine::{route_stage_stores, run_gemm_isolated, GemmEngine, GemmEvent, WritePolicy};
use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_mem::controller::{MemoryController, StreamId};
use t3_mem::llc::Llc;
use t3_sim::config::SystemConfig;
use t3_sim::stats::TrafficClass;
use t3_sim::{drive, Bytes, Clocked, Cycle, SimMode};

/// One row of the Figure 6 CU-split study.
#[derive(Debug, Clone, PartialEq)]
pub struct CuSplitRow {
    /// Split label, e.g. `"72-8"` (GEMM CUs - AR CUs) or `"ideal"`.
    pub label: String,
    /// GEMM time with its CU share, normalised to 80-CU GEMM time.
    pub gemm_norm: f64,
    /// All-reduce time with its CU share, normalised to 80-CU AR time.
    pub ar_norm: f64,
    /// Speedup of overlapped execution (`max(GEMM, AR)`) over
    /// sequential execution with all CUs for each.
    pub potential_overlap_speedup: f64,
}

/// Runs the Figure 6 study for one sliced sublayer GEMM: splits CUs
/// between the GEMM and its all-reduce and reports the potential
/// overlap speedup for each split, plus the no-sharing ideal.
pub fn cu_split_study(sys: &SystemConfig, shape: &GemmShape) -> Vec<CuSplitRow> {
    let payload = shape.output_bytes();
    let gemm_with = |cus: u32| -> Cycle {
        let mut s = sys.clone();
        s.gpu.num_cus = cus;
        let grid = GemmGrid::new(&s.gpu, *shape);
        run_gemm_isolated(&s, grid, WritePolicy::CachedLocal).cycles
    };
    let ar_with = |cus: u32| -> Cycle {
        RingCollective::baseline(CollectiveKind::AllReduce, payload, sys)
            .with_cu_count(cus)
            .simulate(sys)
            .cycles
    };
    let gemm_full = gemm_with(sys.gpu.num_cus);
    let ar_full = ar_with(sys.gpu.num_cus);
    let sequential = gemm_full + ar_full;
    let mut rows = Vec::new();
    for (g_cus, a_cus) in [(72u32, 8u32), (64, 16)] {
        let g = gemm_with(g_cus);
        let a = ar_with(a_cus);
        rows.push(CuSplitRow {
            label: format!("{g_cus}-{a_cus}"),
            gemm_norm: g as f64 / gemm_full as f64,
            ar_norm: a as f64 / ar_full as f64,
            potential_overlap_speedup: sequential as f64 / g.max(a) as f64,
        });
    }
    rows.push(CuSplitRow {
        label: "ideal".to_string(),
        gemm_norm: 1.0,
        ar_norm: 1.0,
        potential_overlap_speedup: sequential as f64 / gemm_full.max(ar_full) as f64,
    });
    rows
}

/// One row of the Figure 14 validation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationRow {
    /// Payload size in bytes.
    pub payload_bytes: Bytes,
    /// Simulated ring reduce-scatter time.
    pub simulated_cycles: Cycle,
    /// First-principles bandwidth-model time.
    pub reference_cycles: Cycle,
    /// `max(sim/ref, ref/sim) - 1`.
    pub error: f64,
}

/// Runs the Figure 14 validation: simulated ring-RS vs the bandwidth
/// reference over the given payload sizes (paper: 6–192 MB on 4 GPUs).
pub fn rs_validation(sys: &SystemConfig, payload_sizes: &[Bytes]) -> Vec<ValidationRow> {
    payload_sizes
        .iter()
        .map(|&bytes| {
            let sim = RingCollective::baseline(CollectiveKind::ReduceScatter, bytes, sys)
                .simulate(sys)
                .cycles;
            let reference = reference_ring_rs_cycles(sys, bytes);
            ValidationRow {
                payload_bytes: bytes,
                simulated_cycles: sim,
                reference_cycles: reference,
                error: (sim as f64 / reference as f64).max(reference as f64 / sim as f64) - 1.0,
            }
        })
        .collect()
}

/// Geomean validation error across rows.
pub fn validation_geomean_error(rows: &[ValidationRow]) -> f64 {
    t3_sim::geomean(&rows.iter().map(|r| 1.0 + r.error).collect::<Vec<_>>()) - 1.0
}

/// One sublayer's T3-MCA speedup on the base and 2x-compute systems
/// (Figure 20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FutureHwRow {
    /// T3-MCA speedup over Sequential on the base system.
    pub base_speedup: f64,
    /// T3-MCA speedup over Sequential on GPU-2X-CU.
    pub future_speedup: f64,
}

/// Runs Figure 20's comparison for one sliced sublayer shape.
pub fn future_hw_study(shape: &GemmShape, num_gpus: usize) -> FutureHwRow {
    let speedup = |sys: &SystemConfig| {
        let seq = Configuration::Sequential.run(sys, shape);
        let mca = Configuration::T3Mca.run(sys, shape);
        mca.speedup_over(&seq)
    };
    let base = SystemConfig::paper_default().with_num_gpus(num_gpus);
    let future = SystemConfig::future_2x_cu().with_num_gpus(num_gpus);
    FutureHwRow {
        base_speedup: speedup(&base),
        future_speedup: speedup(&future),
    }
}

/// Result of the coarse-grained overlap study (Section 3.2): a GEMM
/// executing while background communication traffic (e.g. a
/// data-parallel gradient reduce-scatter) shares its memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseOverlapRow {
    /// GEMM cycles with no concurrent communication.
    pub isolated_gemm_cycles: Cycle,
    /// GEMM cycles with the communication stream active.
    pub contended_gemm_cycles: Cycle,
    /// GEMM slowdown factor (paper cites up to 1.4x for TP-style
    /// concurrency, more for memory-intensive workloads).
    pub gemm_slowdown: f64,
}

/// Measures GEMM slowdown when `comm_bytes` of background
/// communication traffic (half reads, half NMC updates) shares the
/// memory controller under `policy`.
pub fn coarse_overlap_study(
    sys: &SystemConfig,
    shape: &GemmShape,
    comm_bytes: Bytes,
    policy: PolicyChoice,
) -> CoarseOverlapRow {
    let grid = GemmGrid::new(&sys.gpu, *shape);
    let isolated = run_gemm_isolated(sys, grid.clone(), WritePolicy::CachedLocal);

    // Contended run: the communication stream receives its traffic in
    // chunk-sized bursts spread over the expected GEMM duration.
    let bursts = 16u64.min(comm_bytes / sys.mem.txn_bytes).max(1);
    let mut run = ContendedGemm {
        mc: MemoryController::new(&sys.mem, policy.build(sys)),
        llc: Llc::new(&sys.mem),
        gemm: GemmEngine::new(&sys.gpu, grid.clone()),
        grid,
        bursts,
        burst_bytes: comm_bytes / bursts,
        burst_interval: (isolated.cycles / (bursts + 1)).max(1),
        issued: 0,
        draining: false,
    };
    // No event prediction: the contended GEMM steps every cycle.
    let contended = drive(&mut run, SimMode::default(), 0, None);
    CoarseOverlapRow {
        isolated_gemm_cycles: isolated.cycles,
        contended_gemm_cycles: contended,
        gemm_slowdown: contended as f64 / isolated.cycles as f64,
    }
}

/// A GEMM sharing its memory controller with bursts of background
/// communication traffic. Once the GEMM finishes it only drains its own
/// compute stream; the comm backlog is not the GEMM's problem.
struct ContendedGemm {
    grid: GemmGrid,
    mc: MemoryController,
    llc: Llc,
    gemm: GemmEngine,
    bursts: u64,
    burst_bytes: Bytes,
    burst_interval: Cycle,
    issued: u64,
    draining: bool,
}

impl Clocked for ContendedGemm {
    fn step(&mut self, now: Cycle) {
        self.mc.step(now, None);
        if self.draining {
            return;
        }
        if self.issued < self.bursts && now >= (self.issued + 1) * self.burst_interval {
            let class = if self.issued.is_multiple_of(2) {
                TrafficClass::RsRead
            } else {
                TrafficClass::RsUpdate
            };
            self.mc
                .enqueue(StreamId::Comm, class, self.burst_bytes, 1.0);
            self.issued += 1;
        }
        match self.gemm.step(now, &mut self.mc, &mut self.llc) {
            GemmEvent::Idle => {}
            GemmEvent::StageStoresIssued {
                wg_start, wg_end, ..
            } => route_stage_stores(
                &self.grid,
                wg_start,
                wg_end,
                WritePolicy::CachedLocal,
                &mut self.mc,
                &mut self.llc,
            ),
            GemmEvent::Finished => {
                // Match run_gemm_isolated's accounting: flush dirty
                // output lines, then drain the compute stream.
                let flush = self.llc.flush_dirty();
                self.mc
                    .enqueue(StreamId::Compute, TrafficClass::GemmWrite, flush, 1.0);
                self.draining = true;
            }
        }
    }

    fn is_done(&self, _now: Cycle) -> bool {
        self.draining && self.mc.pending_bytes(StreamId::Compute) == 0
    }
}

/// Result of the generation-phase study (Section 7.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationRow {
    /// Tokens processed per iteration (= batched sequences).
    pub tokens: u64,
    /// Sequential sublayer cycles.
    pub sequential_cycles: Cycle,
    /// T3-MCA sublayer cycles.
    pub t3_cycles: Cycle,
    /// Speedup.
    pub speedup: f64,
}

/// Runs one generation-phase sublayer: a skinny GEMM (`tokens` rows,
/// one per in-flight sequence) with its tiny, latency-bound
/// all-reduce, under Sequential and T3-MCA.
pub fn generation_phase_study(
    sys: &SystemConfig,
    hidden: u64,
    tokens: u64,
    tp: u64,
) -> GenerationRow {
    let shape = GemmShape::new(tokens, hidden, (4 * hidden).div_ceil(tp));
    let seq = Configuration::Sequential.run(sys, &shape);
    let t3 = Configuration::T3Mca.run(sys, &shape);
    GenerationRow {
        tokens,
        sequential_cycles: seq.total_cycles,
        t3_cycles: t3.total_cycles,
        speedup: t3.speedup_over(&seq),
    }
}

/// Result of the NMC-for-following-ops study (Section 7.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FollowingOpsRow {
    /// Cycles for the following element-wise op in the baseline:
    /// every device sweeps the full all-reduced array.
    pub baseline_cycles: Cycle,
    /// Cycles with T3 + NMC: each device sweeps only its reduced
    /// sub-array before the all-gather.
    pub nmc_cycles: Cycle,
    /// Fraction of the op's time eliminated.
    pub savings: f64,
}

/// Models a memory-bound op of `passes` sweeps over an `array_bytes`
/// all-reduce output, redundantly executed per device (baseline) vs
/// executed on the owned 1/N sub-array near memory before the
/// all-gather (Section 7.6).
pub fn nmc_following_ops_study(
    sys: &SystemConfig,
    array_bytes: Bytes,
    passes: f64,
) -> FollowingOpsRow {
    assert!(passes > 0.0, "op must touch memory at least once");
    let bw = sys.mem.bytes_per_cycle();
    let baseline = (passes * array_bytes as f64 / bw).ceil() as Cycle; // t3-lint: allow(float-cycles) -- Table 3 analytic bound: one ceil, no accumulation
    let nmc = (passes * array_bytes as f64 / (sys.num_gpus as f64 * bw)).ceil() as Cycle; // t3-lint: allow(float-cycles) -- same bound scaled by GPU count; rounding identical to baseline
    FollowingOpsRow {
        baseline_cycles: baseline,
        nmc_cycles: nmc,
        savings: 1.0 - nmc as f64 / baseline as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemConfig {
        SystemConfig::paper_default()
    }

    /// Scaled-down FC-2-like sublayer with balanced GEMM:AR times
    /// (the regime the paper's Figure 6 sublayers sit in).
    fn shape() -> GemmShape {
        GemmShape::new(2048, 3072, 1152)
    }

    #[test]
    fn cu_split_matches_figure_6_shape() {
        let s = sys();
        let rows = cu_split_study(&s, &shape());
        assert_eq!(rows.len(), 3);
        let r72 = &rows[0];
        let r64 = &rows[1];
        let ideal = &rows[2];
        // 8 CUs slow the AR substantially; 16 CUs barely.
        assert!(r72.ar_norm > 1.2, "8-CU AR norm {}", r72.ar_norm);
        assert!(r64.ar_norm < 1.15, "16-CU AR norm {}", r64.ar_norm);
        // Fewer CUs slow the GEMM.
        assert!(r64.gemm_norm > r72.gemm_norm * 0.99);
        assert!(r64.gemm_norm > 1.05);
        // Ordering of potential speedups: ideal > 64-16 > 72-8 is the
        // paper's qualitative result (72-8 starves the AR).
        assert!(ideal.potential_overlap_speedup > r64.potential_overlap_speedup);
        assert!(r64.potential_overlap_speedup > r72.potential_overlap_speedup);
        assert!(ideal.potential_overlap_speedup > 1.2);
    }

    #[test]
    fn validation_error_is_small() {
        let s = sys().with_num_gpus(4);
        let mb = 1u64 << 20;
        let rows = rs_validation(&s, &[6 * mb, 12 * mb, 24 * mb, 48 * mb, 96 * mb, 192 * mb]);
        let err = validation_geomean_error(&rows);
        assert!(err < 0.08, "geomean validation error {err:.3} too high");
        for r in &rows {
            assert!(r.simulated_cycles > 0 && r.reference_cycles > 0);
        }
    }

    #[test]
    fn validation_scales_with_payload() {
        let s = sys().with_num_gpus(4);
        let mb = 1u64 << 20;
        let rows = rs_validation(&s, &[6 * mb, 192 * mb]);
        assert!(rows[1].simulated_cycles > rows[0].simulated_cycles * 20);
    }

    #[test]
    fn coarse_overlap_contention_and_mca_relief() {
        let s = sys();
        // A memory-sensitive GEMM with substantial background traffic.
        let shape = GemmShape::new(2048, 4256, 2128);
        let comm = 128 << 20;
        let rr = coarse_overlap_study(&s, &shape, comm, PolicyChoice::RoundRobin);
        let mca = coarse_overlap_study(&s, &shape, comm, PolicyChoice::McaDynamic);
        // Paper Section 3.2: concurrency slows the producer noticeably.
        assert!(
            rr.gemm_slowdown > 1.03,
            "round-robin contention too small: {:.3}",
            rr.gemm_slowdown
        );
        // MCA protects the producer.
        assert!(
            mca.gemm_slowdown < rr.gemm_slowdown,
            "MCA {:.3} must beat round-robin {:.3}",
            mca.gemm_slowdown,
            rr.gemm_slowdown
        );
        assert!(mca.contended_gemm_cycles >= mca.isolated_gemm_cycles);
    }

    #[test]
    fn generation_phase_still_benefits() {
        // Section 7.3: tiny token-generation GEMMs + latency-bound ARs
        // still overlap; T3 must not regress and usually helps by
        // removing the collective's kernel-step overheads.
        let s = sys();
        for tokens in [8u64, 32, 128] {
            let row = generation_phase_study(&s, 4256, tokens, 8);
            assert!(
                row.speedup > 0.98,
                "{tokens} tokens: generation speedup {:.3} regressed",
                row.speedup
            );
        }
        // Larger batches behave like small prompt runs: clear wins.
        let big = generation_phase_study(&s, 4256, 512, 8);
        assert!(big.speedup > 1.05, "batched generation {:.3}", big.speedup);
    }

    #[test]
    fn following_ops_savings_scale_with_devices() {
        let s8 = sys();
        let s16 = sys().with_num_gpus(16);
        let row8 = nmc_following_ops_study(&s8, 64 << 20, 4.0);
        let row16 = nmc_following_ops_study(&s16, 64 << 20, 4.0);
        // Savings approach (N-1)/N.
        assert!((row8.savings - 0.875).abs() < 0.01, "{}", row8.savings);
        assert!(row16.savings > row8.savings);
        assert!(row8.nmc_cycles < row8.baseline_cycles);
    }

    #[test]
    fn future_hw_helps_compute_heavy_layers() {
        // A large, compute-dominated layer: doubling CUs shortens the
        // GEMM, making communication relatively larger, so T3's
        // overlap benefit grows (Figure 20, FC-2 trend).
        let row = future_hw_study(&GemmShape::new(2048, 4256, 2128), 8);
        assert!(row.base_speedup > 1.0);
        assert!(row.future_speedup > 1.0);
        assert!(
            row.future_speedup > row.base_speedup * 0.95,
            "future {} vs base {}",
            row.future_speedup,
            row.base_speedup
        );
    }
}
