//! Cycle-stepped GEMM execution engine.
//!
//! A GEMM runs as a sequence of stages (Section 2.5). Each stage:
//!
//! 1. **Read phase** — the stage's A tile-rows and B tile-columns are
//!    filtered through the LLC; misses become compute-stream DRAM reads
//!    and the stage waits until they are serviced.
//! 2. **Compute phase** — a latency set by the stage's largest WG tile
//!    and the GPU's sustained GEMM throughput.
//! 3. **Write phase** — the stage's output stores are *emitted to the
//!    caller* as a [`GemmEvent::StageStoresIssued`] event. The caller
//!    routes them: through the LLC to local DRAM (baseline), straight
//!    to DRAM as near-memory updates (T3's uncached outputs), or over
//!    the link (T3's first-step `remote_update`). This is exactly the
//!    seam T3 exploits without touching the GEMM kernel itself
//!    (Section 4.4).
//!
//! Because reads, writes and later stages all share one in-order
//! compute stream at the memory controller, the engine naturally
//! produces the read-phase / bursty-write-phase DRAM pattern of
//! Figure 17(a).

use crate::gemm::GemmGrid;
use t3_mem::controller::{MemoryController, StreamId};
use t3_mem::llc::{AccessKind, Llc};
use t3_sim::config::GpuConfig;
use t3_sim::stats::TrafficClass;
use t3_sim::{drive, Bytes, Clocked, Cycle, SimMode};

/// What happened during one engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmEvent {
    /// Nothing externally visible.
    Idle,
    /// A stage finished computing; its stores are ready to issue. The
    /// caller must route them (see module docs) before the next step
    /// so downstream reads queue behind them.
    StageStoresIssued {
        /// Stage index, `0..num_stages()`.
        stage: u64,
        /// First WG of the stage.
        wg_start: u64,
        /// One past the last WG of the stage.
        wg_end: u64,
        /// Output bytes the stage produced.
        bytes: Bytes,
        /// Cycle at which the stage began its read phase.
        started: Cycle,
        /// The stage's roofline compute latency (no memory stalls);
        /// `now - started - compute_cycles` is the stage's
        /// memory-stall time, which trace analytics attribute to
        /// contention.
        compute_cycles: Cycle,
    },
    /// All stages have completed (emitted exactly once).
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Launch {
        until: Cycle,
    },
    StartStage,
    WaitReads {
        target: Bytes,
    },
    Compute {
        until: Cycle,
    },
    /// Prefetched mode: compute runs while reads drain; the stage ends
    /// when both the latency has elapsed and the reads are serviced.
    ComputeWithReads {
        until: Cycle,
        target: Bytes,
    },
    Done {
        reported: bool,
    },
}

/// The engine. Construct per kernel invocation; drive with
/// [`GemmEngine::step`] once per cycle.
#[derive(Debug, Clone)]
pub struct GemmEngine {
    grid: GemmGrid,
    stage_compute_cycles: Vec<Cycle>,
    stage: u64,
    phase: Phase,
    launched: bool,
    read_factor: f64,
    prefetch: bool,
    total_read_miss_bytes: Bytes,
    stage_started: Cycle,
}

impl GemmEngine {
    /// Creates an engine for `grid` on the GPU described by `cfg`.
    pub fn new(cfg: &GpuConfig, grid: GemmGrid) -> Self {
        let per_cu = cfg.flops_per_cu_cycle * cfg.gemm_efficiency;
        let stage_compute_cycles = (0..grid.num_stages())
            // t3-lint: allow(float-cycles) -- per-stage roofline computed once at construction; ceil per stage, never re-accumulated
            .map(|s| (grid.stage_wg_flops(s) / per_cu).ceil() as Cycle)
            .collect();
        GemmEngine {
            grid,
            stage_compute_cycles,
            stage: 0,
            phase: Phase::Launch {
                until: cfg.kernel_launch_cycles,
            },
            launched: false,
            read_factor: 1.0, // set from grid below
            prefetch: cfg.gemm_prefetch,
            total_read_miss_bytes: 0,
            stage_started: 0,
        }
        .init_read_factor()
    }

    fn init_read_factor(mut self) -> Self {
        self.read_factor = self.grid.read_overhead_factor();
        self
    }

    /// The grid being executed.
    pub fn grid(&self) -> &GemmGrid {
        &self.grid
    }

    /// Stage currently executing (or `num_stages()` when done).
    pub fn current_stage(&self) -> u64 {
        self.stage
    }

    /// True once [`GemmEvent::Finished`] has been (or will next be)
    /// produced.
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Done { .. })
    }

    /// DRAM read bytes this kernel has requested so far (post-LLC).
    pub fn read_miss_bytes(&self) -> Bytes {
        self.total_read_miss_bytes
    }

    /// Ideal compute-only time: launch overhead plus the sum of stage
    /// compute latencies (no memory stalls). Lower-bounds any run.
    pub fn compute_only_cycles(&self, cfg: &GpuConfig) -> Cycle {
        cfg.kernel_launch_cycles + self.stage_compute_cycles.iter().sum::<Cycle>()
    }

    fn finish_stage(&mut self, _now: Cycle) -> GemmEvent {
        let stage = self.stage;
        let (wg_start, wg_end) = self.grid.stage_wgs(stage);
        let bytes = self.grid.stage_output_bytes(stage);
        self.stage += 1;
        self.phase = if self.stage == self.grid.num_stages() {
            Phase::Done { reported: false }
        } else {
            Phase::StartStage
        };
        GemmEvent::StageStoresIssued {
            stage,
            wg_start,
            wg_end,
            bytes,
            started: self.stage_started,
            compute_cycles: self.stage_compute_cycles[stage as usize],
        }
    }

    /// The next cycle strictly after `now` (already stepped) at which
    /// stepping this engine can change phase or emit an event:
    ///
    /// * `Launch { until }` / `Compute { until }` — the transition
    ///   consumes the step at exactly `until` (clamped forward if that
    ///   step already ran);
    /// * `StartStage`, a satisfied `WaitReads`, and an unreported
    ///   `Done` — the very next step;
    /// * an unsatisfied read target — `None`: the memory controller
    ///   still holds the un-serviced transactions, so it is busy and
    ///   itself pins the next event at `now + 1`;
    /// * reported `Done` — `None`, the engine is inert.
    pub fn next_event(&self, now: Cycle, mc: &MemoryController) -> Option<Cycle> {
        if !self.launched {
            // The first step re-anchors the launch delay; it must run.
            return Some(now + 1);
        }
        let reads_done = |target: Bytes| mc.serviced_bytes(StreamId::Compute) >= target;
        match self.phase {
            Phase::Launch { until } => Some(until.max(now + 1)),
            Phase::StartStage => Some(now + 1),
            Phase::WaitReads { target } => reads_done(target).then(|| now + 1),
            Phase::Compute { until } => Some(until.max(now + 1)),
            Phase::ComputeWithReads { until, target } => {
                reads_done(target).then(|| until.max(now + 1))
            }
            Phase::Done { reported } => (!reported).then(|| now + 1),
        }
    }

    /// Advances one cycle at time `now`. Reads are issued through
    /// `llc` into `mc`'s compute stream. See [`GemmEvent`] for the
    /// caller's obligations.
    pub fn step(&mut self, now: Cycle, mc: &mut MemoryController, llc: &mut Llc) -> GemmEvent {
        // On the first observed cycle, re-anchor the launch delay to
        // `now` (engines may be constructed before their start time).
        if !self.launched {
            if let Phase::Launch { until } = self.phase {
                self.phase = Phase::Launch { until: now + until };
            }
            self.launched = true;
        }
        match self.phase {
            Phase::Launch { until } => {
                if now >= until {
                    self.phase = Phase::StartStage;
                }
                GemmEvent::Idle
            }
            Phase::StartStage => {
                self.stage_started = now;
                let mut miss: Bytes = 0;
                for (addr, bytes) in self.grid.stage_read_regions(self.stage) {
                    miss += llc.access_range(addr, bytes, AccessKind::Read).dram_bytes;
                }
                let miss = (miss as f64 * self.read_factor) as Bytes; // t3-lint: allow(float-cycles) -- ablation knob defaults to 1.0 (identity); truncation is the documented semantic
                self.total_read_miss_bytes += miss;
                let compute_until = now + self.stage_compute_cycles[self.stage as usize];
                if miss > 0 {
                    let target = mc.enqueued_bytes(StreamId::Compute) + miss;
                    mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, miss, 1.0);
                    self.phase = if self.prefetch {
                        Phase::ComputeWithReads {
                            until: compute_until,
                            target,
                        }
                    } else {
                        Phase::WaitReads { target }
                    };
                } else {
                    self.phase = Phase::Compute {
                        until: compute_until,
                    };
                }
                GemmEvent::Idle
            }
            Phase::WaitReads { target } => {
                if mc.serviced_bytes(StreamId::Compute) >= target {
                    self.phase = Phase::Compute {
                        until: now + self.stage_compute_cycles[self.stage as usize],
                    };
                }
                GemmEvent::Idle
            }
            Phase::ComputeWithReads { until, target } => {
                if now < until || mc.serviced_bytes(StreamId::Compute) < target {
                    return GemmEvent::Idle;
                }
                self.finish_stage(now)
            }
            Phase::Compute { until } => {
                if now < until {
                    return GemmEvent::Idle;
                }
                self.finish_stage(now)
            }
            Phase::Done { reported } => {
                if reported {
                    GemmEvent::Idle
                } else {
                    self.phase = Phase::Done { reported: true };
                    GemmEvent::Finished
                }
            }
        }
    }
}

/// How an isolated run routes the GEMM's output stores.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WritePolicy {
    /// Baseline: stores allocate in the LLC; dirty lines reach DRAM as
    /// write-backs, plus a kernel-boundary flush.
    #[default]
    CachedLocal,
    /// T3-style uncached stores: straight to DRAM (plain writes).
    BypassLocal,
    /// T3-style uncached near-memory updates (op-and-store), with the
    /// given service-cost multiplier.
    BypassNmcUpdate(f64),
}

/// Result of an isolated (no communication) GEMM run.
#[derive(Debug, Clone)]
pub struct IsolatedGemmRun {
    /// End-to-end kernel cycles.
    pub cycles: Cycle,
    /// DRAM traffic of the run.
    pub stats: t3_sim::stats::TrafficStats,
}

/// Runs one GEMM in isolation against a fresh memory controller and
/// LLC, applying `write_policy` to its stores. Used for the paper's
/// isolated-execution baselines (Figures 6, 15, 16's ideals).
pub fn run_gemm_isolated(
    sys: &t3_sim::config::SystemConfig,
    grid: GemmGrid,
    write_policy: WritePolicy,
) -> IsolatedGemmRun {
    run_gemm_isolated_traced(sys, grid, write_policy, None).0
}

/// As [`run_gemm_isolated`], with an explicit [`SimMode`].
pub fn run_gemm_isolated_in_mode(
    sys: &t3_sim::config::SystemConfig,
    grid: GemmGrid,
    write_policy: WritePolicy,
    mode: SimMode,
) -> IsolatedGemmRun {
    run_gemm_isolated_traced_in_mode(sys, grid, write_policy, None, mode).0
}

/// As [`run_gemm_isolated`], optionally recording a DRAM-traffic time
/// series with `bucket` cycle resolution (Figure 17a's baseline GEMM
/// timeline).
pub fn run_gemm_isolated_traced(
    sys: &t3_sim::config::SystemConfig,
    grid: GemmGrid,
    write_policy: WritePolicy,
    bucket: Option<t3_sim::Cycle>,
) -> (IsolatedGemmRun, Option<t3_sim::timeseries::TimeSeries>) {
    run_gemm_isolated_traced_in_mode(sys, grid, write_policy, bucket, SimMode::default())
}

/// The isolated runner with an explicit [`SimMode`]. In
/// [`SimMode::FastForward`] the loop leaps `now` to the engine's next
/// event whenever the memory controller is idle (compute phases with no
/// traffic in flight), replaying the skipped controller bookkeeping via
/// [`MemoryController::skip_idle`]; results are byte-identical to
/// [`SimMode::Stepped`].
pub fn run_gemm_isolated_traced_in_mode(
    sys: &t3_sim::config::SystemConfig,
    grid: GemmGrid,
    write_policy: WritePolicy,
    bucket: Option<t3_sim::Cycle>,
    mode: SimMode,
) -> (IsolatedGemmRun, Option<t3_sim::timeseries::TimeSeries>) {
    let mut run = IsolatedGemm {
        mc: MemoryController::new(
            &sys.mem,
            Box::new(t3_mem::arbiter::ComputeFirstPolicy::new()),
        ),
        llc: Llc::new(&sys.mem),
        engine: GemmEngine::new(&sys.gpu, grid),
        ts: bucket.map(t3_sim::timeseries::TimeSeries::new),
        write_policy,
        finished: false,
    };
    // The kernel ends one cycle past its last stepped cycle.
    let cycles = drive(&mut run, mode, 0, None) + 1;
    (
        IsolatedGemmRun {
            cycles,
            stats: run.mc.stats().clone(),
        },
        run.ts,
    )
}

/// One GEMM against its own memory controller and LLC.
struct IsolatedGemm {
    mc: MemoryController,
    llc: Llc,
    engine: GemmEngine,
    ts: Option<t3_sim::timeseries::TimeSeries>,
    write_policy: WritePolicy,
    finished: bool,
}

impl Clocked for IsolatedGemm {
    fn step(&mut self, now: Cycle) {
        self.mc.step(now, self.ts.as_mut());
        match self.engine.step(now, &mut self.mc, &mut self.llc) {
            GemmEvent::Idle => {}
            GemmEvent::StageStoresIssued {
                wg_start, wg_end, ..
            } => {
                route_stage_stores(
                    self.engine.grid(),
                    wg_start,
                    wg_end,
                    self.write_policy,
                    &mut self.mc,
                    &mut self.llc,
                );
            }
            GemmEvent::Finished => {
                if let WritePolicy::CachedLocal = self.write_policy {
                    let flush = self.llc.flush_dirty();
                    self.mc
                        .enqueue(StreamId::Compute, TrafficClass::GemmWrite, flush, 1.0);
                }
                self.finished = true;
            }
        }
    }

    /// A busy controller pins the next cycle; otherwise the GEMM's next
    /// phase boundary.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.mc
            .next_event(now)
            .or_else(|| self.engine.next_event(now, &self.mc))
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.mc.skip_idle(from, to, None);
    }

    fn is_done(&self, _now: Cycle) -> bool {
        self.finished && self.mc.is_idle()
    }
}

/// Routes one stage's stores according to `policy`. Shared by the
/// isolated runner above and the sequential configuration in `t3-core`.
pub fn route_stage_stores(
    grid: &GemmGrid,
    wg_start: u64,
    wg_end: u64,
    policy: WritePolicy,
    mc: &mut MemoryController,
    llc: &mut Llc,
) {
    let bytes = grid.wg_range_output_bytes(wg_start, wg_end);
    match policy {
        WritePolicy::CachedLocal => {
            let (addr, _) = grid.wg_output_region(wg_start);
            llc.access_range(addr, bytes, AccessKind::Write);
            let wb = llc.take_writeback_bytes();
            mc.enqueue(StreamId::Compute, TrafficClass::GemmWrite, wb, 1.0);
        }
        WritePolicy::BypassLocal => {
            mc.enqueue(StreamId::Compute, TrafficClass::GemmWrite, bytes, 1.0);
        }
        WritePolicy::BypassNmcUpdate(cost) => {
            mc.enqueue(StreamId::Compute, TrafficClass::GemmWrite, bytes, cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmShape;
    use t3_sim::config::SystemConfig;

    fn sys() -> t3_sim::config::SystemConfig {
        SystemConfig::paper_default()
    }

    fn grid_of(m: u64, n: u64, k: u64) -> GemmGrid {
        GemmGrid::new(&sys().gpu, GemmShape::new(m, n, k))
    }

    #[test]
    fn isolated_run_reads_inputs_once_when_cached() {
        let s = sys();
        // Small GEMM: inputs fit in LLC easily.
        let grid = grid_of(1024, 1024, 512);
        let run = run_gemm_isolated(&s, grid.clone(), WritePolicy::CachedLocal);
        let input_bytes = grid.shape().a_bytes() + grid.shape().b_bytes();
        let reads = run.stats.bytes(TrafficClass::GemmRead);
        assert!(
            reads <= input_bytes + 64 * 1024,
            "cache-resident inputs must be read ~once: {reads} vs {input_bytes}"
        );
    }

    #[test]
    fn isolated_run_writes_full_output() {
        let s = sys();
        let grid = grid_of(1024, 1024, 512);
        let out = grid.shape().output_bytes();
        let run = run_gemm_isolated(&s, grid, WritePolicy::CachedLocal);
        let writes = run.stats.bytes(TrafficClass::GemmWrite);
        // Write-backs + flush must together cover the full output
        // (modulo line rounding).
        assert!(
            writes >= out && writes <= out + 256 * 1024,
            "writes {writes} should cover output {out}"
        );
    }

    #[test]
    fn bypass_policy_writes_exact_output_and_avoids_pollution() {
        let s = sys();
        // Large-K GEMM whose B operand is near the LLC size: write
        // pollution matters.
        let grid = grid_of(4096, 4096, 1024);
        let cached = run_gemm_isolated(&s, grid.clone(), WritePolicy::CachedLocal);
        let bypass = run_gemm_isolated(&s, grid.clone(), WritePolicy::BypassLocal);
        assert_eq!(
            bypass.stats.bytes(TrafficClass::GemmWrite),
            grid.shape().output_bytes()
        );
        // Bypassing output writes must not increase input read misses.
        assert!(
            bypass.stats.bytes(TrafficClass::GemmRead)
                <= cached.stats.bytes(TrafficClass::GemmRead)
        );
    }

    #[test]
    fn compute_bound_gemm_time_tracks_flops() {
        let s = sys();
        // Very large K: heavily compute bound.
        let grid = grid_of(2048, 2048, 8192);
        let engine = GemmEngine::new(&s.gpu, grid.clone());
        let ideal = engine.compute_only_cycles(&s.gpu);
        let run = run_gemm_isolated(&s, grid, WritePolicy::CachedLocal);
        assert!(
            (run.cycles as f64) < ideal as f64 * 1.6,
            "compute-bound GEMM {} should be near compute-only {}",
            run.cycles,
            ideal
        );
        assert!(run.cycles >= ideal, "cannot beat compute-only bound");
    }

    #[test]
    fn more_cus_means_fewer_stages_and_less_time() {
        let mut s_small = sys();
        s_small.gpu.num_cus = 40;
        let s_big = sys();
        let shape = GemmShape::new(4096, 4096, 512);
        let g_small = GemmGrid::new(&s_small.gpu, shape);
        let g_big = GemmGrid::new(&s_big.gpu, shape);
        assert!(g_small.num_stages() > g_big.num_stages());
        let r_small = run_gemm_isolated(&s_small, g_small, WritePolicy::CachedLocal);
        let r_big = run_gemm_isolated(&s_big, g_big, WritePolicy::CachedLocal);
        assert!(
            r_small.cycles > r_big.cycles,
            "40 CUs {} must be slower than 80 CUs {}",
            r_small.cycles,
            r_big.cycles
        );
    }

    #[test]
    fn events_cover_every_stage_in_order() {
        let s = sys();
        let grid = grid_of(2048, 2048, 256);
        let stages = grid.num_stages();
        let mut mc =
            MemoryController::new(&s.mem, Box::new(t3_mem::arbiter::ComputeFirstPolicy::new()));
        let mut llc = Llc::new(&s.mem);
        let mut engine = GemmEngine::new(&s.gpu, grid);
        let mut seen = Vec::new();
        let mut now = 0;
        loop {
            mc.step(now, None);
            match engine.step(now, &mut mc, &mut llc) {
                GemmEvent::StageStoresIssued { stage, .. } => seen.push(stage),
                GemmEvent::Finished => break,
                GemmEvent::Idle => {}
            }
            now += 1;
            assert!(now < 100_000_000);
        }
        let expected: Vec<u64> = (0..stages).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn finished_is_reported_once() {
        let s = sys();
        let grid = grid_of(256, 256, 64);
        let mut mc =
            MemoryController::new(&s.mem, Box::new(t3_mem::arbiter::ComputeFirstPolicy::new()));
        let mut llc = Llc::new(&s.mem);
        let mut engine = GemmEngine::new(&s.gpu, grid);
        let mut finishes = 0;
        for now in 0..200_000 {
            mc.step(now, None);
            if engine.step(now, &mut mc, &mut llc) == GemmEvent::Finished {
                finishes += 1;
            }
            if finishes > 0 && mc.is_idle() && now > 100_000 {
                break;
            }
        }
        assert_eq!(finishes, 1);
        assert!(engine.is_finished());
    }

    #[test]
    fn prefetch_speeds_memory_heavy_gemms() {
        let mut s_pre = sys();
        s_pre.gpu.gemm_prefetch = true;
        let s_ser = sys();
        // B larger than the LLC: read phases dominate.
        let shape = GemmShape::new(4096, 4256, 2128);
        let serial = run_gemm_isolated(
            &s_ser,
            GemmGrid::new(&s_ser.gpu, shape),
            WritePolicy::CachedLocal,
        );
        let prefetch = run_gemm_isolated(
            &s_pre,
            GemmGrid::new(&s_pre.gpu, shape),
            WritePolicy::CachedLocal,
        );
        assert!(
            prefetch.cycles < serial.cycles,
            "prefetch {} must beat serial {}",
            prefetch.cycles,
            serial.cycles
        );
        // Same traffic either way: prefetch changes timing, not bytes.
        assert_eq!(
            prefetch.stats.bytes(TrafficClass::GemmRead),
            serial.stats.bytes(TrafficClass::GemmRead)
        );
    }

    #[test]
    fn next_event_matches_the_stepped_phase_transitions() {
        let s = sys();
        let grid = grid_of(2048, 2048, 256);
        let mut mc =
            MemoryController::new(&s.mem, Box::new(t3_mem::arbiter::ComputeFirstPolicy::new()));
        let mut llc = Llc::new(&s.mem);
        let mut engine = GemmEngine::new(&s.gpu, grid);
        // Step the run to completion, recording every cycle at which
        // the engine changed phase or emitted an event, plus the
        // prediction made right after each step.
        let mut changes = Vec::new();
        let mut predictions = Vec::new();
        let mut now = 0;
        loop {
            mc.step(now, None);
            let before = (engine.phase, engine.stage);
            let ev = engine.step(now, &mut mc, &mut llc);
            if let GemmEvent::StageStoresIssued {
                wg_start, wg_end, ..
            } = ev
            {
                route_stage_stores(
                    engine.grid(),
                    wg_start,
                    wg_end,
                    WritePolicy::BypassLocal,
                    &mut mc,
                    &mut llc,
                );
            }
            if (engine.phase, engine.stage) != before || ev != GemmEvent::Idle {
                changes.push(now);
            }
            predictions.push((now, engine.next_event(now, &mc), mc.is_idle()));
            now += 1;
            if engine.is_finished() && mc.is_idle() {
                break;
            }
            assert!(now < 100_000_000);
        }
        // Whenever the memory controller was idle (the only situation
        // in which the fast-forward loop leaps), the prediction must be
        // EXACTLY the next cycle the stepped engine changed state.
        let mut checked = 0;
        for (asked, predicted, mc_idle) in predictions {
            if !mc_idle {
                continue;
            }
            let actual = changes.iter().copied().find(|&c| c > asked);
            assert_eq!(
                predicted, actual,
                "prediction after cycle {asked} must match the stepped run"
            );
            checked += 1;
        }
        assert!(
            checked > 100,
            "compute phases must expose idle-controller cycles, saw {checked}"
        );
    }

    #[test]
    fn fast_forward_isolated_run_is_byte_identical_to_stepped() {
        for prefetch in [false, true] {
            let mut s = sys();
            s.gpu.gemm_prefetch = prefetch;
            for shape in [
                GemmShape::new(2048, 2048, 256),
                GemmShape::new(4096, 4256, 2128),
            ] {
                let run = |mode: SimMode| {
                    run_gemm_isolated_traced_in_mode(
                        &s,
                        GemmGrid::new(&s.gpu, shape),
                        WritePolicy::CachedLocal,
                        Some(2000),
                        mode,
                    )
                };
                let (stepped, ts_s) = run(SimMode::Stepped);
                let (fast, ts_f) = run(SimMode::FastForward);
                assert_eq!(stepped.cycles, fast.cycles, "prefetch={prefetch} {shape:?}");
                assert_eq!(format!("{:?}", stepped.stats), format!("{:?}", fast.stats));
                assert_eq!(format!("{ts_s:?}"), format!("{ts_f:?}"));
            }
        }
    }

    #[test]
    fn transposed_inputs_read_more() {
        let s = sys();
        let shape_t = GemmShape::new(4096, 4096, 2048).with_transposed(true);
        let shape_n = GemmShape::new(4096, 4096, 2048);
        let rt = run_gemm_isolated(&s, GemmGrid::new(&s.gpu, shape_t), WritePolicy::CachedLocal);
        let rn = run_gemm_isolated(&s, GemmGrid::new(&s.gpu, shape_n), WritePolicy::CachedLocal);
        assert!(rt.stats.bytes(TrafficClass::GemmRead) > rn.stats.bytes(TrafficClass::GemmRead));
    }
}
