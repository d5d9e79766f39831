//! Overlapping an all-gather with its *consumer* GEMM (Section 7.2,
//! "TP with All-gather").
//!
//! Some tensor-parallel layouts all-gather activations *before* a
//! long-running GEMM instead of all-reducing after it. T3 extends to
//! this case by inverting the Tracker's role: it tracks
//! "all-gathered-input → GEMM-WG" and triggers a *WG scheduling
//! event* (instead of a DMA) once the input rows a workgroup consumes
//! have arrived. The paper notes the input→WG mapping is
//! kernel-implementation dependent and needs scheduling hints; the
//! [`AgFuseOptions::arrival_aligned`] flag models exactly that — with
//! hints, WG execution order follows chunk arrival; without, the first
//! stages may wait for the last chunk.
//!
//! As elsewhere, one GPU is simulated and arrivals are mirrored from
//! the ring's homogeneous timing.

use t3_gpu::collective::{CollectiveKind, RingCollective};
use t3_gpu::engine::{route_stage_stores, GemmEngine, GemmEvent, WritePolicy};
use t3_gpu::gemm::GemmGrid;
use t3_mem::arbiter::ComputeFirstPolicy;
use t3_mem::controller::{MemoryController, StreamId};
use t3_mem::llc::Llc;
use t3_sim::config::SystemConfig;
use t3_sim::stats::{TrafficClass, TrafficStats};
use t3_sim::{drive, Bytes, Clocked, Cycle, SimMode};

/// Options for the fused AG→GEMM run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgFuseOptions {
    /// Whether WG scheduling is aligned with chunk arrival order
    /// (the "additional programming hints" of Section 7.2). Without
    /// alignment, the stage that executes first needs the chunk that
    /// arrives last.
    pub arrival_aligned: bool,
}

impl Default for AgFuseOptions {
    fn default() -> Self {
        AgFuseOptions {
            arrival_aligned: true,
        }
    }
}

/// Outcome of a fused AG→GEMM run.
#[derive(Debug, Clone)]
pub struct AgFuseResult {
    /// End-to-end cycles (all-gather fully hidden or partially
    /// exposed, plus the GEMM).
    pub cycles: Cycle,
    /// DRAM traffic (incoming AG writes + the GEMM's own traffic).
    pub stats: TrafficStats,
    /// WG-scheduling trigger events fired (one per gated stage).
    pub scheduling_triggers: u64,
}

/// Runs the consumer GEMM with its A operand arriving via ring
/// all-gather, stages gated on input availability.
///
/// # Panics
///
/// Panics if the simulation fails to converge (an internal error).
pub fn run_fused_ag_gemm(sys: &SystemConfig, grid: GemmGrid, opts: &AgFuseOptions) -> AgFuseResult {
    let n = sys.num_gpus as u64;
    let chunk_bytes = grid.shape().a_bytes() / n;
    let link_ser = (chunk_bytes as f64 / sys.link.bytes_per_cycle()).ceil() as Cycle; // t3-lint: allow(float-cycles) -- matches Link::serialization_cycles rounding exactly
    let mut run = AgFuse {
        n,
        chunk_bytes,
        link_ser,
        latency: sys.link.latency_cycles(),
        arrival_aligned: opts.arrival_aligned,
        mc: MemoryController::new(&sys.mem, Box::new(ComputeFirstPolicy::new())),
        llc: Llc::new(&sys.mem),
        gemm: GemmEngine::new(&sys.gpu, grid.clone()),
        grid,
        announced: 0,
        scheduling_triggers: 0,
        gemm_done: false,
    };
    // No event prediction: the gated GEMM steps every cycle.
    let cycles = drive(&mut run, SimMode::default(), 0, None);
    AgFuseResult {
        cycles,
        stats: run.mc.stats().clone(),
        scheduling_triggers: run.scheduling_triggers,
    }
}

/// The consumer GPU: a GEMM whose stages are gated on mirrored
/// all-gather arrivals.
struct AgFuse {
    grid: GemmGrid,
    n: u64,
    chunk_bytes: Bytes,
    link_ser: Cycle,
    latency: Cycle,
    arrival_aligned: bool,
    mc: MemoryController,
    llc: Llc,
    gemm: GemmEngine,
    /// Received chunks whose writes are enqueued.
    announced: u64,
    scheduling_triggers: u64,
    gemm_done: bool,
}

impl AgFuse {
    /// Arrival time of received chunk `j >= 1`: the own shard is there
    /// at t=0, received shards arrive pipelined one link serialisation
    /// apart.
    fn arrival_of_received(&self, j: u64) -> Cycle {
        debug_assert!(j >= 1);
        j * self.link_ser + self.latency
    }

    /// Which chunk range a stage needs: every chunk covering its WGs'
    /// A rows (a stage can span several input chunks).
    fn chunks_of_stage(&self, stage: u64) -> (u64, u64) {
        let (n, m) = (self.n, self.grid.shape().m);
        let (w_start, w_end) = self.grid.stage_wgs(stage);
        let first_row = self.grid.wg_tile(w_start).row * self.grid.tile_dim();
        let last_tile = self.grid.wg_tile(w_end - 1);
        let last_row = last_tile.row * self.grid.tile_dim() + last_tile.height - 1;
        (
            (first_row * n / m).min(n - 1),
            (last_row * n / m).min(n - 1),
        )
    }

    /// Availability time of consumption-order chunk `j`. Without
    /// alignment the worst case holds: consumption order is the reverse
    /// of arrival order (own shard consumed last).
    fn available_at(&self, j: u64) -> Cycle {
        let arrival_rank = if self.arrival_aligned {
            j
        } else {
            self.n - 1 - j
        };
        if arrival_rank == 0 {
            0
        } else {
            self.arrival_of_received(arrival_rank)
        }
    }
}

impl Clocked for AgFuse {
    fn step(&mut self, now: Cycle) {
        self.mc.step(now, None);
        // Mirrored incoming AG writes enter the comm stream on arrival.
        while self.announced + 1 < self.n && self.arrival_of_received(self.announced + 1) <= now {
            self.announced += 1;
            self.mc
                .enqueue(StreamId::Comm, TrafficClass::AgWrite, self.chunk_bytes, 1.0);
        }
        // Gate the GEMM: only step it when its current stage's input
        // chunk has arrived (the Tracker's WG-scheduling trigger).
        let stage = self.gemm.current_stage();
        let can_run = self.gemm_done || stage >= self.grid.num_stages() || {
            let (c_lo, c_hi) = self.chunks_of_stage(stage);
            (c_lo..=c_hi).all(|c| self.available_at(c) <= now)
        };
        if !can_run {
            return;
        }
        match self.gemm.step(now, &mut self.mc, &mut self.llc) {
            GemmEvent::Idle => {}
            GemmEvent::Finished => self.gemm_done = true,
            GemmEvent::StageStoresIssued {
                wg_start, wg_end, ..
            } => {
                self.scheduling_triggers += 1;
                route_stage_stores(
                    &self.grid,
                    wg_start,
                    wg_end,
                    WritePolicy::CachedLocal,
                    &mut self.mc,
                    &mut self.llc,
                );
            }
        }
        if self.gemm_done && self.mc.pending_bytes(StreamId::Compute) == 0 {
            let flush = self.llc.flush_dirty();
            if flush > 0 {
                self.mc
                    .enqueue(StreamId::Compute, TrafficClass::GemmWrite, flush, 1.0);
            }
        }
    }

    fn is_done(&self, _now: Cycle) -> bool {
        self.gemm_done && self.announced == self.n - 1 && self.mc.is_idle()
    }
}

/// The sequential baseline: ring all-gather of the A operand, then the
/// GEMM.
pub fn sequential_ag_gemm(sys: &SystemConfig, grid: GemmGrid) -> AgFuseResult {
    let ag = RingCollective::baseline(CollectiveKind::AllGather, grid.shape().a_bytes(), sys)
        .simulate(sys);
    let gemm = t3_gpu::engine::run_gemm_isolated(sys, grid, WritePolicy::CachedLocal);
    let mut stats = ag.stats;
    stats.merge(&gemm.stats);
    AgFuseResult {
        cycles: ag.cycles + gemm.cycles,
        stats,
        scheduling_triggers: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_gpu::gemm::GemmShape;

    fn sys() -> SystemConfig {
        SystemConfig::paper_default()
    }

    /// A consumer GEMM with a large gathered input: tall-skinny A.
    fn grid_of(sys: &SystemConfig) -> GemmGrid {
        GemmGrid::new(&sys.gpu, GemmShape::new(8192, 1024, 1024))
    }

    #[test]
    fn aligned_fusion_beats_sequential() {
        let s = sys();
        let fused = run_fused_ag_gemm(&s, grid_of(&s), &AgFuseOptions::default());
        let seq = sequential_ag_gemm(&s, grid_of(&s));
        assert!(
            fused.cycles < seq.cycles,
            "fused {} must beat sequential {}",
            fused.cycles,
            seq.cycles
        );
        assert!(fused.scheduling_triggers > 0);
    }

    #[test]
    fn misaligned_scheduling_hurts() {
        let s = sys();
        let aligned = run_fused_ag_gemm(&s, grid_of(&s), &AgFuseOptions::default());
        let misaligned = run_fused_ag_gemm(
            &s,
            grid_of(&s),
            &AgFuseOptions {
                arrival_aligned: false,
            },
        );
        assert!(
            misaligned.cycles >= aligned.cycles,
            "misaligned {} vs aligned {}",
            misaligned.cycles,
            aligned.cycles
        );
    }

    #[test]
    fn fused_cannot_beat_the_gemm_alone() {
        let s = sys();
        let gemm = t3_gpu::engine::run_gemm_isolated(
            &s,
            grid_of(&s),
            t3_gpu::engine::WritePolicy::CachedLocal,
        );
        let fused = run_fused_ag_gemm(&s, grid_of(&s), &AgFuseOptions::default());
        assert!(fused.cycles as f64 >= gemm.cycles as f64 * 0.95);
    }

    #[test]
    fn incoming_traffic_covers_received_shards() {
        let s = sys();
        let grid = grid_of(&s);
        let a = grid.shape().a_bytes();
        let n = s.num_gpus as u64;
        let fused = run_fused_ag_gemm(&s, grid, &AgFuseOptions::default());
        let incoming = fused.stats.bytes(TrafficClass::AgWrite);
        let expected = a / n * (n - 1);
        assert_eq!(incoming, expected);
    }
}
