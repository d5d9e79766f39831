//! Explicit multi-GPU simulation of the fused GEMM + reduce-scatter —
//! every GPU simulated, real cross-GPU traffic on a real fabric.
//!
//! The paper (and [`crate::engine`]) exploit the homogeneity of
//! tensor-parallel execution to simulate one GPU and mirror its
//! outgoing traffic as the incoming stream (Section 5.1.1). This
//! module drops that assumption: all `N` GPUs run their own GEMM
//! engine, memory controller, LLC, Tracker and DMA engine, and every
//! chunk travels over a [`t3_topo::Fabric`] from its producer to its
//! consumer — contending per hop with everything else on the wire.
//!
//! Two schedules, one source ([`t3_topo::Schedule`]):
//!
//! * **Ring fabrics** run the ascending mirror-image ring exactly as
//!   before (its purpose is to *validate the mirrored methodology*):
//!   device `d` computes global chunk `(d + p) mod N` at local
//!   position `p` and sends to `prev(d)`. Position 0 leaves as
//!   fine-grained remote stores; positions `1..=N-2` as
//!   Tracker-triggered DMA updates; the last position is the owned
//!   chunk. The per-position routes come from the schedule-derived
//!   [`OutputConfig`], which reproduces the hand-built ring
//!   configuration bit-for-bit.
//! * **Every other fabric** (switch, torus, hierarchical,
//!   fully-connected) runs the direct schedule (Section 7.1): each
//!   non-owned chunk streams straight to its owner as fine-grained
//!   remote updates over its (possibly multi-hop) route, and the
//!   owned chunk completes in memory once the local pass plus `N-1`
//!   incoming passes have been counted by the Tracker. No DMAs are
//!   needed; messages crossing a shared switch port or a slow
//!   inter-node link contend in the fabric's per-link serialisers.
//!
//! # Engines
//!
//! Three byte-identical ways to advance time, all through
//! [`t3_sim::drive`]:
//!
//! * **Stepped** ([`t3_sim::SimMode::Stepped`]): the reference loop —
//!   every device steps every cycle.
//! * **Fast-forward** ([`t3_sim::SimMode::FastForward`], the default):
//!   when every memory controller is idle, the loop leaps `now`
//!   straight to the minimum of each component's
//!   `next_event` — GEMM stage boundaries, fabric inbox arrivals —
//!   replaying the skipped idle cycles' side effects (tracer samples,
//!   arbiter wait counters, credit regeneration) exactly.
//! * **Sharded** ([`run_multi_gpu_fused_rs_sharded`]): devices are
//!   partitioned across worker threads and simulate windows of
//!   `1 + min link latency` cycles independently (no message sent
//!   inside a window can arrive within it), buffering outgoing sends;
//!   each window barrier replays the buffered sends into the shared
//!   fabric in the exact order the sequential loop would have used.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::thread;

use crate::addrmap::{ChunkRoute, OutputConfig};
use crate::engine::{record_local, wf_regions, Feed, FusedOptions, FusedRunResult};
use crate::tracker::{Tracker, TrackerConfig};
use t3_gpu::engine::{GemmEngine, GemmEvent};
use t3_gpu::gemm::GemmGrid;
use t3_mem::controller::{MemoryController, StreamId};
use t3_mem::llc::Llc;
use t3_net::ring::Ring;
use t3_sim::config::SystemConfig;
use t3_sim::stats::{TrafficClass, TrafficStats};
use t3_sim::{drive, min_event, Bytes, Clocked, Cycle, CONVERGENCE_GUARD};
use t3_topo::{Arrival, Fabric, Schedule, Topology};
use t3_trace::{reborrow, Event, Instruments};

/// Result of an explicit multi-GPU fused run.
#[derive(Debug, Clone)]
pub struct MultiGpuResult {
    /// Cycle at which the slowest GPU finished.
    pub cycles: Cycle,
    /// Per-GPU completion times.
    pub per_gpu_cycles: Vec<Cycle>,
    /// Per-GPU DRAM traffic.
    pub per_gpu_stats: Vec<TrafficStats>,
    /// Max minus min completion time (homogeneity check).
    pub skew: Cycle,
    /// Total DMA chunk transfers across GPUs.
    pub dma_transfers: u64,
    /// Observed wire bytes per fabric link, indexed by
    /// [`t3_topo::LinkId`]. Multi-hop messages count once per hop,
    /// so this must equal the schedule's per-link prediction.
    pub link_bytes: Vec<Bytes>,
}

impl MultiGpuResult {
    /// The mean per-GPU completion time.
    pub fn mean_cycles(&self) -> f64 {
        self.per_gpu_cycles.iter().sum::<Cycle>() as f64 / self.per_gpu_cycles.len() as f64
    }

    /// Relative difference between this run and a mirrored
    /// single-GPU result.
    pub fn mirror_error(&self, mirrored: &FusedRunResult) -> f64 {
        let a = self.cycles as f64;
        let b = mirrored.cycles as f64;
        (a - b).abs() / b
    }
}

/// Per-position bookkeeping.
#[derive(Debug)]
struct ChunkState {
    /// Local WG bounds of this position in the device's execution
    /// order.
    wg_bounds: (u64, u64),
    /// Global chunk id this position computes.
    global_chunk: usize,
    bytes: Bytes,
    route: ChunkRoute,
    /// Physical destination GPU for outgoing positions (`None` for
    /// the owned chunk).
    dest: Option<usize>,
    /// Full passes of incoming updates this position expects (1 on a
    /// ring; `N-1` for a direct fabric's owned chunk; 0 otherwise).
    incoming_passes: usize,
    triggered_wfs: usize,
    expected_wfs: usize,
    dma_fired: bool,
    feed_built: bool,
}

/// One simulated GPU.
struct Gpu {
    mc: MemoryController,
    llc: Llc,
    gemm: GemmEngine,
    tracker: Tracker,
    chunks: Vec<ChunkState>,
    feed: Feed,
    /// Pending DMA source reads: (position, serviced-read target).
    dma_reading: Option<(usize, Bytes)>,
    dma_queue: VecDeque<usize>,
    first_stage_done: bool,
    gemm_done: bool,
    finished_at: Option<Cycle>,
    dma_transfers: u64,
}

/// A fabric send a sharded worker buffered during its window, replayed
/// at the barrier in `(cycle, device, program order)`.
#[derive(Debug, Clone, Copy)]
struct SendIntent {
    cycle: Cycle,
    src: usize,
    dst: usize,
    tag: u64,
    bytes: Bytes,
}

/// Where a device's outgoing fabric traffic goes: straight onto the
/// shared fabric (sequential engines) or into a per-worker buffer for
/// deterministic replay at the window barrier (sharded engine — which
/// never instruments, so the buffered variant ignores `ins`).
enum SendSink<'a> {
    Fabric(&'a mut Fabric),
    Buffer(&'a mut Vec<SendIntent>),
}

impl SendSink<'_> {
    /// Sends one fabric message: a piece of a fine-grained
    /// remote-update stream, or (`dma`) a Tracker-fired chunk whose
    /// wire span is recorded as an [`Event::ChunkSend`] when
    /// instrumented.
    fn send(&mut self, msg: SendIntent, dma: bool, mut ins: Option<&mut Instruments>) {
        let SendIntent {
            cycle: now,
            src,
            dst,
            tag,
            bytes,
        } = msg;
        match self {
            SendSink::Fabric(fabric) => {
                let span = (dma && ins.is_some()).then(|| {
                    let out_port = fabric.topo().route(src, dst)[0];
                    (out_port, fabric.link(out_port).busy_until().max(now))
                });
                fabric.send_traced(now, src, dst, tag, bytes, reborrow(&mut ins));
                if let (Some((out_port, start)), Some(ins)) = (span, ins) {
                    let end = fabric.link(out_port).busy_until();
                    let hops = fabric.topo().route(src, dst).len() as u64;
                    ins.record(
                        end,
                        Event::ChunkSend {
                            chunk: tag,
                            bytes,
                            hops,
                            start,
                            end,
                        },
                    );
                    ins.add("dma.chunks_sent", 1);
                }
            }
            SendSink::Buffer(intents) => {
                debug_assert!(ins.is_none(), "sharded windows are uninstrumented");
                intents.push(msg);
            }
        }
    }
}

/// Read-only per-run geometry shared by every device step.
struct StepCtx<'a> {
    grid: &'a GemmGrid,
    global_bounds: &'a [(u64, u64)],
    update_cost: f64,
}

/// Runs the fused GEMM-RS with every GPU simulated explicitly, on the
/// ring fabric the paper evaluates.
///
/// # Panics
///
/// Panics if the substrate cannot reduce in memory, or on
/// non-convergence (internal error).
pub fn run_multi_gpu_fused_rs(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> MultiGpuResult {
    run_multi_gpu_fused_rs_instrumented(sys, grid, opts, None)
}

/// [`run_multi_gpu_fused_rs`] with optional structured instrumentation
/// of **device 0** (all devices are homogeneous, so one observed GPU
/// is representative — the same argument as the mirrored methodology).
/// Passing `None` is bit-identical to `run_multi_gpu_fused_rs`.
///
/// # Panics
///
/// As [`run_multi_gpu_fused_rs`].
pub fn run_multi_gpu_fused_rs_instrumented(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    ins: Option<&mut Instruments>,
) -> MultiGpuResult {
    let topo = Topology::ring(sys.num_gpus, &sys.link);
    run_multi_gpu_fused_rs_on(sys, grid, opts, &topo, ins)
}

/// Builds the per-device simulation state and the shared fabric.
///
/// # Panics
///
/// Panics on the option/topology preconditions shared by every engine
/// entry point (see [`run_multi_gpu_fused_rs_on`]).
fn build_run(
    sys: &SystemConfig,
    grid: &GemmGrid,
    opts: &FusedOptions,
    topo: &Topology,
) -> (Vec<Gpu>, Fabric, Vec<(u64, u64)>) {
    assert!(
        opts.substrate.reduces_in_memory(),
        "fused T3 requires an in-memory reduction substrate"
    );
    assert!(opts.stagger, "the explicit model always staggers");
    assert_eq!(
        topo.num_gpus(),
        sys.num_gpus,
        "topology and system disagree on GPU count"
    );
    let n = sys.num_gpus;
    let is_ring = topo.is_ring();
    let ring = Ring::new(n);
    let sched = Schedule::reduce_scatter(topo);
    // All routing decisions flow from the one schedule source.
    let configs: Vec<OutputConfig> = (0..n)
        .map(|d| OutputConfig::from_reduce_scatter_schedule(&sched, d))
        .collect();
    let fabric = Fabric::new(topo);

    // Global chunk geometry.
    let global_bounds: Vec<(u64, u64)> = (0..n)
        .map(|c| grid.chunk_wg_bounds(n as u64, c as u64))
        .collect();

    let gpus: Vec<Gpu> = (0..n)
        .map(|d| {
            // Local execution order: positions 0..n. On a ring,
            // position p is global chunk (d + p) % n and everything
            // leaves toward prev(d) (the ascending mirror-image
            // schedule); elsewhere the schedule-derived configuration
            // names both the chunk and its owner.
            let mut chunks = Vec::with_capacity(n);
            let mut cursor = 0u64;
            for p in 0..n {
                let (global_chunk, route, dest) = if is_ring {
                    let route = configs[0].route(p);
                    let dest = (p < n - 1).then(|| ring.prev(d));
                    ((d + p) % n, route, dest)
                } else {
                    let route = configs[d].route(p);
                    (configs[d].chunk_id(p), route, route.destination())
                };
                let incoming_passes = if is_ring {
                    usize::from(p >= 1)
                } else {
                    sched
                        .sends()
                        .filter(|s| s.dst == d && s.chunk == global_chunk)
                        .count()
                };
                let (g0, g1) = global_bounds[global_chunk];
                let size = g1 - g0;
                chunks.push(ChunkState {
                    wg_bounds: (cursor, cursor + size),
                    global_chunk,
                    bytes: grid.wg_range_output_bytes(g0, g1),
                    route,
                    dest,
                    incoming_passes,
                    triggered_wfs: 0,
                    expected_wfs: if route.tracked() {
                        wf_regions(grid, (g0, g1)).count()
                    } else {
                        0
                    },
                    dma_fired: false,
                    feed_built: false,
                });
                cursor += size;
            }
            Gpu {
                mc: MemoryController::new(&sys.mem, opts.policy.build(sys)),
                llc: Llc::new(&sys.mem),
                gemm: GemmEngine::new(&sys.gpu, grid.clone()),
                tracker: Tracker::new(TrackerConfig::paper(grid.wf_tile_elems())),
                chunks,
                feed: Feed::default(),
                dma_reading: None,
                dma_queue: VecDeque::new(),
                first_stage_done: false,
                gemm_done: false,
                finished_at: None,
                dma_transfers: 0,
            }
        })
        .collect();
    (gpus, fabric, global_bounds)
}

/// One device's full per-cycle step: this cycle's fabric arrivals
/// into the comm stream, memory controller, incoming update
/// attribution, GEMM progress, DMA engine, trigger fires and
/// completion bookkeeping. Outgoing traffic goes through `sink` so
/// the sharded engine can defer it to its window barrier. `ins` must
/// be `Some` only for the instrumented device.
fn step_device(
    gpu: &mut Gpu,
    d: usize,
    now: Cycle,
    incoming: &[Arrival],
    ctx: &StepCtx,
    sink: &mut SendSink,
    mut ins: Option<&mut Instruments>,
) {
    for inc in incoming {
        if let Some(ins) = reborrow(&mut ins) {
            ins.record(
                now,
                Event::ChunkRecv {
                    chunk: inc.tag,
                    bytes: inc.bytes,
                },
            );
            ins.add("chunks.received", 1);
        }
        let global_chunk = inc.tag as usize;
        let pos = gpu
            .chunks
            .iter()
            .position(|c| c.global_chunk == global_chunk)
            .expect("chunk routed to wrong GPU");
        let chunk = &mut gpu.chunks[pos];
        if !chunk.feed_built {
            let updates = chunk.route.updates_per_element();
            for _ in 0..chunk.incoming_passes {
                let bounds = ctx.global_bounds[global_chunk];
                gpu.feed.push_chunk(ctx.grid, bounds, pos, updates);
            }
            chunk.feed_built = true;
        }
        gpu.mc.enqueue(
            StreamId::Comm,
            TrafficClass::RsUpdate,
            inc.bytes,
            ctx.update_cost,
        );
    }
    gpu.mc.step_traced(now, None, reborrow(&mut ins));
    let msg = |dst, tag, bytes| SendIntent {
        cycle: now,
        src: d,
        dst,
        tag,
        bytes,
    };

    // Attribute serviced incoming updates.
    let serviced = gpu.mc.stats().bytes(TrafficClass::RsUpdate);
    let chunks = &mut gpu.chunks;
    gpu.feed.attribute(serviced, &mut gpu.tracker, |e| {
        chunks[e.position].triggered_wfs += 1;
    });

    // GEMM progress.
    match gpu.gemm.step(now, &mut gpu.mc, &mut gpu.llc) {
        GemmEvent::Idle => {}
        GemmEvent::Finished => gpu.gemm_done = true,
        GemmEvent::StageStoresIssued {
            stage,
            wg_start,
            wg_end,
            bytes,
            started,
            compute_cycles,
        } => {
            if let Some(ins) = reborrow(&mut ins) {
                ins.record(
                    now,
                    Event::GemmStage {
                        stage,
                        wg_start,
                        wg_end,
                        start: started,
                        end: now,
                        bytes,
                        compute_cycles,
                    },
                );
                ins.add("gemm.stages", 1);
            }
            if !gpu.first_stage_done {
                let frac = gpu.mc.avg_occupancy_fraction();
                gpu.mc.observe_compute_intensity(frac);
                gpu.first_stage_done = true;
            }
            let mut wg = wg_start;
            while wg < wg_end {
                let pos = gpu
                    .chunks
                    .iter()
                    .position(|c| wg >= c.wg_bounds.0 && wg < c.wg_bounds.1)
                    .expect("wg outside chunk space");
                let upper = gpu.chunks[pos].wg_bounds.1.min(wg_end);
                // Bytes via the *global* chunk's tiles: local WG
                // index offsets map 1:1 onto the rotated global
                // range.
                let (g0, _) = ctx.global_bounds[gpu.chunks[pos].global_chunk];
                let local0 = gpu.chunks[pos].wg_bounds.0;
                let bytes = ctx
                    .grid
                    .wg_range_output_bytes(g0 + (wg - local0), g0 + (upper - local0));
                match gpu.chunks[pos].route {
                    ChunkRoute::RemoteUpdate { .. } => {
                        let dest = gpu.chunks[pos]
                            .dest
                            .expect("remote chunk has a destination");
                        let tag = gpu.chunks[pos].global_chunk as u64;
                        sink.send(msg(dest, tag, bytes), false, reborrow(&mut ins));
                    }
                    ChunkRoute::LocalOnly { .. } | ChunkRoute::LocalThenDmaUpdate { .. } => {
                        gpu.mc.enqueue(
                            StreamId::Compute,
                            TrafficClass::GemmWrite,
                            bytes,
                            ctx.update_cost,
                        );
                        let global = (g0 + (wg - local0), g0 + (upper - local0));
                        let updates = gpu.chunks[pos].route.updates_per_element();
                        gpu.chunks[pos].triggered_wfs +=
                            record_local(ctx.grid, &mut gpu.tracker, global, updates);
                    }
                    _ => unreachable!("fused RS uses no other routes"),
                }
                wg = upper;
            }
        }
    }

    // DMA engine: one source read in flight, then the fabric.
    if let Some((pos, target)) = gpu.dma_reading {
        if gpu.mc.stats().bytes(TrafficClass::RsRead) >= target {
            let chunk = gpu.chunks[pos].global_chunk as u64;
            let payload = gpu.chunks[pos].bytes;
            let dest = gpu.chunks[pos].dest.expect("DMA chunk has a destination");
            sink.send(msg(dest, chunk, payload), true, reborrow(&mut ins));
            gpu.dma_transfers += 1;
            gpu.dma_reading = None;
        }
    }
    if gpu.dma_reading.is_none() {
        if let Some(pos) = gpu.dma_queue.pop_front() {
            let target = gpu.mc.stats().bytes(TrafficClass::RsRead) + gpu.chunks[pos].bytes;
            gpu.mc.enqueue(
                StreamId::Comm,
                TrafficClass::RsRead,
                gpu.chunks[pos].bytes,
                1.0,
            );
            gpu.dma_reading = Some((pos, target));
        }
    }
    // Fire DMAs for completed steady-state chunks.
    for pos in 0..gpu.chunks.len() {
        let c = &mut gpu.chunks[pos];
        if c.route.uses_dma() && !c.dma_fired && c.triggered_wfs == c.expected_wfs {
            c.dma_fired = true;
            if let Some(ins) = reborrow(&mut ins) {
                ins.record(
                    now,
                    Event::DmaTriggerFire {
                        chunk: c.global_chunk as u64,
                        bytes: c.bytes,
                    },
                );
                ins.add("dma.triggers_fired", 1);
            }
            gpu.dma_queue.push_back(pos);
        }
    }

    // Completion bookkeeping (fabric payloads may still be in
    // flight toward a peer; that time belongs to the receiver,
    // which cannot finish before consuming them).
    let chunks_done = gpu
        .chunks
        .iter()
        .all(|c| !c.route.tracked() || c.triggered_wfs == c.expected_wfs);
    if gpu.finished_at.is_none()
        && gpu.gemm_done
        && chunks_done
        && gpu.feed.is_empty()
        && gpu.dma_reading.is_none()
        && gpu.dma_queue.is_empty()
        && gpu.mc.is_idle()
    {
        gpu.finished_at = Some(now);
    }
}

/// The next cycle strictly after `now` at which stepping this device
/// can change its observable state, assuming nothing new arrives from
/// the fabric. `None` when the device is inert until external input.
///
/// A pending DMA (queued or reading) pins the very next cycle: the
/// engine polls it every cycle and an un-serviced source read keeps
/// the memory controller busy anyway.
fn device_next_event(gpu: &Gpu, now: Cycle) -> Option<Cycle> {
    if gpu.dma_reading.is_some() || !gpu.dma_queue.is_empty() {
        return Some(now + 1);
    }
    gpu.mc
        .next_event(now)
        .or_else(|| gpu.gemm.next_event(now, &gpu.mc))
}

/// Assembles the run result once every device has finished.
fn finish_result(gpus: &[Gpu], fabric: &Fabric) -> MultiGpuResult {
    let per_gpu_cycles: Vec<Cycle> = gpus
        .iter()
        .map(|g| g.finished_at.expect("all finished"))
        .collect();
    let max = *per_gpu_cycles.iter().max().expect("non-empty");
    let min = *per_gpu_cycles.iter().min().expect("non-empty");
    MultiGpuResult {
        cycles: max,
        skew: max - min,
        per_gpu_stats: gpus.iter().map(|g| g.mc.stats().clone()).collect(),
        dma_transfers: gpus.iter().map(|g| g.dma_transfers).sum(),
        link_bytes: fabric.link_bytes(),
        per_gpu_cycles,
    }
}

/// Runs the fused GEMM + reduce-scatter with every GPU simulated
/// explicitly over an arbitrary fabric. A ring topology reproduces
/// [`run_multi_gpu_fused_rs`] exactly; any other fabric runs the
/// direct schedule with multi-hop, per-link-contended traffic (see
/// the module docs).
///
/// `opts.mode` selects stepped or fast-forward time advancement; the
/// two are byte-identical (the stepped path is the reference kept for
/// the equivalence tests).
///
/// # Panics
///
/// Panics if the topology's GPU count differs from `sys.num_gpus`, if
/// the substrate cannot reduce in memory, or on non-convergence
/// (internal error).
pub fn run_multi_gpu_fused_rs_on(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    topo: &Topology,
    ins: Option<&mut Instruments>,
) -> MultiGpuResult {
    let (gpus, fabric, global_bounds) = build_run(sys, &grid, opts, topo);
    let mut cluster = Cluster {
        gpus,
        fabric,
        ctx: StepCtx {
            grid: &grid,
            global_bounds: &global_bounds,
            update_cost: opts.substrate.update_cost_multiplier(&sys.mem),
        },
        ins,
    };
    drive(&mut cluster, opts.mode, 0, None);

    let Cluster {
        gpus,
        fabric,
        mut ins,
        ..
    } = cluster;
    let result = finish_result(&gpus, &fabric);
    if let Some(ins) = reborrow(&mut ins) {
        let gpu0 = &gpus[0];
        ins.record(
            result.cycles,
            Event::LlcSample {
                hits: gpu0.llc.hits(),
                misses: gpu0.llc.misses(),
            },
        );
        if let Some(m) = ins.metrics.as_mut() {
            m.set("run.cycles", result.cycles);
            m.set("run.skew", result.skew);
            m.set("dma.transfers", result.dma_transfers);
            m.set("tracker.peak_entries", gpu0.tracker.peak_entries() as u64);
            m.set("llc.hits", gpu0.llc.hits());
            m.set("llc.misses", gpu0.llc.misses());
            m.record_traffic(gpu0.mc.stats());
        }
    }
    result
}

/// Every GPU plus the shared fabric, stepped in lockstep by the
/// sequential engine. Only device 0 is instrumented.
struct Cluster<'a> {
    gpus: Vec<Gpu>,
    fabric: Fabric,
    ctx: StepCtx<'a>,
    ins: Option<&'a mut Instruments>,
}

impl Clocked for Cluster<'_> {
    fn step(&mut self, now: Cycle) {
        for (d, gpu) in self.gpus.iter_mut().enumerate() {
            let ins = if d == 0 {
                reborrow(&mut self.ins)
            } else {
                None
            };
            let incoming = self.fabric.deliveries_until(d, now);
            let mut sink = SendSink::Fabric(&mut self.fabric);
            step_device(gpu, d, now, &incoming, &self.ctx, &mut sink, ins);
        }
    }

    /// With every memory controller drained the only future events are
    /// GEMM phase boundaries and fabric arrivals. The scan stops at the
    /// first device that pins the next cycle (a busy one, usually).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next = None;
        for gpu in &self.gpus {
            next = min_event(next, device_next_event(gpu, now));
            if next == Some(now + 1) {
                return next;
            }
        }
        min_event(next, self.fabric.next_event(now))
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        for (d, gpu) in self.gpus.iter_mut().enumerate() {
            let ins = if d == 0 {
                reborrow(&mut self.ins)
            } else {
                None
            };
            gpu.mc.skip_idle(from, to, ins);
        }
    }

    fn is_done(&self, now: Cycle) -> bool {
        self.gpus.iter().all(|g| g.finished_at.is_some()) && self.fabric.busy_until() <= now
    }
}

/// One device of the sharded engine inside one barrier window: it
/// consumes its pre-popped fabric arrivals and buffers its outgoing
/// sends into `intents`. Driven with the window end as horizon, so
/// fast-forward leaps idle gaps exactly as the sequential engine does,
/// clamped to the window.
struct DeviceWindow<'a, 'c> {
    gpu: &'a mut Gpu,
    d: usize,
    pend: &'a mut VecDeque<Arrival>,
    ctx: &'a StepCtx<'c>,
    intents: &'a mut Vec<SendIntent>,
}

impl Clocked for DeviceWindow<'_, '_> {
    fn step(&mut self, now: Cycle) {
        let due = self.pend.iter().take_while(|a| a.arrival <= now).count();
        let incoming: Vec<Arrival> = self.pend.drain(..due).collect();
        let mut sink = SendSink::Buffer(self.intents);
        step_device(self.gpu, self.d, now, &incoming, self.ctx, &mut sink, None);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let pend_at = self.pend.front().map(|a| a.arrival.max(now + 1));
        min_event(device_next_event(self.gpu, now), pend_at)
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.gpu.mc.skip_idle(from, to, None);
    }

    /// A window always runs to its end; completion is decided at the
    /// barrier.
    fn is_done(&self, _now: Cycle) -> bool {
        false
    }
}

/// [`run_multi_gpu_fused_rs_on`] sharded across a pool of worker
/// threads with deterministic cycle-window barriers.
///
/// Devices are partitioned into contiguous shards, one per worker.
/// Each window spans `1 + min link latency` cycles — short enough
/// that no message sent inside a window can arrive within it (every
/// hop costs at least one serialisation cycle plus the link latency),
/// so a window's arrivals are fully known at its start. Workers
/// simulate their devices independently through the window, buffering
/// outgoing fabric sends; at the barrier the coordinator replays the
/// buffered sends into the shared fabric in the exact
/// `(cycle, device, program order)` the sequential loop would have
/// used, making the run byte-identical to the sequential engines at
/// every thread width.
///
/// Worker panics are re-raised on the coordinator in shard order
/// (lowest devices first) — the same ordered-merge discipline as
/// `t3-runtime`'s scheduler pool. Instrumentation is not supported on
/// this path; use [`run_multi_gpu_fused_rs_on`] to trace device 0.
///
/// # Panics
///
/// As [`run_multi_gpu_fused_rs_on`], plus any panic raised inside a
/// worker.
pub fn run_multi_gpu_fused_rs_sharded(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    topo: &Topology,
    threads: usize,
) -> MultiGpuResult {
    let n = sys.num_gpus;
    let threads = threads.clamp(1, n);
    let (mut gpus, mut fabric, global_bounds) = build_run(sys, &grid, opts, topo);
    let ctx = StepCtx {
        grid: &grid,
        global_bounds: &global_bounds,
        update_cost: opts.substrate.update_cost_multiplier(&sys.mem),
    };
    let mode = opts.mode;
    let window: Cycle = 1 + topo
        .links()
        .iter()
        .map(|l| l.cfg.latency_cycles())
        .min()
        .unwrap_or(0);
    let per = n.div_ceil(threads);

    let mut t0: Cycle = 0;
    loop {
        let t_end = t0 + window;
        // Pre-pop every arrival landing inside this window; nothing
        // sent during the window can land before `t_end`.
        let mut pending: Vec<VecDeque<Arrival>> = (0..n)
            .map(|d| fabric.deliveries_until(d, t_end - 1).into())
            .collect();

        let outcomes: Vec<thread::Result<Vec<SendIntent>>> = thread::scope(|scope| {
            let handles: Vec<_> = gpus
                .chunks_mut(per)
                .zip(pending.chunks_mut(per))
                .enumerate()
                .map(|(w, (gpu_shard, pend_shard))| {
                    let ctx = &ctx;
                    scope.spawn(move || {
                        let mut intents = Vec::new();
                        for (i, (gpu, pend)) in
                            gpu_shard.iter_mut().zip(pend_shard.iter_mut()).enumerate()
                        {
                            let mut window = DeviceWindow {
                                gpu,
                                d: w * per + i,
                                pend,
                                ctx,
                                intents: &mut intents,
                            };
                            drive(&mut window, mode, t0, Some(t_end));
                        }
                        intents
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });

        // Ordered merge: replay every worker's buffered sends in the
        // sequential loop's (cycle, device, program order); re-raise
        // the first panic in shard order.
        let mut merged: Vec<SendIntent> = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(intents) => merged.extend(intents),
                Err(payload) => resume_unwind(payload),
            }
        }
        merged.sort_by_key(|i| (i.cycle, i.src));
        for it in &merged {
            fabric.send_traced(it.cycle, it.src, it.dst, it.tag, it.bytes, None);
        }
        debug_assert!(
            pending.iter().all(VecDeque::is_empty),
            "window left arrivals unconsumed"
        );

        t0 = t_end;
        if gpus.iter().all(|g| g.finished_at.is_some()) && fabric.is_idle(t0 - 1) {
            break;
        }
        assert!(t0 < CONVERGENCE_GUARD, "multi-GPU run failed to converge");
    }

    finish_result(&gpus, &fabric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fused_gemm_rs;
    use t3_gpu::gemm::GemmShape;
    use t3_sim::SimMode;

    fn sys() -> SystemConfig {
        SystemConfig::paper_default()
    }

    fn grid_of(sys: &SystemConfig) -> GemmGrid {
        GemmGrid::new(&sys.gpu, GemmShape::new(4096, 4096, 512))
    }

    fn small_grid(sys: &SystemConfig) -> GemmGrid {
        GemmGrid::new(&sys.gpu, GemmShape::new(2048, 2048, 512))
    }

    fn opts_in(mode: SimMode) -> FusedOptions {
        FusedOptions {
            mode,
            ..FusedOptions::default()
        }
    }

    #[test]
    fn all_gpus_complete_with_zero_skew() {
        // Fully homogeneous inputs: every GPU must finish at the same
        // cycle (this is the paper's homogeneity argument made exact).
        let s = sys();
        let r = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        assert_eq!(r.skew, 0, "homogeneous GPUs must not skew");
        assert_eq!(r.per_gpu_cycles.len(), s.num_gpus);
        assert_eq!(r.dma_transfers, (s.num_gpus * (s.num_gpus - 2)) as u64);
    }

    #[test]
    fn ring_topology_reproduces_seed_timing() {
        // Pinned regression: the fabric-based ring path must produce
        // the exact cycle counts the dedicated per-GPU-link
        // implementation produced before the topology refactor.
        let s = sys();
        let r = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        assert_eq!(r.cycles, 438_774);
        assert_eq!(r.skew, 0);
        assert_eq!(r.dma_transfers, 48);
        let mut s4 = sys();
        s4.num_gpus = 4;
        let g4 = GemmGrid::new(&s4.gpu, GemmShape::new(2048, 2048, 512));
        let r4 = run_multi_gpu_fused_rs(&s4, g4, &FusedOptions::default());
        assert_eq!(r4.cycles, 120_365);
        assert_eq!(r4.dma_transfers, 8);
    }

    #[test]
    fn fast_forward_run_is_byte_identical_to_stepped() {
        // The default engine leaps idle gaps; the stepped reference
        // walks every cycle. Their results must agree bit for bit.
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let stepped = run_multi_gpu_fused_rs(&s, grid.clone(), &opts_in(SimMode::Stepped));
        let fast = run_multi_gpu_fused_rs(&s, grid, &opts_in(SimMode::FastForward));
        assert_eq!(format!("{stepped:?}"), format!("{fast:?}"));
    }

    #[test]
    fn instrumented_fast_forward_traces_match_stepped() {
        // Skipped idle cycles must replay their side effects exactly:
        // the tracer's sampled MC depth stream, event sequence numbers
        // and every metrics counter have to match the stepped run.
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let mut a = Instruments::full();
        let mut b = Instruments::full();
        let stepped = run_multi_gpu_fused_rs_instrumented(
            &s,
            grid.clone(),
            &opts_in(SimMode::Stepped),
            Some(&mut a),
        );
        let fast = run_multi_gpu_fused_rs_instrumented(
            &s,
            grid,
            &opts_in(SimMode::FastForward),
            Some(&mut b),
        );
        assert_eq!(stepped.cycles, fast.cycles);
        let ta = a.tracer.as_ref().expect("tracer on").records();
        let tb = b.tracer.as_ref().expect("tracer on").records();
        assert_eq!(format!("{ta:?}"), format!("{tb:?}"));
        let ma = a.metrics.as_ref().expect("metrics on").to_json();
        let mb = b.metrics.as_ref().expect("metrics on").to_json();
        assert_eq!(ma, mb);
    }

    #[test]
    fn sharded_run_matches_sequential_at_every_width() {
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let topo = Topology::ring(s.num_gpus, &s.link);
        let seq =
            run_multi_gpu_fused_rs_on(&s, grid.clone(), &FusedOptions::default(), &topo, None);
        for threads in [1, 2, 3, 8] {
            let sh = run_multi_gpu_fused_rs_sharded(
                &s,
                grid.clone(),
                &FusedOptions::default(),
                &topo,
                threads,
            );
            assert_eq!(
                format!("{seq:?}"),
                format!("{sh:?}"),
                "threads={threads} diverged from the sequential engine"
            );
        }
    }

    #[test]
    fn sharded_run_matches_sequential_on_a_switch_fabric() {
        // Multi-hop routes share switch ports across devices; the
        // barrier replay must reproduce that contention exactly, in
        // both time-advancement modes.
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let topo = Topology::switch(s.num_gpus, &s.link);
        for mode in [SimMode::Stepped, SimMode::FastForward] {
            let seq = run_multi_gpu_fused_rs_on(&s, grid.clone(), &opts_in(mode), &topo, None);
            let sh = run_multi_gpu_fused_rs_sharded(&s, grid.clone(), &opts_in(mode), &topo, 2);
            assert_eq!(
                format!("{seq:?}"),
                format!("{sh:?}"),
                "{} diverged",
                mode.label()
            );
        }
    }

    #[test]
    fn sharded_run_reproduces_the_pinned_ring_timing() {
        let s = sys();
        let topo = Topology::ring(s.num_gpus, &s.link);
        let r = run_multi_gpu_fused_rs_sharded(&s, grid_of(&s), &FusedOptions::default(), &topo, 4);
        assert_eq!(r.cycles, 438_774);
        assert_eq!(r.skew, 0);
        assert_eq!(r.dma_transfers, 48);
    }

    #[test]
    fn explicit_topology_ring_matches_wrapper_exactly() {
        let s = sys();
        let topo = Topology::ring(s.num_gpus, &s.link);
        let via_topo =
            run_multi_gpu_fused_rs_on(&s, small_grid(&s), &FusedOptions::default(), &topo, None);
        let wrapper = run_multi_gpu_fused_rs(&s, small_grid(&s), &FusedOptions::default());
        assert_eq!(via_topo.cycles, wrapper.cycles);
        assert_eq!(via_topo.per_gpu_cycles, wrapper.per_gpu_cycles);
        assert_eq!(via_topo.link_bytes, wrapper.link_bytes);
    }

    #[test]
    fn mirrored_methodology_validation() {
        // The explicit N-GPU run and the mirrored single-GPU run must
        // agree closely (paper Section 5.1.1's justification).
        let s = sys();
        let explicit = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        let mirrored = run_fused_gemm_rs(&s, grid_of(&s), &FusedOptions::default());
        let err = explicit.mirror_error(&mirrored);
        assert!(
            err < 0.05,
            "mirrored methodology off by {:.1}% ({} vs {})",
            err * 100.0,
            explicit.cycles,
            mirrored.cycles
        );
    }

    #[test]
    fn per_gpu_traffic_is_homogeneous() {
        let s = sys();
        let r = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        let first = r.per_gpu_stats[0].total();
        for (d, stats) in r.per_gpu_stats.iter().enumerate() {
            let diff = (stats.total() as i64 - first as i64).unsigned_abs();
            assert!(
                diff < 1 << 20,
                "GPU {d} traffic {} deviates from GPU 0 {}",
                stats.total(),
                first
            );
        }
    }

    #[test]
    fn two_gpu_explicit_ring() {
        let mut s = sys();
        s.num_gpus = 2;
        let r = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        assert_eq!(r.dma_transfers, 0);
        assert_eq!(r.skew, 0);
    }

    /// Per-link wire bytes predicted from the schedule and the grid's
    /// actual chunk geometry: every send contributes its full chunk to
    /// each hop of its route.
    fn predicted_bytes(topo: &Topology, grid: &GemmGrid) -> Vec<Bytes> {
        let n = topo.num_gpus() as u64;
        let sched = Schedule::reduce_scatter(topo);
        let mut per_link = vec![0u64; topo.num_links()];
        for send in sched.sends() {
            let (g0, g1) = grid.chunk_wg_bounds(n, send.chunk as u64);
            let bytes = grid.wg_range_output_bytes(g0, g1);
            for id in &send.route {
                per_link[id.0] += bytes;
            }
        }
        per_link
    }

    #[test]
    fn non_ring_fabrics_complete_with_exact_byte_accounting() {
        let s = sys();
        let grid = small_grid(&s);
        for topo in [
            Topology::switch(s.num_gpus, &s.link),
            Topology::torus2d(2, 4, &s.link),
            Topology::hierarchical(2, 4, &s.link, &s.link),
        ] {
            let r =
                run_multi_gpu_fused_rs_on(&s, grid.clone(), &FusedOptions::default(), &topo, None);
            let label = topo.kind().label();
            assert!(r.cycles > 0, "{label}: no progress");
            assert!(
                r.per_gpu_cycles.iter().all(|&c| c > 0 && c <= r.cycles),
                "{label}: inconsistent per-GPU times"
            );
            // Direct schedule: all traffic is fine-grained remote
            // updates, no DMAs.
            assert_eq!(r.dma_transfers, 0, "{label}: direct RS uses no DMA");
            assert_eq!(
                r.link_bytes,
                predicted_bytes(&topo, &grid),
                "{label}: observed wire bytes diverge from the schedule"
            );
        }
    }

    #[test]
    fn slow_inter_node_links_slow_the_hierarchical_run() {
        let s = sys();
        let grid = small_grid(&s);
        let mut slow = s.link.clone();
        slow.link_gb_s /= 8.0;
        slow.latency_ns *= 4.0;
        let uniform = Topology::hierarchical(2, 4, &s.link, &s.link);
        let bottleneck = Topology::hierarchical(2, 4, &s.link, &slow);
        let fast =
            run_multi_gpu_fused_rs_on(&s, grid.clone(), &FusedOptions::default(), &uniform, None);
        let slowed =
            run_multi_gpu_fused_rs_on(&s, grid, &FusedOptions::default(), &bottleneck, None);
        assert!(
            slowed.cycles > fast.cycles,
            "slow inter-node links must cost cycles ({} <= {})",
            slowed.cycles,
            fast.cycles
        );
    }

    #[test]
    fn switch_fabric_run_is_traced() {
        let s = sys();
        let mut ins = Instruments::full();
        let topo = Topology::switch(s.num_gpus, &s.link);
        let r = run_multi_gpu_fused_rs_on(
            &s,
            small_grid(&s),
            &FusedOptions::default(),
            &topo,
            Some(&mut ins),
        );
        let m = ins.metrics.as_ref().expect("metrics on");
        assert_eq!(m.counter("run.cycles"), r.cycles);
        // Device 0's outgoing remote updates all cross its switch
        // port, which the tracer observed.
        assert!(m.counter("link.bytes_sent") > 0);
        assert!(m.counter("chunks.received") > 0);
        let tracer = ins.tracer.as_ref().expect("tracer on");
        assert!(tracer.count(|e| matches!(e, Event::LinkBusy { .. })) > 0);
    }
}
