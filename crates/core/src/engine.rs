//! Timing simulation of T3's fused GEMM + ring reduce-scatter.
//!
//! Follows the paper's multi-GPU methodology (Section 5.1.1, Figure
//! 13): in a tensor-parallel node all GPUs execute homogeneously, so
//! one GPU is simulated in full and remote traffic is *mirrored* — the
//! incoming update stream for a chunk arrives with the timing of this
//! GPU's own outgoing transfers for the previous chunk (which
//! implicitly carries the neighbour's compute/communication
//! interference, exactly as the paper argues).
//!
//! Per the fused schedule (Figure 7) for an `N`-GPU ring:
//!
//! * the first chunk's stores leave as fine-grained remote updates on
//!   the link and never touch local DRAM;
//! * steady-state chunks are written locally as uncached near-memory
//!   updates; the [`Tracker`] counts the local stores (at
//!   memory-controller enqueue, Section 4.2.1) and the incoming
//!   mirrored updates (as DRAM services them), and fires the
//!   pre-programmed DMA when every wavefront region of a chunk is
//!   complete;
//! * the DMA reads the partially-reduced chunk once and sends it; its
//!   delivery mirrors the arrival of the *next* chunk's incoming copy;
//! * the last chunk is the one this GPU owns: local + incoming updates
//!   complete it in memory, with no further transfer.
//!
//! All DRAM traffic flows through one [`MemoryController`] under the
//! configured arbitration policy — this is where T3 and T3-MCA differ
//! (Sections 4.5, 6.1.2, 6.1.3).
//!
//! Each engine is a [`Clocked`] composition of its components, advanced
//! by [`t3_sim::drive`]. The wavefront-region walker, the incoming-update
//! feed and the proportional mirror below are shared with the explicit
//! N-GPU engine in [`crate::multigpu`].

use std::collections::VecDeque;

use crate::addrmap::{ChunkRoute, OutputConfig};
use crate::tracker::{Tracker, TrackerConfig, WfId};
use t3_gpu::engine::{GemmEngine, GemmEvent};
use t3_gpu::gemm::GemmGrid;
use t3_mem::arbiter::{ArbitrationPolicy, ComputeFirstPolicy, McaPolicy, RoundRobinPolicy};
use t3_mem::controller::{MemoryController, StreamId};
use t3_mem::llc::Llc;
use t3_mem::nmc::ReductionSubstrate;
use t3_net::dma::{DmaCommand, DmaEngine};
use t3_net::link::Link;
use t3_net::ring::Ring;
use t3_sim::config::SystemConfig;
use t3_sim::stats::{TrafficClass, TrafficStats};
use t3_sim::timeseries::TimeSeries;
use t3_sim::{drive, Bytes, Clocked, Cycle, SimMode};
use t3_trace::{reborrow, Event, Instruments};

/// Arbitration policy selection for a fused run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Naive round-robin (plain T3).
    RoundRobin,
    /// Static compute priority (intermediate point, for ablations).
    ComputeFirst,
    /// T3-MCA with the dynamic first-stage intensity probe.
    McaDynamic,
    /// T3-MCA with a fixed occupancy threshold (threshold ablation).
    McaFixed(usize),
}

impl PolicyChoice {
    pub(crate) fn build(self, sys: &SystemConfig) -> Box<dyn ArbitrationPolicy> {
        match self {
            PolicyChoice::RoundRobin => Box::new(RoundRobinPolicy::new()),
            PolicyChoice::ComputeFirst => Box::new(ComputeFirstPolicy::new()),
            PolicyChoice::McaDynamic => Box::new(McaPolicy::new(&sys.mem)),
            PolicyChoice::McaFixed(t) => Box::new(McaPolicy::with_fixed_threshold(t)),
        }
    }
}

/// Options for a fused GEMM-RS timing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedOptions {
    /// Memory-controller arbitration policy.
    pub policy: PolicyChoice,
    /// Where communication reductions execute.
    pub substrate: ReductionSubstrate,
    /// Staggered WG scheduling across GPUs (Section 4.4). Disabling it
    /// delays each chunk's incoming copy by the un-overlapped ring
    /// depth (ablation; see DESIGN.md).
    pub stagger: bool,
    /// Record a DRAM-traffic time series with this bucket width.
    pub timeseries_bucket: Option<Cycle>,
    /// How the engine loop advances time. Both modes are
    /// byte-identical; [`SimMode::Stepped`] is the reference path kept
    /// for the equivalence tests.
    pub mode: SimMode,
}

impl Default for FusedOptions {
    fn default() -> Self {
        FusedOptions {
            policy: PolicyChoice::RoundRobin,
            substrate: ReductionSubstrate::NearMemory,
            stagger: true,
            timeseries_bucket: None,
            mode: SimMode::default(),
        }
    }
}

/// Outcome of a fused GEMM-RS timing run.
#[derive(Debug, Clone)]
pub struct FusedRunResult {
    /// End-to-end cycles for the fused GEMM + reduce-scatter.
    pub cycles: Cycle,
    /// Per-GPU DRAM traffic.
    pub stats: TrafficStats,
    /// Optional traffic timeline (Figure 17).
    pub timeseries: Option<TimeSeries>,
    /// DMA chunk transfers performed (`N-2` per GPU for ring-RS).
    pub dma_transfers: u64,
    /// Tracker high-water mark (hardware sizing check).
    pub peak_tracker_entries: usize,
    /// Bytes sent on the outbound link (remote stores + DMA payloads).
    pub link_bytes_sent: Bytes,
}

/// Tag space: link messages tagged `>= TAG_REMOTE` are warm-up remote
/// stores; below that, the tag is the DMA'd chunk's position.
const TAG_REMOTE: u64 = 1 << 32;

#[derive(Debug)]
struct ChunkState {
    bytes: Bytes,
    route: ChunkRoute,
    triggered_wfs: usize,
    expected_wfs: usize,
    dma_fired: bool,
    feed_built: bool,
}

/// Mirror traffic scheduled to enter the comm stream at `at`.
#[derive(Debug, Clone, Copy)]
struct PendingIncoming {
    at: Cycle,
    position: usize,
    bytes: Bytes,
}

/// Removes and returns the announcements due by `now`, in swap-remove
/// scan order (the order their comm-stream enqueues happen in).
fn take_due(pending: &mut Vec<PendingIncoming>, now: Cycle) -> Vec<PendingIncoming> {
    let mut due = Vec::new();
    let mut i = 0;
    while i < pending.len() {
        if pending[i].at <= now {
            due.push(pending.swap_remove(i));
        } else {
            i += 1;
        }
    }
    due
}

/// The earliest pending announcement, clamped forward to `now + 1`.
fn next_due(pending: &[PendingIncoming], now: Cycle) -> Option<Cycle> {
    pending.iter().map(|p| p.at.max(now + 1)).min()
}

/// One non-empty wavefront output region: the unit the [`Tracker`]
/// counts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WfRegion {
    wf: WfId,
    addr: u64,
    elems: u64,
}

/// Every non-empty WF output region of the WGs in `[w0, w1)`, in WG/WF
/// order.
pub(crate) fn wf_regions(
    grid: &GemmGrid,
    (w0, w1): (u64, u64),
) -> impl Iterator<Item = WfRegion> + '_ {
    let wfs = grid.wfs_per_wg();
    let elem_bytes = grid.shape().elem_bytes;
    (w0..w1).flat_map(move |wg| {
        let t = grid.wg_tile(wg);
        let (base, _) = grid.wg_output_region(wg);
        (0..wfs).filter_map(move |wf| {
            let (r0, r1) = crate::fused::wf_rows(t.height as usize, wfs, wf);
            let elems = ((r1 - r0) as u64) * t.width;
            (elems > 0).then(|| WfRegion {
                wf: WfId { wg, wf },
                addr: base + (r0 as u64) * t.width * elem_bytes,
                elems,
            })
        })
    })
}

/// Records local NMC-update stores for the WGs in `bounds` (one full
/// region per WF, counted when the stores enter the memory-controller
/// queue) and returns how many WF regions completed.
pub(crate) fn record_local(
    grid: &GemmGrid,
    tracker: &mut Tracker,
    bounds: (u64, u64),
    updates: u32,
) -> usize {
    wf_regions(grid, bounds)
        .filter(|r| {
            tracker
                .record_update(r.wf, r.addr, r.elems, r.elems, updates)
                .is_some()
        })
        .count()
}

/// A wavefront region in the incoming-update attribution FIFO.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FeedEntry {
    pub(crate) position: usize,
    region: WfRegion,
    updates: u32,
    region_bytes: Bytes,
    consumed_bytes: Bytes,
}

/// The incoming-update attribution FIFO: serviced comm-stream update
/// bytes are credited to WF regions in announcement order, and each
/// completed region is counted by the tracker.
#[derive(Debug, Default)]
pub(crate) struct Feed {
    entries: VecDeque<FeedEntry>,
    serviced_seen: Bytes,
}

impl Feed {
    /// Appends one full pass over the WF regions of `bounds`, whose
    /// elements expect `updates` updates each. Attribution advances only
    /// as the memory controller services announced bytes, so queueing a
    /// whole chunk up front is safe.
    pub(crate) fn push_chunk(
        &mut self,
        grid: &GemmGrid,
        bounds: (u64, u64),
        position: usize,
        updates: u32,
    ) {
        let elem_bytes = grid.shape().elem_bytes;
        self.entries
            .extend(wf_regions(grid, bounds).map(|region| FeedEntry {
                position,
                region,
                updates,
                region_bytes: region.elems * elem_bytes,
                consumed_bytes: 0,
            }));
    }

    /// Credits the controller's cumulative `serviced` update bytes to
    /// the FIFO in order, recording each fully serviced region in the
    /// tracker and calling `fired` for every region whose tracker entry
    /// completes.
    pub(crate) fn attribute(
        &mut self,
        serviced: Bytes,
        tracker: &mut Tracker,
        mut fired: impl FnMut(&FeedEntry),
    ) {
        if serviced <= self.serviced_seen {
            return;
        }
        let mut delta = serviced - self.serviced_seen;
        self.serviced_seen = serviced;
        while delta > 0 {
            let entry = self
                .entries
                .front_mut()
                .expect("serviced more than announced");
            let take = delta.min(entry.region_bytes - entry.consumed_bytes);
            entry.consumed_bytes += take;
            delta -= take;
            if entry.consumed_bytes == entry.region_bytes {
                let e = *entry;
                self.entries.pop_front();
                let r = e.region;
                if tracker
                    .record_update(r.wf, r.addr, r.elems, r.elems, e.updates)
                    .is_some()
                {
                    fired(&e);
                }
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Exact proportional mirroring of an outgoing chunk onto an incoming
/// one: once `sent` bytes of a `src_total`-byte chunk have left,
/// `sent * dst_total / src_total` bytes of the mirrored chunk have
/// arrived — all of it once the source completes, so rounding never
/// loses bytes.
#[derive(Debug, Default, Clone)]
struct Mirror {
    sent: Bytes,
    announced: Bytes,
}

impl Mirror {
    /// Records `bytes` more sent; returns the newly mirrored bytes.
    fn advance(&mut self, bytes: Bytes, src_total: Bytes, dst_total: Bytes) -> Bytes {
        self.sent += bytes;
        let target = if self.sent >= src_total {
            dst_total
        } else {
            self.sent.saturating_mul(dst_total) / src_total
        };
        let mirrored = target.saturating_sub(self.announced);
        self.announced += mirrored;
        mirrored
    }
}

pub(crate) fn position_of_wg(bounds: &[(u64, u64)], wg: u64) -> usize {
    bounds
        .iter()
        .position(|&(w0, w1)| wg >= w0 && wg < w1)
        .expect("wg outside chunk space")
}

/// Runs the fused GEMM + ring reduce-scatter on one (mirrored) GPU.
///
/// The all-gather completing the all-reduce is sequential in T3
/// (Section 5.3) and is accounted by the configuration layer.
///
/// # Examples
///
/// ```
/// use t3_core::engine::{run_fused_gemm_rs, FusedOptions};
/// use t3_gpu::gemm::{GemmGrid, GemmShape};
/// use t3_sim::config::SystemConfig;
///
/// let sys = SystemConfig::paper_default(); // 8-GPU ring
/// let grid = GemmGrid::new(&sys.gpu, GemmShape::new(1024, 1024, 256));
/// let run = run_fused_gemm_rs(&sys, grid, &FusedOptions::default());
/// // N-2 steady-state chunks leave via Tracker-triggered DMAs.
/// assert_eq!(run.dma_transfers, 6);
/// ```
///
/// # Panics
///
/// Panics if `opts.substrate` cannot reduce in memory, or if the
/// simulation fails to converge (an internal error).
pub fn run_fused_gemm_rs(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> FusedRunResult {
    run_fused_gemm_rs_instrumented(sys, grid, opts, None)
}

/// [`run_fused_gemm_rs`] with optional structured instrumentation:
/// GEMM stages, chunk sends/receives, DMA trigger fires, link busy
/// intervals and memory-controller queue samples are recorded into
/// `ins` (Tracker table updates too, at [`t3_trace::Detail::Fine`]),
/// and end-of-run metrics (per-class traffic, cycles, DMA/tracker/LLC
/// counters) are snapshotted into its registry. Passing `None` is
/// bit-identical to `run_fused_gemm_rs`.
///
/// # Panics
///
/// As [`run_fused_gemm_rs`].
pub fn run_fused_gemm_rs_instrumented(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    ins: Option<&mut Instruments>,
) -> FusedRunResult {
    assert!(
        opts.substrate.reduces_in_memory(),
        "fused T3 requires an in-memory reduction substrate"
    );
    let n = sys.num_gpus;
    let config = OutputConfig::ring_reduce_scatter(Ring::new(n), 0);

    // Position p is the p-th chunk this GPU computes. Ring-RS has two
    // mirror-image schedules (send-to-next with descending chunk order,
    // or send-to-prev with ascending); we simulate the ascending one so
    // that the staggered schedule of the simulated GPU coincides with
    // the GEMM's natural WG order — the routes per position (warm-up
    // remote, N-2 DMA steps, owned last) are identical either way.
    let bounds: Vec<(u64, u64)> = (0..n)
        .map(|p| grid.chunk_wg_bounds(n as u64, p as u64))
        .collect();
    let chunks: Vec<ChunkState> = (0..n)
        .map(|p| {
            let (wg_bounds, route) = (bounds[p], config.route(p));
            ChunkState {
                bytes: grid.wg_range_output_bytes(wg_bounds.0, wg_bounds.1),
                route,
                triggered_wfs: 0,
                expected_wfs: if route.tracked() {
                    wf_regions(&grid, wg_bounds).count()
                } else {
                    0
                },
                dma_fired: false,
                feed_built: false,
            }
        })
        .collect();

    // Extra delay applied to incoming announcements when stagger is
    // disabled: the ring pipeline depth that fine-grained overlap can
    // no longer hide (see DESIGN.md).
    let no_stagger_delay: Cycle = if opts.stagger {
        0
    } else {
        let avg_chunk = chunks.iter().map(|c| c.bytes).sum::<Bytes>() / n as u64;
        (n as u64).saturating_sub(2)
            // t3-lint: allow(float-cycles) -- pipeline-depth penalty uses the Link's own ceil rounding; pinned by no-stagger ablation tests
            * ((avg_chunk as f64 / sys.link.bytes_per_cycle()).ceil() as Cycle
                + sys.link.latency_cycles())
    };

    let mut mc = MemoryController::new(&sys.mem, opts.policy.build(sys));
    mc.reset_occupancy_window();
    let mut run = RingRs {
        grid: &grid,
        update_cost: opts.substrate.update_cost_multiplier(&sys.mem),
        no_stagger_delay,
        bounds,
        chunks,
        mc,
        llc: Llc::new(&sys.mem),
        gemm: GemmEngine::new(&sys.gpu, grid.clone()),
        dma: DmaEngine::new(&sys.link),
        tracker: Tracker::new(TrackerConfig::paper(grid.wf_tile_elems())),
        ts: opts.timeseries_bucket.map(TimeSeries::new),
        pending: Vec::new(),
        feed: Feed::default(),
        warmup: Mirror::default(),
        remote_seq: 0,
        first_stage_done: false,
        gemm_done: false,
        dma_transfers: 0,
        ins,
    };
    let now = drive(&mut run, opts.mode, 0, None);

    let RingRs {
        mc,
        llc,
        dma,
        tracker,
        ts,
        dma_transfers,
        mut ins,
        ..
    } = run;
    if let Some(ins) = reborrow(&mut ins) {
        ins.record(
            now,
            Event::LlcSample {
                hits: llc.hits(),
                misses: llc.misses(),
            },
        );
        if let Some(m) = ins.metrics.as_mut() {
            m.set("run.cycles", now);
            m.set("dma.transfers", dma_transfers);
            m.set("tracker.peak_entries", tracker.peak_entries() as u64);
            m.set("mc.stream_switches", mc.stream_switches());
            m.set("llc.hits", llc.hits());
            m.set("llc.misses", llc.misses());
            m.record_traffic(mc.stats());
        }
    }

    FusedRunResult {
        cycles: now,
        stats: mc.stats().clone(),
        timeseries: ts,
        dma_transfers,
        peak_tracker_entries: tracker.peak_entries(),
        link_bytes_sent: dma.bytes_sent(),
    }
}

/// The mirrored ring-RS GPU: its components plus the fused-schedule
/// bookkeeping that couples them.
struct RingRs<'a> {
    grid: &'a GemmGrid,
    update_cost: f64,
    no_stagger_delay: Cycle,
    bounds: Vec<(u64, u64)>,
    chunks: Vec<ChunkState>,
    mc: MemoryController,
    llc: Llc,
    gemm: GemmEngine,
    dma: DmaEngine,
    tracker: Tracker,
    ts: Option<TimeSeries>,
    pending: Vec<PendingIncoming>,
    feed: Feed,
    /// Mirrors the warm-up chunk's remote stores onto position 1.
    warmup: Mirror,
    remote_seq: u64,
    first_stage_done: bool,
    gemm_done: bool,
    dma_transfers: u64,
    ins: Option<&'a mut Instruments>,
}

impl Clocked for RingRs<'_> {
    fn step(&mut self, now: Cycle) {
        self.mc
            .step_traced(now, self.ts.as_mut(), reborrow(&mut self.ins));

        // 1. Attribute newly serviced incoming updates to the tracker.
        let serviced = self.mc.stats().bytes(TrafficClass::RsUpdate);
        let (chunks, ins) = (&mut self.chunks, &mut self.ins);
        self.feed.attribute(serviced, &mut self.tracker, |e| {
            chunks[e.position].triggered_wfs += 1;
            if let Some(ins) = reborrow(ins) {
                if ins.tracer.as_ref().is_some_and(|t| t.fine()) {
                    ins.record(
                        now,
                        Event::TrackerUpdate {
                            wg: e.region.wf.wg,
                            wf: e.region.wf.wf as u64,
                            addr: e.region.addr,
                        },
                    );
                }
                ins.add("tracker.wf_completions", 1);
            }
        });

        // 2. Release due incoming announcements into the comm stream.
        for p in take_due(&mut self.pending, now) {
            let chunk = &mut self.chunks[p.position];
            if !chunk.feed_built {
                let (bounds, updates) =
                    (self.bounds[p.position], chunk.route.updates_per_element());
                self.feed.push_chunk(self.grid, bounds, p.position, updates);
                chunk.feed_built = true;
            }
            self.mc.enqueue(
                StreamId::Comm,
                TrafficClass::RsUpdate,
                p.bytes,
                self.update_cost,
            );
        }

        // 3. Advance the producer GEMM.
        match self.gemm.step(now, &mut self.mc, &mut self.llc) {
            GemmEvent::Idle => {}
            GemmEvent::Finished => self.gemm_done = true,
            GemmEvent::StageStoresIssued {
                stage,
                wg_start,
                wg_end,
                bytes,
                started,
                compute_cycles,
            } => {
                if let Some(ins) = reborrow(&mut self.ins) {
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
                    ins.observe("gemm.stage_cycles", now - started);
                }
                if !self.first_stage_done {
                    // T3-MCA's first-stage memory-intensity probe
                    // (Section 4.5): the first stage ran before any
                    // communication traffic existed.
                    self.mc
                        .observe_compute_intensity(self.mc.avg_occupancy_fraction());
                    self.first_stage_done = true;
                }
                // Split the stage's WGs across chunk boundaries.
                let mut wg = wg_start;
                while wg < wg_end {
                    let pos = position_of_wg(&self.bounds, wg);
                    let upper = self.bounds[pos].1.min(wg_end);
                    let bytes = self.grid.wg_range_output_bytes(wg, upper);
                    let chunk = &mut self.chunks[pos];
                    match chunk.route {
                        ChunkRoute::RemoteUpdate { .. } => {
                            // Warm-up chunk: stores go straight onto the
                            // link; the mirrored incoming copy for the
                            // next chunk arrives at delivery time.
                            self.dma.send_direct_traced(
                                now,
                                TAG_REMOTE + self.remote_seq,
                                bytes,
                                reborrow(&mut self.ins),
                            );
                            self.remote_seq += 1;
                        }
                        ChunkRoute::LocalOnly { .. } | ChunkRoute::LocalThenDmaUpdate { .. } => {
                            // Uncached NMC update stores on the compute
                            // stream; tracked at MCQ enqueue.
                            self.mc.enqueue(
                                StreamId::Compute,
                                TrafficClass::GemmWrite,
                                bytes,
                                self.update_cost,
                            );
                            let updates = chunk.route.updates_per_element();
                            chunk.triggered_wfs +=
                                record_local(self.grid, &mut self.tracker, (wg, upper), updates);
                        }
                        _ => unreachable!("ring-RS uses no other routes"),
                    }
                    wg = upper;
                }
            }
        }

        // 4. DMA engine: our deliveries mirror incoming traffic.
        for delivery in self
            .dma
            .step_traced(now, &mut self.mc, reborrow(&mut self.ins))
        {
            let (position, bytes) = if delivery.tag >= TAG_REMOTE {
                // A warm-up portion reached the neighbour; announce the
                // proportional mirrored portion of our position-1 chunk.
                let (src, dst) = (self.chunks[0].bytes, self.chunks[1].bytes);
                (1, self.warmup.advance(delivery.bytes, src, dst))
            } else {
                // Mirrored: our chunk at position `tag` reaching the
                // neighbour IS the incoming copy for position `tag + 1`
                // arriving here (each DMA'd chunk is delivered once).
                if let Some(ins) = reborrow(&mut self.ins) {
                    ins.record(
                        now,
                        Event::ChunkRecv {
                            chunk: delivery.tag + 1,
                            bytes: delivery.bytes,
                        },
                    );
                    ins.add("chunks.received", 1);
                }
                let next = delivery.tag as usize + 1;
                assert!(next < self.chunks.len(), "owned chunk is never DMA'd");
                (next, self.chunks[next].bytes)
            };
            if bytes > 0 {
                self.pending.push(PendingIncoming {
                    at: now + self.no_stagger_delay,
                    position,
                    bytes,
                });
            }
        }

        // 5. Fire DMAs for completed steady-state chunks.
        for (pos, chunk) in self.chunks.iter_mut().enumerate() {
            if chunk.route.uses_dma()
                && !chunk.dma_fired
                && chunk.triggered_wfs == chunk.expected_wfs
            {
                chunk.dma_fired = true;
                self.dma_transfers += 1;
                if let Some(ins) = reborrow(&mut self.ins) {
                    ins.record(
                        now,
                        Event::DmaTriggerFire {
                            chunk: pos as u64,
                            bytes: chunk.bytes,
                        },
                    );
                    ins.add("dma.triggers_fired", 1);
                }
                self.dma.trigger(DmaCommand {
                    id: pos as u64,
                    bytes: chunk.bytes,
                    read_class: TrafficClass::RsRead,
                });
            }
        }
    }

    /// A busy controller pins the next cycle; otherwise the earliest
    /// component event. A tracker fire can only follow a controller
    /// service or a GEMM store, both of which are events themselves, so
    /// leaping to the earliest component event never skips a fire.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.mc.next_event(now).or_else(|| {
            [
                self.gemm.next_event(now, &self.mc),
                self.dma.next_event(now, &self.mc),
                next_due(&self.pending, now),
            ]
            .into_iter()
            .flatten()
            .min()
        })
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.mc.skip_idle(from, to, reborrow(&mut self.ins));
    }

    /// Producer done, every tracked chunk complete, all queues and
    /// wires drained.
    fn is_done(&self, now: Cycle) -> bool {
        self.gemm_done
            && self
                .chunks
                .iter()
                .all(|c| !c.route.tracked() || c.triggered_wfs == c.expected_wfs)
            && self.pending.is_empty()
            && self.feed.is_empty()
            && self.dma.is_idle(now)
            && self.mc.is_idle()
    }
}

/// Runs the fused GEMM + *direct* reduce-scatter of Section 7.1 on a
/// fully-connected topology: every non-owned chunk leaves as
/// fine-grained remote updates on a dedicated link while the GEMM
/// stores it, and the owned chunk is completed in memory by the
/// mirrored incoming updates of the `N-1` peers. The collective has
/// **zero** dedicated DRAM accesses — no DMA reads, no staging writes.
///
/// # Panics
///
/// Panics if `opts.substrate` cannot reduce in memory or the
/// simulation fails to converge.
pub fn run_fused_gemm_direct_rs(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> FusedRunResult {
    assert!(
        opts.substrate.reduces_in_memory(),
        "fused T3 requires an in-memory reduction substrate"
    );
    // Simulated device 0 owns chunk 0; all other chunks are
    // remote-mapped to their owners over dedicated links.
    let owned_updates = OutputConfig::direct_reduce_scatter(sys.num_gpus, 0)
        .route(0)
        .updates_per_element();
    let update_cost = opts.substrate.update_cost_multiplier(&sys.mem);
    run_direct(sys, grid, opts, Some(owned_updates), update_cost)
}

/// Runs a fused GEMM + all-to-all (Sections 7.1/7.2, expert
/// parallelism): chunk `j` of the output is remote-*stored* to device
/// `j` as the GEMM produces it (no local copy, no reduction), and the
/// mirrored incoming chunks land in this device's slots as plain
/// writes. Like direct-RS, the collective itself performs no dedicated
/// DRAM reads.
///
/// # Panics
///
/// Panics if the simulation fails to converge.
pub fn run_fused_gemm_all_to_all(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> FusedRunResult {
    run_direct(sys, grid, opts, None, 1.0)
}

/// The direct-RS / all-to-all engine. `owned_updates` is the owned
/// chunk's reduction threshold (`None` for all-to-all: the owned slot
/// and the incoming chunks are plain, untracked writes); `cost` is the
/// service-cost multiplier of both the local and the incoming stores.
fn run_direct(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    owned_updates: Option<u32>,
    cost: f64,
) -> FusedRunResult {
    let n = sys.num_gpus;
    let bounds: Vec<(u64, u64)> = (0..n)
        .map(|p| grid.chunk_wg_bounds(n as u64, p as u64))
        .collect();
    // Incoming mirror: each peer streams updates for our owned chunk
    // as it computes the corresponding region; by homogeneity, peer p
    // produces our chunk's updates at the same time we produce chunk
    // p's stores. Deliveries (after link latency) enter the comm
    // stream; the tracker's feed consumes them in WF order, N-1 full
    // passes over the owned chunk.
    let mut feed = Feed::default();
    if let Some(updates) = owned_updates {
        for _pass in 0..(n - 1) {
            feed.push_chunk(&grid, bounds[0], 0, updates);
        }
    }
    let mut mc = MemoryController::new(&sys.mem, opts.policy.build(sys));
    mc.reset_occupancy_window();
    let mut run = DirectFused {
        grid: &grid,
        owned_bytes: grid.wg_range_output_bytes(bounds[0].0, bounds[0].1),
        expected_wfs: if owned_updates.is_some() {
            wf_regions(&grid, bounds[0]).count()
        } else {
            0
        },
        bounds,
        owned_updates,
        cost,
        mc,
        llc: Llc::new(&sys.mem),
        gemm: GemmEngine::new(&sys.gpu, grid.clone()),
        // One outbound link per peer on the fully-connected topology;
        // all carry fine-grained remote stores.
        links: (0..n - 1).map(|_| Link::new(&sys.link)).collect(),
        tracker: Tracker::new(TrackerConfig::paper(grid.wf_tile_elems())),
        ts: opts.timeseries_bucket.map(TimeSeries::new),
        feed,
        pending: Vec::new(),
        mirrors: vec![Mirror::default(); n],
        triggered_wfs: 0,
        first_stage_done: false,
        gemm_done: false,
    };
    let now = drive(&mut run, opts.mode, 0, None);
    FusedRunResult {
        cycles: now,
        stats: run.mc.stats().clone(),
        timeseries: run.ts,
        dma_transfers: 0,
        peak_tracker_entries: run.tracker.peak_entries(),
        link_bytes_sent: run.links.iter().map(|l| l.total_sent()).sum(),
    }
}

/// The mirrored GPU of the direct-RS and all-to-all engines.
struct DirectFused<'a> {
    grid: &'a GemmGrid,
    bounds: Vec<(u64, u64)>,
    owned_bytes: Bytes,
    owned_updates: Option<u32>,
    cost: f64,
    mc: MemoryController,
    llc: Llc,
    gemm: GemmEngine,
    links: Vec<Link>,
    tracker: Tracker,
    ts: Option<TimeSeries>,
    feed: Feed,
    pending: Vec<PendingIncoming>,
    /// Per peer chunk: its remote stores mirrored onto our owned chunk.
    mirrors: Vec<Mirror>,
    triggered_wfs: usize,
    expected_wfs: usize,
    first_stage_done: bool,
    gemm_done: bool,
}

impl Clocked for DirectFused<'_> {
    fn step(&mut self, now: Cycle) {
        self.mc.step(now, self.ts.as_mut());

        // Attribute serviced incoming updates to the tracker.
        let serviced = self.mc.stats().bytes(TrafficClass::RsUpdate);
        let triggered = &mut self.triggered_wfs;
        self.feed
            .attribute(serviced, &mut self.tracker, |_| *triggered += 1);
        // Release due incoming announcements: reductions into the owned
        // chunk, or plain writes into the all-to-all receive slots.
        let incoming_class = if self.owned_updates.is_some() {
            TrafficClass::RsUpdate
        } else {
            TrafficClass::AgWrite
        };
        for p in take_due(&mut self.pending, now) {
            self.mc
                .enqueue(StreamId::Comm, incoming_class, p.bytes, self.cost);
        }

        match self.gemm.step(now, &mut self.mc, &mut self.llc) {
            GemmEvent::Idle => {}
            GemmEvent::Finished => self.gemm_done = true,
            GemmEvent::StageStoresIssued {
                wg_start, wg_end, ..
            } => {
                if !self.first_stage_done {
                    self.mc
                        .observe_compute_intensity(self.mc.avg_occupancy_fraction());
                    self.first_stage_done = true;
                }
                let mut wg = wg_start;
                while wg < wg_end {
                    // Split by chunk: chunk 0 is ours (local stores);
                    // everything else leaves on a link.
                    let chunk = position_of_wg(&self.bounds, wg);
                    let (ca, cb) = self.bounds[chunk];
                    let upper = cb.min(wg_end);
                    let bytes = self.grid.wg_range_output_bytes(wg, upper);
                    if chunk == 0 {
                        self.mc.enqueue(
                            StreamId::Compute,
                            TrafficClass::GemmWrite,
                            bytes,
                            self.cost,
                        );
                        if let Some(updates) = self.owned_updates {
                            self.triggered_wfs +=
                                record_local(self.grid, &mut self.tracker, (wg, upper), updates);
                        }
                    } else {
                        // Remote stores on the dedicated link to the
                        // chunk's owner (each peer has its own wire).
                        let idx = (chunk - 1) % self.links.len();
                        let arrival = self.links[idx].send(now, chunk as u64, bytes);
                        // Mirror: a peer's remote stores for our owned
                        // chunk arrive with the same timing.
                        let chunk_total = self.grid.wg_range_output_bytes(ca, cb);
                        let mirrored =
                            self.mirrors[chunk].advance(bytes, chunk_total, self.owned_bytes);
                        if mirrored > 0 {
                            self.pending.push(PendingIncoming {
                                at: arrival,
                                position: 0,
                                bytes: mirrored,
                            });
                        }
                    }
                    wg = upper;
                }
            }
        }

        // Drain link deliveries (arrival times were captured at send).
        for l in &mut self.links {
            let _ = l.deliveries_until(now);
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.mc.next_event(now).or_else(|| {
            let links = self.links.iter().filter_map(|l| l.next_event(now)).min();
            [
                self.gemm.next_event(now, &self.mc),
                links,
                next_due(&self.pending, now),
            ]
            .into_iter()
            .flatten()
            .min()
        })
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.mc.skip_idle(from, to, None);
    }

    fn is_done(&self, now: Cycle) -> bool {
        self.gemm_done
            && self.triggered_wfs == self.expected_wfs
            && self.pending.is_empty()
            && self.links.iter().all(|l| l.is_idle(now))
            && self.mc.is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_gpu::collective::{CollectiveKind, RingCollective};
    use t3_gpu::engine::{run_gemm_isolated, WritePolicy};
    use t3_gpu::gemm::GemmShape;

    fn sys() -> SystemConfig {
        SystemConfig::paper_default()
    }

    /// A mid-size sliced GEMM: more stages than chunks, several WGs per
    /// chunk, still fast enough for debug-mode tests.
    fn test_grid(sys: &SystemConfig) -> GemmGrid {
        GemmGrid::new(&sys.gpu, GemmShape::new(4096, 4096, 512))
    }

    fn fused(sys: &SystemConfig, opts: &FusedOptions) -> FusedRunResult {
        run_fused_gemm_rs(sys, test_grid(sys), opts)
    }

    #[test]
    fn fused_run_completes_and_counts_dmas() {
        let s = sys();
        let r = fused(&s, &FusedOptions::default());
        assert_eq!(r.dma_transfers, (s.num_gpus - 2) as u64);
        assert!(r.cycles > 0);
        assert!(r.peak_tracker_entries > 0);
    }

    #[test]
    fn fused_traffic_accounting_matches_schedule() {
        let s = sys();
        let grid = test_grid(&s);
        let out = grid.shape().output_bytes();
        let n = s.num_gpus as u64;
        let r = fused(&s, &FusedOptions::default());
        let chunk = out / n;
        let near = |got: Bytes, want: Bytes, what: &str| {
            let tol = 64 * 1024;
            assert!(
                got + tol > want && got < want + tol,
                "{what}: got {got}, want ~{want}"
            );
        };
        // Local GEMM writes: all chunks except the warm-up one.
        near(
            r.stats.bytes(TrafficClass::GemmWrite),
            out - chunk,
            "GEMM writes",
        );
        // Incoming updates: chunks at positions 1..N.
        near(
            r.stats.bytes(TrafficClass::RsUpdate),
            out - chunk,
            "updates",
        );
        // DMA source reads: the N-2 steady-state chunks.
        near(
            r.stats.bytes(TrafficClass::RsRead),
            out - 2 * chunk,
            "DMA reads",
        );
        // Link carried the warm-up chunk + N-2 DMA chunks.
        near(r.link_bytes_sent, out - chunk, "link bytes");
    }

    #[test]
    fn fused_beats_sequential() {
        let s = sys();
        let grid = test_grid(&s);
        let gemm = run_gemm_isolated(&s, grid.clone(), WritePolicy::CachedLocal);
        let rs = RingCollective::baseline(
            CollectiveKind::ReduceScatter,
            grid.shape().output_bytes(),
            &s,
        )
        .simulate(&s);
        let sequential = gemm.cycles + rs.cycles;
        let r = fused(&s, &FusedOptions::default());
        assert!(
            r.cycles < sequential,
            "fused {} must beat sequential {}",
            r.cycles,
            sequential
        );
    }

    #[test]
    fn fused_cannot_beat_the_gemm_itself() {
        let s = sys();
        let grid = test_grid(&s);
        let gemm = run_gemm_isolated(&s, grid.clone(), WritePolicy::BypassLocal);
        let r = fused(&s, &FusedOptions::default());
        assert!(
            r.cycles as f64 > gemm.cycles as f64 * 0.95,
            "fused {} impossibly fast vs GEMM-only {}",
            r.cycles,
            gemm.cycles
        );
    }

    #[test]
    fn mca_is_at_least_as_good_as_round_robin() {
        let s = sys();
        let rr = fused(
            &s,
            &FusedOptions {
                policy: PolicyChoice::RoundRobin,
                ..FusedOptions::default()
            },
        );
        let mca = fused(
            &s,
            &FusedOptions {
                policy: PolicyChoice::McaDynamic,
                ..FusedOptions::default()
            },
        );
        assert!(
            mca.cycles as f64 <= rr.cycles as f64 * 1.02,
            "MCA {} should not lose to round-robin {}",
            mca.cycles,
            rr.cycles
        );
    }

    #[test]
    fn no_stagger_is_slower() {
        let s = sys();
        let st = fused(&s, &FusedOptions::default());
        let no = fused(
            &s,
            &FusedOptions {
                stagger: false,
                ..FusedOptions::default()
            },
        );
        assert!(
            no.cycles > st.cycles,
            "no-stagger {} must exceed staggered {}",
            no.cycles,
            st.cycles
        );
    }

    #[test]
    fn timeseries_records_overlapped_traffic() {
        let s = sys();
        let r = fused(
            &s,
            &FusedOptions {
                timeseries_bucket: Some(4096),
                ..FusedOptions::default()
            },
        );
        let ts = r.timeseries.expect("requested");
        assert_eq!(
            ts.total(TrafficClass::RsUpdate),
            r.stats.bytes(TrafficClass::RsUpdate)
        );
        // Somewhere, GEMM and RS traffic must share a bucket — that is
        // the whole point of fine-grained overlap.
        let overlapped = ts.rows().any(|(_, b)| {
            b[TrafficClass::GemmRead.index()] > 0 && b[TrafficClass::RsUpdate.index()] > 0
        });
        assert!(overlapped, "no bucket shows overlapped traffic");
    }

    #[test]
    fn atomics_substrate_is_no_faster_than_nmc() {
        let s = sys();
        let nmc = fused(&s, &FusedOptions::default());
        let atomics = fused(
            &s,
            &FusedOptions {
                substrate: ReductionSubstrate::SystemAtomics,
                ..FusedOptions::default()
            },
        );
        assert!(atomics.cycles >= nmc.cycles);
    }

    #[test]
    fn two_gpu_ring_works_without_dma() {
        let mut s = sys();
        s.num_gpus = 2;
        let r = fused(&s, &FusedOptions::default());
        assert_eq!(r.dma_transfers, 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn direct_rs_fusion_eliminates_collective_memory_traffic() {
        let s = sys();
        let grid = test_grid(&s);
        let r = run_fused_gemm_direct_rs(&s, grid.clone(), &FusedOptions::default());
        // Section 7.1: no DMA source reads, no staging writes — the
        // only RS traffic is the incoming updates for the owned chunk.
        assert_eq!(r.stats.bytes(TrafficClass::RsRead), 0);
        assert_eq!(r.dma_transfers, 0);
        let n = s.num_gpus as u64;
        let chunk = grid.shape().output_bytes() / n;
        let upd = r.stats.bytes(TrafficClass::RsUpdate);
        let want = chunk * (n - 1);
        assert!(
            upd + 65536 > want && upd < want + 65536,
            "incoming updates {upd} vs expected {want}"
        );
        // Local writes: only the owned chunk.
        let w = r.stats.bytes(TrafficClass::GemmWrite);
        assert!(w + 65536 > chunk && w < chunk + 65536, "local writes {w}");
    }

    #[test]
    fn direct_rs_beats_ring_rs_fusion() {
        // With dedicated links and no DMA chain, direct-RS should not
        // lose to the ring schedule.
        let s = sys();
        let grid = test_grid(&s);
        let ring = run_fused_gemm_rs(&s, grid.clone(), &FusedOptions::default());
        let direct = run_fused_gemm_direct_rs(&s, grid, &FusedOptions::default());
        assert!(
            direct.cycles <= ring.cycles,
            "direct {} vs ring {}",
            direct.cycles,
            ring.cycles
        );
    }

    #[test]
    fn all_to_all_fusion_overlaps_exchange() {
        let s = sys();
        let grid = test_grid(&s);
        let fused = run_fused_gemm_all_to_all(&s, grid.clone(), &FusedOptions::default());
        // Sequential: GEMM + an all-to-all exchanging (N-1)/N of the
        // output each way (the exchange is link-bound and pipelined
        // across dedicated links, so one chunk serialisation + writes).
        let gemm = t3_gpu::engine::run_gemm_isolated(
            &s,
            grid.clone(),
            t3_gpu::engine::WritePolicy::BypassLocal,
        );
        let chunk = grid.shape().output_bytes() / s.num_gpus as u64;
        let exchange =
            (chunk as f64 / s.link.bytes_per_cycle()).ceil() as u64 + s.link.latency_cycles();
        assert!(
            fused.cycles < gemm.cycles + exchange * 2,
            "fused {} should hide most of the exchange ({} + {})",
            fused.cycles,
            gemm.cycles,
            exchange
        );
        // Incoming slots: N-1 chunks of plain writes.
        let incoming = fused.stats.bytes(TrafficClass::AgWrite);
        let want = chunk * (s.num_gpus as u64 - 1);
        assert!(incoming + 65536 > want && incoming < want + 65536);
        assert_eq!(fused.stats.bytes(TrafficClass::RsRead), 0);
    }

    #[test]
    fn direct_engines_fast_forward_is_byte_identical_to_stepped() {
        for n in [4, 8, 16] {
            let s = sys().with_num_gpus(n);
            for shape in [
                GemmShape::new(512, 1024, 256),
                GemmShape::new(1024, 768, 512),
                GemmShape::new(768, 1536, 128),
            ] {
                let grid = GemmGrid::new(&s.gpu, shape);
                for policy in [PolicyChoice::RoundRobin, PolicyChoice::McaDynamic] {
                    let opts = |mode| FusedOptions {
                        policy,
                        mode,
                        timeseries_bucket: Some(2048),
                        ..FusedOptions::default()
                    };
                    let (stepped, fast) = (opts(SimMode::Stepped), opts(SimMode::FastForward));
                    let case = format!("N={n} {shape:?} {policy:?}");
                    assert_eq!(
                        format!("{:?}", run_fused_gemm_direct_rs(&s, grid.clone(), &stepped)),
                        format!("{:?}", run_fused_gemm_direct_rs(&s, grid.clone(), &fast)),
                        "direct RS diverged: {case}"
                    );
                    assert_eq!(
                        format!(
                            "{:?}",
                            run_fused_gemm_all_to_all(&s, grid.clone(), &stepped)
                        ),
                        format!("{:?}", run_fused_gemm_all_to_all(&s, grid.clone(), &fast)),
                        "all-to-all diverged: {case}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "in-memory reduction substrate")]
    fn cu_substrate_rejected() {
        let s = sys();
        let _ = fused(
            &s,
            &FusedOptions {
                substrate: ReductionSubstrate::ComputeUnits,
                ..FusedOptions::default()
            },
        );
    }
}
