//! The per-device core of the fused GEMM + reduce-scatter engines.
//!
//! T3 adds one piece of hardware per GPU: the Tracker counts the
//! updates landing in each wavefront (WF) output region and fires the
//! pre-programmed DMA once every region of a chunk is complete
//! (Section 4.2). [`FusedDevice`] is that GPU — GEMM engine, memory
//! controller, LLC, Tracker and the chunk bookkeeping that couples them
//! — written once for every engine: the mirrored ring and direct
//! engines in [`crate::engine`] and each GPU of the explicit N-GPU
//! engine in [`crate::multigpu`]. The engines differ only in how bytes
//! leave a device (a mirrored link, or the shared fabric) and how
//! incoming bytes arrive ([`FusedDevice::receive`]); each calls the
//! pieces below in its own per-cycle order.

use std::collections::VecDeque;

use crate::addrmap::ChunkRoute;
use crate::engine::PolicyChoice;
use crate::tracker::{Tracker, TrackerConfig, WfId};
use t3_gpu::engine::{GemmEngine, GemmEvent};
use t3_gpu::gemm::GemmGrid;
use t3_mem::controller::{MemoryController, StreamId};
use t3_mem::llc::Llc;
use t3_net::dma::DmaCommand;
use t3_sim::config::SystemConfig;
use t3_sim::stats::TrafficClass;
use t3_sim::{min_event, Bytes, Cycle};
use t3_trace::{reborrow, Event, Instruments};

/// One non-empty wavefront output region: the unit the [`Tracker`]
/// counts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WfRegion {
    pub(crate) wf: WfId,
    pub(crate) addr: u64,
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

/// The index of the `[start, end)` WG range in `bounds` holding `wg`.
pub(crate) fn position_of_wg(bounds: impl IntoIterator<Item = (u64, u64)>, wg: u64) -> usize {
    bounds
        .into_iter()
        .position(|(w0, w1)| wg >= w0 && wg < w1)
        .expect("wg outside chunk space")
}

/// A wavefront region in the incoming-update attribution FIFO.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FeedEntry {
    pub(crate) position: usize,
    pub(crate) region: WfRegion,
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

/// Per-position bookkeeping: one chunk of the output in the device's
/// execution order.
#[derive(Debug)]
pub(crate) struct ChunkState {
    /// WG bounds of this position in the device's execution order.
    pub(crate) wg_bounds: (u64, u64),
    /// WG bounds of the output tiles it computes (the collective
    /// chunk's); local WG offsets map 1:1 onto this range.
    tiles: (u64, u64),
    /// Collective chunk id: the tag of its wire messages and trace
    /// events.
    pub(crate) global_chunk: usize,
    pub(crate) bytes: Bytes,
    route: ChunkRoute,
    /// Destination GPU of outgoing traffic (`None` for the owned chunk).
    pub(crate) dest: Option<usize>,
    /// Full passes of incoming updates this position expects.
    incoming_passes: usize,
    /// Per-element Tracker threshold; `None` when untracked.
    updates: Option<u32>,
    triggered_wfs: usize,
    expected_wfs: usize,
    dma_fired: bool,
    feed_built: bool,
}

impl ChunkState {
    /// The position computing collective chunk `global_chunk` of an
    /// `n`-way split, starting at local WG `start` and expecting
    /// `incoming_passes` full passes of peer updates. The Tracker counts
    /// it when `tracked` and its route stores locally; its destination
    /// is the route's.
    pub(crate) fn new(
        grid: &GemmGrid,
        n: usize,
        start: u64,
        global_chunk: usize,
        route: ChunkRoute,
        tracked: bool,
        incoming_passes: usize,
    ) -> Self {
        let tiles = grid.chunk_wg_bounds(n as u64, global_chunk as u64);
        let updates = (tracked && route.tracked()).then(|| route.updates_per_element());
        ChunkState {
            wg_bounds: (start, start + tiles.1 - tiles.0),
            tiles,
            global_chunk,
            bytes: grid.wg_range_output_bytes(tiles.0, tiles.1),
            route,
            dest: route.destination(),
            incoming_passes,
            updates,
            triggered_wfs: 0,
            expected_wfs: updates.map_or(0, |_| wf_regions(grid, tiles).count()),
            dma_fired: false,
            feed_built: false,
        }
    }
}

/// One GPU of a fused GEMM-RS run.
pub(crate) struct FusedDevice {
    pub(crate) mc: MemoryController,
    llc: Llc,
    gemm: GemmEngine,
    pub(crate) tracker: Tracker,
    feed: Feed,
    pub(crate) chunks: Vec<ChunkState>,
    /// Service-cost multiplier of local and incoming stores.
    cost: f64,
    first_stage_done: bool,
    gemm_done: bool,
}

impl FusedDevice {
    pub(crate) fn new(
        sys: &SystemConfig,
        grid: &GemmGrid,
        policy: PolicyChoice,
        cost: f64,
        chunks: Vec<ChunkState>,
    ) -> Self {
        FusedDevice {
            mc: MemoryController::new(&sys.mem, policy.build(sys)),
            llc: Llc::new(&sys.mem),
            gemm: GemmEngine::new(&sys.gpu, grid.clone()),
            tracker: Tracker::new(TrackerConfig::paper(grid.wf_tile_elems())),
            feed: Feed::default(),
            chunks,
            cost,
            first_stage_done: false,
            gemm_done: false,
        }
    }

    /// Incoming `bytes` for position `pos` enter the comm stream: update
    /// reductions into a tracked chunk (whose WF regions join the feed
    /// on its first arrival), plain writes otherwise.
    pub(crate) fn receive(&mut self, pos: usize, bytes: Bytes) {
        let chunk = &mut self.chunks[pos];
        if !chunk.feed_built {
            if let Some(updates) = chunk.updates {
                let grid = self.gemm.grid();
                for _ in 0..chunk.incoming_passes {
                    self.feed.push_chunk(grid, chunk.tiles, pos, updates);
                }
            }
            chunk.feed_built = true;
        }
        let class = if chunk.updates.is_some() {
            TrafficClass::RsUpdate
        } else {
            TrafficClass::AgWrite
        };
        self.mc.enqueue(StreamId::Comm, class, bytes, self.cost);
    }

    /// Attributes newly serviced incoming updates to the tracker,
    /// calling `fired` for every WF region that completes.
    pub(crate) fn attribute(&mut self, mut fired: impl FnMut(&FeedEntry)) {
        let serviced = self.mc.stats().bytes(TrafficClass::RsUpdate);
        let chunks = &mut self.chunks;
        self.feed.attribute(serviced, &mut self.tracker, |e| {
            chunks[e.position].triggered_wfs += 1;
            fired(e);
        });
    }

    /// Advances the producer GEMM one cycle. When a stage issues its
    /// stores, records the stage, runs T3-MCA's first-stage probe and
    /// splits the stage's WGs across chunk boundaries: local pieces
    /// enter the compute stream as NMC stores (counted by the Tracker at
    /// enqueue, Section 4.2.1), remote pieces go to
    /// `send_remote(position, chunk, bytes, ins)`. Returns the stage's
    /// start cycle when one issued its stores.
    pub(crate) fn step_gemm(
        &mut self,
        now: Cycle,
        mut ins: Option<&mut Instruments>,
        mut send_remote: impl FnMut(usize, &ChunkState, Bytes, Option<&mut Instruments>),
    ) -> Option<Cycle> {
        let (wg_start, wg_end, started) = match self.gemm.step(now, &mut self.mc, &mut self.llc) {
            GemmEvent::Idle => return None,
            GemmEvent::Finished => {
                self.gemm_done = true;
                return None;
            }
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
                (wg_start, wg_end, started)
            }
        };
        if !self.first_stage_done {
            // T3-MCA's first-stage memory-intensity probe (Section
            // 4.5): the first stage ran before any communication
            // traffic existed.
            self.mc
                .observe_compute_intensity(self.mc.avg_occupancy_fraction());
            self.first_stage_done = true;
        }
        let grid = self.gemm.grid();
        let mut wg = wg_start;
        while wg < wg_end {
            let pos = position_of_wg(self.chunks.iter().map(|c| c.wg_bounds), wg);
            let chunk = &mut self.chunks[pos];
            let upper = chunk.wg_bounds.1.min(wg_end);
            let local0 = chunk.wg_bounds.0;
            let tiles = (
                chunk.tiles.0 + (wg - local0),
                chunk.tiles.0 + (upper - local0),
            );
            let bytes = grid.wg_range_output_bytes(tiles.0, tiles.1);
            if let ChunkRoute::RemoteUpdate { .. } | ChunkRoute::RemoteStore { .. } = chunk.route {
                send_remote(pos, chunk, bytes, reborrow(&mut ins));
            } else {
                self.mc
                    .enqueue(StreamId::Compute, TrafficClass::GemmWrite, bytes, self.cost);
                if let Some(updates) = chunk.updates {
                    chunk.triggered_wfs += record_local(grid, &mut self.tracker, tiles, updates);
                }
            }
            wg = upper;
        }
        Some(started)
    }

    /// Fires the pre-programmed DMA of every steady-state chunk whose WF
    /// regions are all complete, handing its command (tagged with the
    /// chunk's position) to `trigger`.
    pub(crate) fn fire_ready(
        &mut self,
        now: Cycle,
        mut ins: Option<&mut Instruments>,
        mut trigger: impl FnMut(DmaCommand),
    ) {
        for (pos, chunk) in self.chunks.iter_mut().enumerate() {
            if chunk.route.uses_dma()
                && !chunk.dma_fired
                && chunk.triggered_wfs == chunk.expected_wfs
            {
                chunk.dma_fired = true;
                if let Some(ins) = reborrow(&mut ins) {
                    ins.record(
                        now,
                        Event::DmaTriggerFire {
                            chunk: chunk.global_chunk as u64,
                            bytes: chunk.bytes,
                        },
                    );
                    ins.add("dma.triggers_fired", 1);
                }
                trigger(DmaCommand {
                    id: pos as u64,
                    bytes: chunk.bytes,
                    read_class: TrafficClass::RsRead,
                });
            }
        }
    }

    /// DMA transfers fired so far.
    pub(crate) fn dma_transfers(&self) -> u64 {
        self.chunks.iter().filter(|c| c.dma_fired).count() as u64
    }

    /// The next cycle after `now` at which this device or its engine's
    /// `edges` (egress and ingress components) change state. A busy
    /// controller pins `now + 1`, and then `edges` is not consulted.
    pub(crate) fn next_event(
        &self,
        now: Cycle,
        edges: impl FnOnce() -> Option<Cycle>,
    ) -> Option<Cycle> {
        self.mc
            .next_event(now)
            .or_else(|| min_event(self.gemm.next_event(now, &self.mc), edges()))
    }

    /// Producer done, every tracked chunk complete, every announced
    /// incoming update counted and the memory controller drained.
    pub(crate) fn is_done(&self) -> bool {
        self.gemm_done
            && self
                .chunks
                .iter()
                .all(|c| c.triggered_wfs == c.expected_wfs)
            && self.feed.is_empty()
            && self.mc.is_idle()
    }

    /// The end-of-run LLC sample and metrics snapshot of this device.
    pub(crate) fn snapshot(&self, ins: &mut Instruments, cycles: Cycle, dma_transfers: u64) {
        ins.record(
            cycles,
            Event::LlcSample {
                hits: self.llc.hits(),
                misses: self.llc.misses(),
            },
        );
        if let Some(m) = ins.metrics.as_mut() {
            m.set("run.cycles", cycles);
            m.set("dma.transfers", dma_transfers);
            m.set("tracker.peak_entries", self.tracker.peak_entries() as u64);
            m.set("llc.hits", self.llc.hits());
            m.set("llc.misses", self.llc.misses());
            m.record_traffic(self.mc.stats());
        }
    }
}
