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
//!   updates; the [`Tracker`](crate::tracker::Tracker) counts the
//!   local stores (at memory-controller enqueue, Section 4.2.1) and the
//!   incoming mirrored updates (as DRAM services them), and fires the
//!   pre-programmed DMA when every wavefront region of a chunk is
//!   complete;
//! * the DMA reads the partially-reduced chunk once and sends it; its
//!   delivery mirrors the arrival of the *next* chunk's incoming copy;
//! * the last chunk is the one this GPU owns: local + incoming updates
//!   complete it in memory, with no further transfer.
//!
//! All DRAM traffic flows through one
//! [`MemoryController`](t3_mem::controller::MemoryController) under the
//! configured arbitration policy — this is where T3 and T3-MCA differ
//! (Sections 4.5, 6.1.2, 6.1.3).
//!
//! Each engine is a [`Clocked`] composition, advanced by
//! [`t3_sim::drive`], of the fused-device core it shares with the
//! explicit N-GPU engine in [`crate::multigpu`] (GEMM, memory controller,
//! LLC, Tracker and chunk bookkeeping) plus its own egress and mirror:
//! a DMA engine and link for the ring, one link per peer for direct RS
//! and all-to-all.

use crate::addrmap::OutputConfig;
use crate::device::{ChunkState, FusedDevice};
use t3_gpu::gemm::GemmGrid;
use t3_mem::arbiter::{ArbitrationPolicy, ComputeFirstPolicy, McaPolicy, RoundRobinPolicy};
use t3_mem::nmc::ReductionSubstrate;
use t3_net::dma::DmaEngine;
use t3_net::link::Link;
use t3_net::ring::Ring;
use t3_sim::config::SystemConfig;
use t3_sim::stats::TrafficStats;
use t3_sim::timeseries::TimeSeries;
use t3_sim::{drive, min_event, Bytes, Clocked, Cycle, SimMode};
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
    // Every position after the warm-up one receives one mirrored pass.
    let chunks: Vec<ChunkState> = (0..n)
        .map(|p| {
            let start = grid.chunk_wg_bounds(n as u64, p as u64).0;
            let passes = usize::from(p >= 1);
            ChunkState::new(&grid, n, start, p, config.route(p), true, passes)
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

    let cost = opts.substrate.update_cost_multiplier(&sys.mem);
    let mut run = RingRs {
        dev: FusedDevice::new(sys, &grid, opts.policy, cost, chunks),
        no_stagger_delay,
        dma: DmaEngine::new(&sys.link),
        ts: opts.timeseries_bucket.map(TimeSeries::new),
        pending: Vec::new(),
        warmup: Mirror::default(),
        remote_seq: 0,
        ins,
    };
    let now = drive(&mut run, opts.mode, 0, None);

    let RingRs {
        dev, dma, ts, ins, ..
    } = run;
    let dma_transfers = dev.dma_transfers();
    if let Some(ins) = ins {
        dev.snapshot(ins, now, dma_transfers);
        if let Some(m) = ins.metrics.as_mut() {
            m.set("mc.stream_switches", dev.mc.stream_switches());
        }
    }

    FusedRunResult {
        cycles: now,
        stats: dev.mc.stats().clone(),
        timeseries: ts,
        dma_transfers,
        peak_tracker_entries: dev.tracker.peak_entries(),
        link_bytes_sent: dma.bytes_sent(),
    }
}

/// The mirrored ring-RS GPU: the fused device, its DMA engine and the
/// mirror that turns its own deliveries into its incoming traffic.
struct RingRs<'a> {
    dev: FusedDevice,
    no_stagger_delay: Cycle,
    dma: DmaEngine,
    ts: Option<TimeSeries>,
    pending: Vec<PendingIncoming>,
    /// Mirrors the warm-up chunk's remote stores onto position 1.
    warmup: Mirror,
    remote_seq: u64,
    ins: Option<&'a mut Instruments>,
}

impl Clocked for RingRs<'_> {
    fn step(&mut self, now: Cycle) {
        self.dev
            .mc
            .step_traced(now, self.ts.as_mut(), reborrow(&mut self.ins));

        // 1. Attribute newly serviced incoming updates to the tracker.
        let ins = &mut self.ins;
        self.dev.attribute(|e| {
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
            self.dev.receive(p.position, p.bytes);
        }

        // 3. Advance the producer GEMM. Warm-up stores go straight onto
        // the link; the mirrored incoming copy for the next chunk
        // arrives at delivery time.
        let (dma, seq) = (&mut self.dma, &mut self.remote_seq);
        let stage = self
            .dev
            .step_gemm(now, reborrow(&mut self.ins), |_, _, bytes, ins| {
                dma.send_direct_traced(now, TAG_REMOTE + *seq, bytes, ins);
                *seq += 1;
            });
        if let (Some(started), Some(ins)) = (stage, reborrow(&mut self.ins)) {
            ins.observe("gemm.stage_cycles", now - started);
        }

        // 4. DMA engine: our deliveries mirror incoming traffic.
        for delivery in self
            .dma
            .step_traced(now, &mut self.dev.mc, reborrow(&mut self.ins))
        {
            let chunks = &self.dev.chunks;
            let (position, bytes) = if delivery.tag >= TAG_REMOTE {
                // A warm-up portion reached the neighbour; announce the
                // proportional mirrored portion of our position-1 chunk.
                let (src, dst) = (chunks[0].bytes, chunks[1].bytes);
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
                assert!(next < chunks.len(), "owned chunk is never DMA'd");
                (next, chunks[next].bytes)
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
        let dma = &mut self.dma;
        self.dev
            .fire_ready(now, reborrow(&mut self.ins), |cmd| dma.trigger(cmd));
    }

    /// A busy controller pins the next cycle; otherwise the earliest
    /// component event. A tracker fire can only follow a controller
    /// service or a GEMM store, both of which are events themselves, so
    /// leaping to the earliest component event never skips a fire.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.dev.next_event(now, || {
            min_event(
                self.dma.next_event(now, &self.dev.mc),
                next_due(&self.pending, now),
            )
        })
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.dev.mc.skip_idle(from, to, reborrow(&mut self.ins));
    }

    /// The device done, all announcements released and the DMA engine
    /// and its wire drained.
    fn is_done(&self, now: Cycle) -> bool {
        self.dev.is_done() && self.pending.is_empty() && self.dma.is_idle(now)
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
    let config = OutputConfig::direct_reduce_scatter(sys.num_gpus, 0);
    let update_cost = opts.substrate.update_cost_multiplier(&sys.mem);
    run_direct(sys, grid, opts, &config, true, update_cost)
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
    let config = OutputConfig::all_to_all(sys.num_gpus, 0);
    run_direct(sys, grid, opts, &config, false, 1.0)
}

/// The direct-RS / all-to-all engine for device 0 of `config`.
/// `tracked` says whether the Tracker counts the owned chunk (direct
/// RS) or its slot and the incoming chunks are plain, untracked writes
/// (all-to-all); `cost` is the service-cost multiplier of both the
/// local and the incoming stores.
fn run_direct(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    config: &OutputConfig,
    tracked: bool,
    cost: f64,
) -> FusedRunResult {
    let n = sys.num_gpus;
    // Incoming mirror: each peer streams updates for our owned chunk
    // as it computes the corresponding region; by homogeneity, peer p
    // produces our chunk's updates at the same time we produce chunk
    // p's stores. Deliveries (after link latency) enter the comm
    // stream; the tracker's feed consumes them in WF order, N-1 full
    // passes over the owned chunk.
    let chunks: Vec<ChunkState> = (0..n)
        .map(|p| {
            let start = grid.chunk_wg_bounds(n as u64, p as u64).0;
            let passes = if p == 0 { n - 1 } else { 0 };
            ChunkState::new(&grid, n, start, p, config.route(p), tracked, passes)
        })
        .collect();
    let mut run = DirectFused {
        dev: FusedDevice::new(sys, &grid, opts.policy, cost, chunks),
        // One outbound link per peer on the fully-connected topology;
        // all carry fine-grained remote stores.
        links: (0..n - 1).map(|_| Link::new(&sys.link)).collect(),
        ts: opts.timeseries_bucket.map(TimeSeries::new),
        pending: Vec::new(),
        mirrors: vec![Mirror::default(); n],
    };
    let now = drive(&mut run, opts.mode, 0, None);
    FusedRunResult {
        cycles: now,
        stats: run.dev.mc.stats().clone(),
        timeseries: run.ts,
        dma_transfers: 0,
        peak_tracker_entries: run.dev.tracker.peak_entries(),
        link_bytes_sent: run.links.iter().map(|l| l.total_sent()).sum(),
    }
}

/// The mirrored GPU of the direct-RS and all-to-all engines.
struct DirectFused {
    dev: FusedDevice,
    links: Vec<Link>,
    ts: Option<TimeSeries>,
    pending: Vec<PendingIncoming>,
    /// Per peer chunk: its remote stores mirrored onto our owned chunk.
    mirrors: Vec<Mirror>,
}

impl Clocked for DirectFused {
    fn step(&mut self, now: Cycle) {
        self.dev.mc.step(now, self.ts.as_mut());

        // Attribute serviced incoming updates to the tracker, then
        // release due incoming announcements: reductions into the owned
        // chunk, or plain writes into the all-to-all receive slots.
        self.dev.attribute(|_| {});
        for p in take_due(&mut self.pending, now) {
            self.dev.receive(p.position, p.bytes);
        }

        // Chunk 0 is ours (local stores); every other chunk leaves as
        // remote stores on the dedicated link to its owner (each peer
        // has its own wire).
        let (links, mirrors, pending) = (&mut self.links, &mut self.mirrors, &mut self.pending);
        let owned_bytes = self.dev.chunks[0].bytes;
        self.dev.step_gemm(now, None, |pos, chunk, bytes, _| {
            let idx = (pos - 1) % links.len();
            let arrival = links[idx].send(now, pos as u64, bytes);
            // Mirror: a peer's remote stores for our owned chunk arrive
            // with the same timing.
            let mirrored = mirrors[pos].advance(bytes, chunk.bytes, owned_bytes);
            if mirrored > 0 {
                pending.push(PendingIncoming {
                    at: arrival,
                    position: 0,
                    bytes: mirrored,
                });
            }
        });

        // Drain link deliveries (arrival times were captured at send).
        for l in links {
            let _ = l.deliveries_until(now);
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.dev.next_event(now, || {
            let links = self.links.iter().filter_map(|l| l.next_event(now)).min();
            min_event(links, next_due(&self.pending, now))
        })
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.dev.mc.skip_idle(from, to, None);
    }

    fn is_done(&self, now: Cycle) -> bool {
        self.dev.is_done() && self.pending.is_empty() && self.links.iter().all(|l| l.is_idle(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_gpu::collective::{CollectiveKind, RingCollective};
    use t3_gpu::engine::{run_gemm_isolated, WritePolicy};
    use t3_gpu::gemm::GemmShape;
    use t3_sim::stats::TrafficClass;

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
