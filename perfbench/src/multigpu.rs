//! `multigpu`: one op runs one seeded input — a fabric, a TP degree of
//! 8 or 16, and a zoo sublayer — through both explicit N-GPU engines,
//! the sequential `run_multi_gpu_fused_rs_on` and the sharded
//! `run_multi_gpu_fused_rs_sharded` on two threads. Nearly all of its
//! host time is the explicit N-GPU loop and the `t3-topo` fabric; it
//! never calls `Configuration::run_in_mode`. Every op has its own
//! token count, so no shape repeats across ops.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use t3_core::configs::Configuration;
use t3_core::engine::FusedOptions;
use t3_core::multigpu::{
    run_multi_gpu_fused_rs_on, run_multi_gpu_fused_rs_sharded, MultiGpuResult,
};
use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_models::parallelism::{scheduled_all_gather_cycles, scheduled_reduce_scatter_cycles};
use t3_models::zoo::{self, Sublayer};
use t3_sim::config::SystemConfig;
use t3_topo::Topology;
use t3_trace::Instruments;

use crate::probe;
use crate::rng::{claim, Rng, Spread};
use crate::trace::Tracer;
use crate::{inter_node, Workload};

/// The fabrics the ops cycle through.
pub const TOPOLOGIES: [&str; 5] = ["ring", "fully-connected", "switch", "torus", "hierarchical"];

/// The TP degrees the ops cycle through.
pub const TPS: [u64; 2] = [8, 16];

/// Threads of the sharded engine (the host has two vCPUs).
pub const THREADS: usize = 2;

/// Zoo models whose sublayers the ops draw.
const MODELS: [&str; 2] = ["mega-gpt2", "t-nlg"];

/// (model, sublayer) pairs the ops rotate through.
const COMBOS: usize = MODELS.len() * Sublayer::ALL.len();

/// Ops in one round: every (fabric, TP) pair once.
const ROUND: usize = TOPOLOGIES.len() * TPS.len();

/// Ops generated; a run stops early when its time is up.
const MAX_OPS: usize = 48 * ROUND;

/// Token counts span `M_LO..M_HI` log-uniformly within every (fabric,
/// TP) pair, so the pairs' op costs overlap into one continuous range.
const M_LO: u64 = 192;
const M_HI: u64 = 480;

/// One generated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgInput {
    /// Fabric label, as `Topology::by_label` takes it.
    pub topology: &'static str,
    /// GPUs in the TP group.
    pub tp: u64,
    /// Zoo model name.
    pub model: &'static str,
    /// Sliced sublayer.
    pub sublayer: Sublayer,
    /// Token count: unique within a run.
    pub m: u64,
}

impl MgInput {
    /// The sublayer's sliced GEMM at this input's token count.
    pub fn shape(&self) -> GemmShape {
        let model = zoo::by_name(self.model).expect("generator names zoo models");
        let mut shape = model.sublayer_gemm(self.sublayer, self.tp);
        shape.m = self.m;
        shape
    }
}

/// The run's inputs. Each round covers every (fabric, TP) pair once in
/// seeded order; the (model, sublayer) pair rotates across rounds, and
/// token counts spread evenly over their span within every (fabric,
/// TP, model, sublayer) class. No two inputs share a GEMM shape.
pub fn inputs(seed: u64) -> Vec<MgInput> {
    let mut rng = Rng::new(seed, 5);
    let mut spreads: Vec<Spread> = (0..ROUND * COMBOS).map(|_| Spread::new(&mut rng)).collect();
    let mut taken: BTreeMap<(usize, u64), BTreeSet<u64>> = BTreeMap::new();
    let offset = rng.range(0, COMBOS as u64) as usize;
    let mut out = Vec::with_capacity(MAX_OPS);
    for round in 0..MAX_OPS / ROUND {
        for stratum in rng.permutation(ROUND) {
            let combo = (round + 3 * stratum + offset) % COMBOS;
            let tp = TPS[stratum / TOPOLOGIES.len()];
            let m = spreads[stratum * COMBOS + combo].next_log(M_LO, M_HI, 1);
            out.push(MgInput {
                topology: TOPOLOGIES[stratum % TOPOLOGIES.len()],
                tp,
                model: MODELS[combo / Sublayer::ALL.len()],
                sublayer: Sublayer::ALL[combo % Sublayer::ALL.len()],
                m: claim(taken.entry((combo, tp)).or_default(), m, M_LO, M_HI, 1),
            });
        }
    }
    out
}

/// An input with its system, fabric and GEMM grid built.
struct Prepared {
    input: MgInput,
    sys: SystemConfig,
    topo: Topology,
    grid: GemmGrid,
}

impl Prepared {
    fn new(input: MgInput) -> Result<Self, String> {
        let sys = SystemConfig::paper_default().with_num_gpus(input.tp as usize);
        let topo = Topology::by_label(
            input.topology,
            sys.num_gpus,
            &sys.link,
            &inter_node(&sys.link),
        )
        .ok_or_else(|| format!("no {} fabric over {} GPUs", input.topology, input.tp))?;
        let grid = GemmGrid::new(&sys.gpu, input.shape());
        Ok(Prepared {
            input,
            sys,
            topo,
            grid,
        })
    }

    fn sequential(&self, ins: Option<&mut Instruments>) -> MultiGpuResult {
        run_multi_gpu_fused_rs_on(
            &self.sys,
            self.grid.clone(),
            &FusedOptions::default(),
            &self.topo,
            ins,
        )
    }

    fn sharded(&self) -> MultiGpuResult {
        run_multi_gpu_fused_rs_sharded(
            &self.sys,
            self.grid.clone(),
            &FusedOptions::default(),
            &self.topo,
            THREADS,
        )
    }

    /// True when every GPU does identical work on a fabric where every
    /// GPU sees the same links: a ring or a fully-connected fabric, and
    /// reduce-scatter chunks of equal size. Only then must all GPUs
    /// finish together; switch, torus and hierarchical fabrics route
    /// and arbitrate unevenly, and unequal chunks finish unevenly.
    fn balanced(&self) -> bool {
        let n = self.input.tp;
        let chunk = |i| {
            let (start, end) = self.grid.chunk_wg_bounds(n, i);
            self.grid.wg_range_output_bytes(start, end)
        };
        matches!(self.input.topology, "ring" | "fully-connected")
            && (1..n).all(|i| chunk(i) == chunk(0))
    }

    /// Checks the two engines' results against each other and the
    /// fabric's invariants.
    fn check(&self, seq: &MultiGpuResult, sharded: &MultiGpuResult) -> Result<u64, String> {
        if format!("{seq:?}") != format!("{sharded:?}") {
            return Err(format!(
                "{:?}: sharded result differs from sequential",
                self.input
            ));
        }
        if self.balanced() && seq.skew != 0 {
            return Err(format!(
                "{:?}: skew {} with equal chunks",
                self.input, seq.skew
            ));
        }
        let n = self.input.tp;
        if self.input.topology == "ring" && seq.dma_transfers != n * (n - 2) {
            return Err(format!(
                "{:?}: {} DMA transfers on a ring, expected {}",
                self.input,
                seq.dma_transfers,
                n * (n - 2)
            ));
        }
        Ok(seq.cycles)
    }

    fn run(&self) -> Result<u64, String> {
        self.check(&self.sequential(None), &self.sharded())
    }

    fn run_traced(&self, tr: &mut Tracer) -> Result<u64, String> {
        let (seq, sharded) = tr.span("op", |tr| {
            (
                tr.span("core.multigpu_on", |_| self.sequential(None)),
                tr.span("core.multigpu_sharded", |_| self.sharded()),
            )
        });
        let cycles = self.check(&seq, &sharded)?;
        tr.span("probe", |tr| self.probe(tr, &seq));
        Ok(cycles)
    }

    /// Counters from an instrumented sequential run, the fabric's wire
    /// bytes and pricers, and the mirrored single-GPU sublayer.
    fn probe(&self, tr: &mut Tracer, seq: &MultiGpuResult) {
        let mut ins = Instruments::full();
        let t = Instant::now();
        tr.span("core.multigpu_on_instrumented", |_| {
            self.sequential(Some(&mut ins))
        });
        let host_ns = t.elapsed().as_nanos() as u64;
        probe::record_counters(tr, &ins, &probe::COUNTERS);
        probe::record_analysis(tr, &ins, host_ns);
        tr.sample("topo.wire_bytes", seq.link_bytes.iter().sum::<u64>() as f64);
        let shape = *self.grid.shape();
        tr.span("models.pricers", |_| {
            black_box(scheduled_reduce_scatter_cycles(
                &self.sys,
                &self.topo,
                shape.output_bytes(),
            ));
            black_box(scheduled_all_gather_cycles(
                &self.sys,
                &self.topo,
                shape.output_bytes(),
            ));
        });
        let mode = FusedOptions::default().mode;
        tr.note_input("core.run_in_mode", format!("{:?}", self.input));
        tr.span("core.run_in_mode", |_| {
            black_box(Configuration::T3Mca.run_in_mode(&self.sys, &shape, mode))
        });
        // The explicit engine exports no stream-switch count; take it
        // from the mirrored single-GPU run.
        probe::sublayer(tr, &self.sys, shape, mode, &["mc.stream_switches"], false);
    }
}

/// The `multigpu` workload.
pub struct MultiGpu {
    ops: Vec<Prepared>,
}

impl MultiGpu {
    /// Generates the inputs, builds their systems and fabrics, and runs
    /// one separate warm-up input through both engines.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let ops = inputs(seed)
            .into_iter()
            .map(Prepared::new)
            .collect::<Result<Vec<_>, _>>()?;
        census_input(seed, 6, 160).run()?;
        Ok(MultiGpu { ops })
    }
}

impl Workload for MultiGpu {
    fn round(&self) -> usize {
        ROUND
    }

    fn min_ops(&self) -> usize {
        10 * ROUND
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn run(&mut self, i: usize) -> Result<u64, String> {
        self.ops[i].run()
    }

    fn run_traced(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        self.ops[i].run_traced(tr)
    }
}

/// A small input with `base` plus a seeded offset below 16 tokens, below
/// the run's token range (warm-up and census).
fn census_input(seed: u64, salt: u64, base: u64) -> Prepared {
    let mut rng = Rng::new(seed, salt);
    Prepared::new(MgInput {
        topology: "ring",
        tp: 8,
        model: "mega-gpt2",
        sublayer: Sublayer::Op,
        m: base + rng.range(0, 16),
    })
    .expect("an 8-GPU ring always builds")
}

/// Census op: one small input, for workloads whose ops never reach
/// the explicit multi-GPU engines.
pub fn census(tr: &mut Tracer, seed: u64) -> Result<(), String> {
    census_input(seed, 7, 176).run_traced(tr).map(|_| ())
}
