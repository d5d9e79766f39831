//! `sweep-3d`: one op is one [`simulate_point`] call of a generated
//! 16-point TP{4,8} × PP{1,2} × DP{1,2} × {sequential, t3mca} sweep on
//! a two-node hierarchical system — how users run T3 at scale.
//!
//! The sweeps are sized after the repository's own specs: each block
//! of three holds two sweeps of a T-NLG-sized model at the micro-batch
//! of `examples/specs/tnlg_tp.t3w` and one of a GPT-3-sized model at
//! the micro-batch of `examples/specs/gpt3_3d_sweep.t3w`.
//!
//! Each sweep's `.t3w` text is generated from the seed, then parsed
//! and expanded by the spec frontend. A sublayer shape repeats only
//! inside its own sweep, across the four PP×DP points of one
//! (TP, mode) pair, as it would for a real user; no two sweeps of a
//! run share a hidden size, so no shape repeats across sweeps.

use std::collections::BTreeSet;
use std::hint::black_box;

use t3_core::configs::Configuration;
use t3_gpu::gemm::GemmShape;
use t3_models::parallelism::{
    scheduled_all_gather_cycles, scheduled_reduce_scatter_cycles, PipelineConfig,
};
use t3_models::zoo::Sublayer;
use t3_sim::config::SystemConfig;
use t3_spec::system::McPolicy;
use t3_spec::workload::ExecMode;
use t3_spec::{simulate_point, PointOutcome, ResolvedPoint, SweepPlan, SystemSpec, WorkloadSpec};
use t3_topo::{Fabric, Topology};

use crate::probe;
use crate::rng::{claim, Rng, Spread};
use crate::trace::Tracer;
use crate::Workload;

/// Token divisor every point is simulated at (the `--fast` scale).
pub const TOKEN_DIVISOR: u64 = 8;

/// Points in one sweep.
pub const POINTS: usize = 16;

/// A model size the generated sweeps are drawn around: a zoo model
/// that one of the repository's specs sweeps.
#[derive(Debug, Clone, Copy)]
struct Tier {
    /// The zoo model's hidden size; a sweep's is within `JITTER` of it.
    hidden: u64,
    /// The zoo model's layers; a sweep's are within a quarter of them.
    layers: u64,
    /// Tokens one micro-batch carries after the divisor, as in the
    /// spec. Every sweep picks its batch so this stays fixed.
    mb_tokens: u64,
}

/// T-NLG as `examples/specs/tnlg_tp.t3w` sweeps it: its zoo batch of
/// 8 × 1024 tokens in one micro-batch.
const TNLG: Tier = Tier {
    hidden: 4256,
    layers: 78,
    mb_tokens: 1024,
};

/// GPT-3 as `examples/specs/gpt3_3d_sweep.t3w` sweeps it: 2 × 512
/// tokens in four micro-batches, at the engine's 256-token floor.
const GPT3: Tier = Tier {
    hidden: 12288,
    layers: 96,
    mb_tokens: 256,
};

/// The tiers the sweeps are drawn around.
const TIERS: [Tier; 2] = [TNLG, GPT3];

/// The tiers of one block, as indices into `TIERS`, in seeded order
/// per block. Two T-NLG sweeps per GPT-3 sweep put the median op
/// inside a cluster of op costs, not in the gap between two clusters,
/// and fit the at least 100 ops `op_rel.p90` needs into 30 seconds.
const BLOCK: [usize; 3] = [0, 0, 1];

/// A sweep's hidden size lies within this share of its tier's.
const JITTER: f64 = 0.03;

/// Hidden sizes are multiples of this.
const HIDDEN_STEP: u64 = 8;

/// Blocks generated; a run stops early when its time is up.
const MAX_BLOCKS: usize = 10;

/// The system every sweep runs on: two nodes joined by links with a
/// quarter of the bandwidth and four times the latency.
const SYSTEM_TEXT: &str = "system \"two-node-hier\"
[topology]
kind = hierarchical
inter_bw_div = 4
inter_lat_mult = 4
[link]
gb_s = 150.0
latency_ns = 500.0
[memory]
policy = mca
[engine]
sim = fast-forward
";

/// One generated sweep's model and micro-batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSpec {
    /// Hidden size: unique within a run.
    pub hidden: u64,
    /// Transformer layers.
    pub layers: u64,
    /// Sequence length.
    pub seq_len: u64,
    /// Sequences per iteration.
    pub batch: u64,
    /// Micro-batches per iteration.
    pub microbatches: u64,
}

impl SweepSpec {
    fn draw(rng: &mut Rng, tier: Tier, hidden: u64) -> Self {
        let microbatches = rng.pick(&[1, 2, 4]);
        let seq_len = rng.pick(&[512, 1024, 2048]);
        SweepSpec {
            hidden,
            layers: rng.range(tier.layers * 3 / 4, tier.layers * 5 / 4 + 1),
            seq_len,
            batch: tier.mb_tokens * TOKEN_DIVISOR * microbatches / seq_len,
            microbatches,
        }
    }

    /// The sweep as `.t3w` text.
    pub fn workload_text(&self) -> String {
        format!(
            "workload \"gen-h{h}\"
[model]
hidden = {h}
layers = {l}
seq_len = {s}
batch = {b}
[parallelism]
microbatches = {mb}
[sweep]
tp = [4, 8]
pp = [1, 2]
dp = [1, 2]
mode = [sequential, t3mca]
",
            h = self.hidden,
            l = self.layers,
            s = self.seq_len,
            b = self.batch,
            mb = self.microbatches,
        )
    }
}

/// The run's sweeps, block by block. Each tier draws its hidden sizes
/// from a low-discrepancy stream over its band, so every run spreads
/// them evenly over the band, and no size repeats.
pub fn sweeps(seed: u64) -> Vec<SweepSpec> {
    let mut rng = Rng::new(seed, 1);
    let mut spreads: Vec<Spread> = TIERS.iter().map(|_| Spread::new(&mut rng)).collect();
    let mut taken: Vec<BTreeSet<u64>> = TIERS.iter().map(|_| BTreeSet::new()).collect();
    let mut out = Vec::with_capacity(MAX_BLOCKS * BLOCK.len());
    for _ in 0..MAX_BLOCKS {
        for k in rng.permutation(BLOCK.len()) {
            let t = BLOCK[k];
            let (lo, hi) = band(TIERS[t].hidden);
            let h = spreads[t].next_log(lo, hi, HIDDEN_STEP);
            let hidden = claim(&mut taken[t], h, lo, hi, HIDDEN_STEP);
            out.push(SweepSpec::draw(&mut rng, TIERS[t], hidden));
        }
    }
    out
}

/// Hidden sizes within `JITTER` of `hidden`, as a `lo..hi` range of
/// multiples of `HIDDEN_STEP`.
fn band(hidden: u64) -> (u64, u64) {
    let step = |x: f64| (x / HIDDEN_STEP as f64).round() as u64 * HIDDEN_STEP;
    let h = hidden as f64;
    (
        step(h * (1.0 - JITTER)),
        step(h * (1.0 + JITTER)) + HIDDEN_STEP,
    )
}

/// A sweep outside the run's bands (warm-up, census, runtime probe):
/// `base` plus a seeded multiple of `HIDDEN_STEP` below 8, at the
/// GPT-3 micro-batch.
fn extra_sweep(seed: u64, salt: u64, base: u64) -> SweepSpec {
    let mut rng = Rng::new(seed, salt);
    let hidden = base + HIDDEN_STEP * rng.range(0, 8);
    let tier = Tier {
        hidden,
        layers: 24,
        mb_tokens: GPT3.mb_tokens,
    };
    SweepSpec::draw(&mut rng, tier, hidden)
}

/// Parses and expands one sweep against [`SYSTEM_TEXT`].
fn expand(spec: &SweepSpec) -> Result<SweepPlan, String> {
    let w =
        WorkloadSpec::parse("generated.t3w", &spec.workload_text()).map_err(|e| e.to_string())?;
    let s = SystemSpec::parse("generated.t3s", SYSTEM_TEXT).map_err(|e| e.to_string())?;
    let plan = SweepPlan::expand("generated.t3w", &w, &s).map_err(|e| e.to_string())?;
    if plan.points.len() != POINTS {
        return Err(format!("sweep expanded to {} points", plan.points.len()));
    }
    Ok(plan)
}

/// The plans of every sweep of the run.
#[cfg(test)]
pub fn plans(seed: u64) -> Result<Vec<SweepPlan>, String> {
    sweeps(seed).iter().map(expand).collect()
}

/// Checks one outcome against the identities every point satisfies.
fn check(out: &PointOutcome) -> Result<(), String> {
    let p = &out.point;
    if out.iter_cycles == 0 || out.iter_cycles != out.pipeline_cycles + out.dp_exposed_cycles {
        return Err(format!(
            "{}: iter_cycles {} != pipeline {} + dp exposed {}",
            p.label(),
            out.iter_cycles,
            out.pipeline_cycles,
            out.dp_exposed_cycles
        ));
    }
    if p.pp == 1 && out.pp_exposed_cycles != 0 {
        return Err(format!("{}: pipeline exposure at pp=1", p.label()));
    }
    if p.dp == 1 && out.dp_exposed_cycles != 0 {
        return Err(format!("{}: data-parallel exposure at dp=1", p.label()));
    }
    Ok(())
}

/// The paper system with the point's link parameters over `n` GPUs, as
/// the point's execution builds it.
fn point_system(point: &ResolvedPoint, n: u64) -> SystemConfig {
    let mut sys = SystemConfig::paper_default().with_num_gpus(n as usize);
    sys.link.link_gb_s = point.link_gb_s;
    sys.link.latency_ns = point.latency_ns;
    sys
}

/// The point's fabric over a group of `sys.num_gpus` GPUs, degrading to
/// a ring where the kind needs two even halves.
fn group_topology(point: &ResolvedPoint, sys: &SystemConfig) -> Topology {
    let mut inter = sys.link.clone();
    inter.link_gb_s /= point.inter_bw_div as f64;
    inter.latency_ns *= point.inter_lat_mult as f64;
    Topology::by_label(&point.topology, sys.num_gpus, &sys.link, &inter)
        .unwrap_or_else(|| Topology::ring(sys.num_gpus, &sys.link))
}

/// The sublayer calls one point makes: its four sliced GEMMs under the
/// configuration its mode and memory policy select.
fn sublayer_calls(point: &ResolvedPoint) -> (Configuration, Vec<GemmShape>) {
    let cfg = match (point.mode, point.policy) {
        (ExecMode::Sequential, _) => Configuration::Sequential,
        (ExecMode::T3Mca, McPolicy::Mca) => Configuration::T3Mca,
        (ExecMode::T3Mca, McPolicy::RoundRobin) => Configuration::T3,
    };
    let tokens = (point.model.tokens().div_ceil(point.microbatches) / TOKEN_DIVISOR).max(256);
    let shapes = Sublayer::ALL
        .iter()
        .map(|&sub| {
            let mut shape = point.model.sublayer_gemm(sub, point.tp);
            shape.m = tokens;
            shape
        })
        .collect();
    (cfg, shapes)
}

/// A key naming one sublayer call's full input.
fn call_key(point: &ResolvedPoint, cfg: Configuration, shape: &GemmShape) -> String {
    format!(
        "{shape:?}|tp={}|{}|{}|{}|{:?}",
        point.tp,
        point.link_gb_s,
        point.latency_ns,
        cfg.name(),
        point.sim
    )
}

/// Every sublayer call key of op `i` of `plans`, grouped by sweep: the
/// input to the memo-honesty self-test.
#[cfg(test)]
pub fn op_keys(plans: &[SweepPlan], i: usize) -> (usize, Vec<String>) {
    let point = &plans[i / POINTS].points[i % POINTS];
    let (cfg, shapes) = sublayer_calls(point);
    (
        i / POINTS,
        shapes.iter().map(|s| call_key(point, cfg, s)).collect(),
    )
}

/// Times the layers one point reaches: its sublayer calls, the
/// analytic pricers, and (at PP=DP=1 fused points) the single-GPU
/// pieces of its FC-2 sublayer. The probe's sublayer calls are this
/// file's copy of the ones [`simulate_point`] makes, so the probe
/// rebuilds the point's stage cycles from them and fails the op if
/// they differ from the outcome's.
fn probe_point(tr: &mut Tracer, out: &PointOutcome) -> Result<(), String> {
    let point = &out.point;
    let sys = point_system(point, point.tp);
    let topo = group_topology(point, &sys);
    let (cfg, shapes) = sublayer_calls(point);
    let gemm: Vec<u64> = shapes
        .iter()
        .map(|shape| {
            tr.note_input("core.run_in_mode", call_key(point, cfg, shape));
            tr.span("core.run_in_mode", |_| {
                cfg.run_in_mode(&sys, shape, point.sim).gemm_cycles
            })
        })
        .collect();
    let collectives: Vec<(u64, u64)> = tr.span("models.pricers", |_| {
        let priced = shapes
            .iter()
            .map(|shape| {
                let bytes = shape.output_bytes();
                (
                    scheduled_reduce_scatter_cycles(&sys, &topo, bytes),
                    scheduled_all_gather_cycles(&sys, &topo, bytes),
                )
            })
            .collect();
        let pp = PipelineConfig::new(point.pp, point.microbatches);
        let p2p = shapes[0].m * point.model.hidden * 2;
        let mut fabric = (point.pp > 1)
            .then(|| Fabric::new(&group_topology(point, &point_system(point, point.pp))));
        black_box(pp.fabric_makespan(
            fabric.as_mut(),
            out.stage_fwd_cycles,
            out.stage_bwd_cycles,
            p2p,
        ));
        if point.dp > 1 {
            let dp_sys = point_system(point, point.dp);
            let dp_topo = group_topology(point, &dp_sys);
            let grad = point.model.layers.div_ceil(point.pp) * 12 * point.model.hidden.pow(2) * 2
                / point.tp;
            black_box(scheduled_reduce_scatter_cycles(&dp_sys, &dp_topo, grad));
            black_box(scheduled_all_gather_cycles(&dp_sys, &dp_topo, grad));
        }
        priced
    });
    let (mut fwd, mut bwd) = (0, 0);
    for ((sub, gemm), (rs, ag)) in Sublayer::ALL.iter().zip(gemm).zip(collectives) {
        let cost = match point.mode {
            ExecMode::Sequential => gemm + rs + ag,
            ExecMode::T3Mca => gemm + rs.saturating_sub(gemm) + ag,
        };
        if matches!(sub, Sublayer::Op | Sublayer::Fc2) {
            fwd += cost;
        } else {
            bwd += cost;
        }
    }
    let layers = point.model.layers.div_ceil(point.pp);
    if (layers * fwd, layers * bwd) != (out.stage_fwd_cycles, out.stage_bwd_cycles) {
        return Err(format!(
            "{}: probe's sublayer calls give stage cycles {}/{}, the point {}/{}",
            point.label(),
            layers * fwd,
            layers * bwd,
            out.stage_fwd_cycles,
            out.stage_bwd_cycles
        ));
    }
    if point.pp == 1 && point.dp == 1 && point.mode == ExecMode::T3Mca {
        probe::sublayer(tr, &sys, shapes[1], point.sim, &probe::COUNTERS, true);
    }
    Ok(())
}

/// The `sweep-3d` workload: every point of every generated sweep.
pub struct Sweep3d {
    specs: Vec<SweepSpec>,
    plans: Vec<SweepPlan>,
    first: Option<PointOutcome>,
}

impl Sweep3d {
    /// Generates, parses and expands the run's sweeps, then simulates
    /// one point of a separate warm-up sweep.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let specs = sweeps(seed);
        let plans = specs.iter().map(expand).collect::<Result<Vec<_>, _>>()?;
        let warm = expand(&extra_sweep(seed, 2, 8192))?;
        check(&simulate_point(&warm.points[POINTS - 1], TOKEN_DIVISOR))?;
        Ok(Sweep3d {
            specs,
            plans,
            first: None,
        })
    }

    fn point(&self, i: usize) -> &ResolvedPoint {
        &self.plans[i / POINTS].points[i % POINTS]
    }

    fn keep_first(&mut self, i: usize, out: &PointOutcome) {
        if i == 0 {
            self.first = Some(out.clone());
        }
    }
}

impl Workload for Sweep3d {
    fn round(&self) -> usize {
        BLOCK.len() * POINTS
    }

    fn min_ops(&self) -> usize {
        3 * BLOCK.len() * POINTS
    }

    fn ops(&self) -> usize {
        self.plans.len() * POINTS
    }

    fn run(&mut self, i: usize) -> Result<u64, String> {
        let out = simulate_point(self.point(i), TOKEN_DIVISOR);
        check(&out)?;
        self.keep_first(i, &out);
        Ok(out.iter_cycles)
    }

    fn run_traced(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let point = self.point(i).clone();
        let out = tr.span("op", |tr| {
            tr.span("spec.simulate_point", |_| {
                simulate_point(&point, TOKEN_DIVISOR)
            })
        });
        check(&out)?;
        self.keep_first(i, &out);
        let text = i
            .is_multiple_of(POINTS)
            .then(|| self.specs[i / POINTS].workload_text());
        tr.span("probe", |tr| {
            if let Some(text) = text {
                probe::spec(tr, &text, SYSTEM_TEXT)?;
            }
            probe_point(tr, &out)
        })?;
        Ok(out.iter_cycles)
    }

    fn finish(&mut self) -> Result<(), String> {
        let again = simulate_point(self.point(0), TOKEN_DIVISOR);
        match &self.first {
            Some(first) if *first == again => Ok(()),
            Some(_) => Err("first point simulated again gave a different outcome".into()),
            None => Err("first point produced no outcome".into()),
        }
    }
}

/// Census op: parses and expands one generated sweep, for workloads
/// whose ops never reach the spec frontend.
pub fn census(tr: &mut Tracer, seed: u64) -> Result<(), String> {
    let text = extra_sweep(seed, 3, 1536).workload_text();
    tr.span("op", |tr| probe::spec(tr, &text, SYSTEM_TEXT))
        .map(|_| ())
}

/// Runs one small generated sweep through the experiment runtime; see
/// [`probe::runtime`].
pub fn runtime_probe(tr: &mut Tracer, seed: u64) -> Result<(), String> {
    let plan = expand(&extra_sweep(seed, 4, 512))?;
    probe::runtime(tr, &plan, TOKEN_DIVISOR)
}
