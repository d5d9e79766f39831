//! `serving`: one op is one seeded serving deployment — hidden size,
//! TP degree, fabric, offered load and arrival process. It builds a
//! fresh `CostModel`, draws requests with `generate_requests`, prices
//! co-tenant contention, and runs the continuous-batching engine in
//! baseline and fused mode. Most of its host time is a handful of
//! small sublayer simulations (one per token bucket the engine
//! touches); the rest is memoised `iteration_cycles` lookups.
//!
//! Both engine runs share the deployment's cost model, as a real user
//! comparing the two would; no (hidden, TP) pair repeats across ops.

use std::collections::BTreeSet;
use std::hint::black_box;

use t3_core::configs::Configuration;
use t3_gpu::gemm::GemmShape;
use t3_serve::cost::MAX_BUCKET_TOKENS;
use t3_serve::interference::contention_factor_permille;
use t3_serve::traffic::{expected_output_tokens, mean_gap_cycles};
use t3_serve::{
    generate_requests, run_engine, ArrivalKind, CostModel, EngineConfig, EngineMode, EngineRun,
    Request, TrafficConfig,
};
use t3_sim::config::SystemConfig;
use t3_sim::SimMode;
use t3_topo::Topology;
use t3_trace::{Event, Instruments};

use crate::probe;
use crate::rng::{claim, Rng, Spread};
use crate::trace::Tracer;
use crate::{inter_node, Workload};

/// TP degrees the deployments cycle through.
const TPS: [u64; 3] = [4, 8, 16];

/// Fabrics the deployments cycle through.
const TOPOLOGIES: [&str; 2] = ["ring", "hierarchical"];

/// Arrival processes the deployments cycle through.
const ARRIVALS: [ArrivalKind; 2] = [ArrivalKind::Poisson, ArrivalKind::Bursty];

/// Ops in one round: every (TP, fabric, arrival) triple once.
const ROUND: usize = TPS.len() * TOPOLOGIES.len() * ARRIVALS.len();

/// Hidden sizes span `HIDDEN_LO..HIDDEN_HI` log-uniformly within every
/// TP degree; each (hidden, TP) pair is used once.
const HIDDEN_LO: u64 = 1024;
const HIDDEN_HI: u64 = 4096;

/// Deployments generated per TP degree. A log-uniform draw can claim
/// only so many distinct sizes near `HIDDEN_LO` before it has to move
/// off its drawn value; this many keeps every prefix of the list
/// log-uniform (see the `serving_sizes_stay_log_uniform` self-test),
/// so a run that uses them all measures the same mix as a shorter one.
const PER_TP: usize = 1200;

/// Transformer layers of every served model slice.
const LAYERS: u64 = 4;

/// Requests per deployment.
const REQUESTS: usize = 32;

/// Token-length divisor of the request mix (the `--fast` scale).
const TOKEN_DIVISOR: u64 = 8;

/// Decode slots of the engine.
const MAX_BATCH: u64 = 16;

/// Prefill token budget per iteration.
const MAX_PREFILL_TOKENS: u64 = 2048;

/// One generated deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployment {
    /// Hidden size of the served model slice.
    pub hidden: u64,
    /// TP degree.
    pub tp: u64,
    /// Fabric label.
    pub topology: &'static str,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Offered load in permille of baseline decode capacity.
    pub load_permille: u64,
    /// Tenants sharing the fabric.
    pub tenants: u64,
    /// Seed of the request stream.
    pub seed: u64,
}

/// The run's deployments: each round covers every (TP, fabric,
/// arrival) triple once in seeded order, and hidden sizes spread evenly
/// over their span within every TP degree.
pub fn deployments(seed: u64) -> Vec<Deployment> {
    let mut rng = Rng::new(seed, 8);
    let mut spreads: Vec<Spread> = TPS.iter().map(|_| Spread::new(&mut rng)).collect();
    let mut taken: Vec<BTreeSet<u64>> = TPS.iter().map(|_| BTreeSet::new()).collect();
    let mut out = Vec::new();
    for _ in 0..TPS.len() * PER_TP / ROUND {
        for stratum in rng.permutation(ROUND) {
            let t = stratum % TPS.len();
            let arrival = ARRIVALS[stratum / (TPS.len() * TOPOLOGIES.len())];
            let h = spreads[t].next_log(HIDDEN_LO, HIDDEN_HI, 1);
            out.push(Deployment {
                hidden: claim(&mut taken[t], h, HIDDEN_LO, HIDDEN_HI, 1),
                tp: TPS[t],
                topology: TOPOLOGIES[(stratum / TPS.len()) % TOPOLOGIES.len()],
                arrival,
                load_permille: match arrival {
                    ArrivalKind::Poisson => rng.pick(&[300, 500]),
                    ArrivalKind::Bursty => rng.pick(&[800, 900]),
                },
                tenants: rng.pick(&[2, 3]),
                seed: rng.next_u64(),
            });
        }
    }
    out
}

/// The sliced sublayer the cost model simulates for one bucket.
fn bucket_shape(d: &Deployment, bucket: u64) -> GemmShape {
    GemmShape::new(bucket, d.hidden, (4 * d.hidden).div_ceil(d.tp))
}

/// A deployment with its system and fabric built.
struct Prepared {
    d: Deployment,
    sys: SystemConfig,
    topo: Topology,
}

impl Prepared {
    fn new(d: Deployment) -> Self {
        let sys = SystemConfig::paper_default().with_num_gpus(d.tp as usize);
        let topo = Topology::by_label(d.topology, sys.num_gpus, &sys.link, &inter_node(&sys.link))
            .expect("serving fabrics build over 4, 8 and 16 GPUs");
        Prepared { d, sys, topo }
    }

    fn cost_model(&self) -> CostModel {
        CostModel::new(&self.sys, self.d.hidden, LAYERS, self.d.tp)
    }

    /// Requests at the deployment's load, calibrated on the baseline
    /// engine's decode capacity.
    fn traffic(&self, cost: &mut CostModel) -> Vec<Request> {
        let decode = cost.iteration_cycles(EngineMode::Baseline, MAX_BATCH, 1000);
        let gap = mean_gap_cycles(
            decode,
            expected_output_tokens(TOKEN_DIVISOR),
            MAX_BATCH,
            self.d.load_permille,
        );
        let cfg = TrafficConfig {
            requests: REQUESTS,
            arrival: self.d.arrival,
            mean_gap_cycles: gap,
            token_divisor: TOKEN_DIVISOR,
        };
        generate_requests(&cfg, 0, self.d.seed)
    }

    /// Co-tenant contention on the heaviest recurring collective, the
    /// prefill-scale reduce-scatter.
    fn contention(&self) -> u64 {
        let payload = MAX_PREFILL_TOKENS.min(MAX_BUCKET_TOKENS) * self.d.hidden * 2;
        contention_factor_permille(&self.topo, payload, self.d.tenants)
    }

    fn engine(
        cost: &mut CostModel,
        mode: EngineMode,
        contention: u64,
        reqs: &[Request],
        ins: Option<&mut Instruments>,
    ) -> EngineRun {
        let cfg = EngineConfig {
            mode,
            max_batch: MAX_BATCH,
            max_prefill_tokens: MAX_PREFILL_TOKENS,
            contention_permille: contention,
        };
        run_engine(cost, &cfg, reqs, ins)
    }

    /// Checks both runs served every request in full.
    fn check(&self, reqs: &[Request], runs: &[EngineRun; 2]) -> Result<u64, String> {
        let want: u64 = reqs.iter().map(|r| r.output_tokens).sum();
        for run in runs {
            if run.outcomes.len() != reqs.len() {
                return Err(format!(
                    "{:?}: {} outcomes for {} requests",
                    self.d,
                    run.outcomes.len(),
                    reqs.len()
                ));
            }
            if run.generated_tokens != want {
                return Err(format!(
                    "{:?}: generated {} tokens, requested {want}",
                    self.d, run.generated_tokens
                ));
            }
        }
        Ok(runs[0].makespan + runs[1].makespan)
    }

    fn run(&self) -> Result<u64, String> {
        let mut cost = self.cost_model();
        let reqs = self.traffic(&mut cost);
        let contention = self.contention();
        let runs = [EngineMode::Baseline, EngineMode::Fused]
            .map(|mode| Self::engine(&mut cost, mode, contention, &reqs, None));
        self.check(&reqs, &runs)
    }

    fn run_traced(&self, tr: &mut Tracer) -> Result<u64, String> {
        let (cost, reqs, contention, runs) = tr.span("op", |tr| {
            let mut cost = tr.span("serve.cost_model", |_| self.cost_model());
            let reqs = tr.span("serve.traffic", |_| self.traffic(&mut cost));
            let contention = tr.span("serve.contention", |_| self.contention());
            let runs = [EngineMode::Baseline, EngineMode::Fused].map(|mode| {
                tr.span("serve.run_engine", |_| {
                    Self::engine(&mut cost, mode, contention, &reqs, None)
                })
            });
            (cost, reqs, contention, runs)
        });
        let cycles = self.check(&reqs, &runs)?;
        // One lookup calibrates the traffic, then one per iteration.
        let lookups: u64 = runs
            .iter()
            .map(|r| r.prefill_iterations + r.decode_iterations)
            .sum();
        tr.sample("serve.cost_calls", (1 + lookups) as f64);
        tr.sample("serve.cost_misses", cost.cached_buckets() as f64);
        tr.span("probe", |tr| self.probe(tr, &cost, contention, &reqs))?;
        Ok(cycles)
    }

    /// The buckets the op priced: the traffic calibration's and one per
    /// engine iteration. Both engine runs are replayed on a copy of the
    /// op's cost model, where every lookup hits, to read the token
    /// counts of their iterations.
    fn priced_buckets(
        &self,
        cost: &CostModel,
        contention: u64,
        reqs: &[Request],
    ) -> Result<BTreeSet<u64>, String> {
        let mut replay = cost.clone();
        let mut ins = Instruments {
            tracer: Some(t3_trace::Tracer::new()),
            metrics: None,
        };
        for mode in [EngineMode::Baseline, EngineMode::Fused] {
            Self::engine(&mut replay, mode, contention, reqs, Some(&mut ins));
        }
        let mut priced = BTreeSet::from([CostModel::bucket(MAX_BATCH)]);
        for r in ins.tracer.iter().flat_map(|t| t.records()) {
            if let Event::ServeIteration { tokens, .. } = r.event {
                priced.insert(CostModel::bucket(tokens));
            }
        }
        if priced.len() != cost.cached_buckets() || replay.cached_buckets() != cost.cached_buckets()
        {
            return Err(format!(
                "{:?}: {} buckets from the iterations, {} priced by the op",
                self.d,
                priced.len(),
                cost.cached_buckets()
            ));
        }
        Ok(priced)
    }

    /// Prices the buckets the op missed once more on a fresh cost
    /// model, timing each miss, and probes the largest of them: its two
    /// sublayer simulations, checked against the cost model's record of
    /// them, and its single-GPU pieces.
    fn probe(
        &self,
        tr: &mut Tracer,
        cost: &CostModel,
        contention: u64,
        reqs: &[Request],
    ) -> Result<(), String> {
        let priced = self.priced_buckets(cost, contention, reqs)?;
        let mut fresh = self.cost_model();
        let t = std::time::Instant::now();
        for &b in &priced {
            tr.span("serve.cost_miss", |_| black_box(fresh.layer_costs(b)));
        }
        tr.sample("serve.cost_miss_ms", t.elapsed().as_secs_f64() * 1e3);
        // Each miss is one sequential and one fused sublayer simulation.
        const CALLS: [Configuration; 2] = [Configuration::Sequential, Configuration::T3Mca];
        for &b in &priced {
            for cfg in CALLS {
                let shape = bucket_shape(&self.d, b);
                tr.note_input(
                    "core.run_in_mode",
                    format!("{:?}|{shape:?}|{}", self.d, cfg.name()),
                );
            }
        }
        let largest = *priced.last().expect("the calibration bucket is priced");
        let shape = bucket_shape(&self.d, largest);
        let mode = SimMode::default();
        let [seq, fused] = CALLS.map(|cfg| {
            tr.span("core.run_in_mode", |_| {
                cfg.run_in_mode(&self.sys, &shape, mode)
            })
        });
        let c = fresh.layer_costs(largest);
        let simulated = (
            seq.gemm_cycles,
            seq.rs_cycles,
            seq.ag_cycles,
            fused.gemm_cycles,
        );
        if simulated != (c.seq_gemm, c.seq_rs, c.seq_ag, c.fused_span) {
            return Err(format!(
                "{:?}: bucket {largest} simulates to {simulated:?}, cost model holds {c:?}",
                self.d
            ));
        }
        probe::sublayer(tr, &self.sys, shape, mode, &probe::COUNTERS, true);
        Ok(())
    }
}

/// Every sublayer shape op `d` prices, for the memo-honesty self-test:
/// (hidden, TP) identifies them all.
#[cfg(test)]
pub fn op_key(d: &Deployment) -> (u64, u64) {
    (d.hidden, d.tp)
}

/// The `serving` workload.
pub struct Serving {
    ops: Vec<Prepared>,
}

impl Serving {
    /// Generates the deployments, builds their systems and fabrics,
    /// and serves one separate warm-up deployment.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let ops = deployments(seed).into_iter().map(Prepared::new).collect();
        census_deployment(seed, 9).run()?;
        Ok(Serving { ops })
    }
}

impl Workload for Serving {
    fn round(&self) -> usize {
        ROUND
    }

    fn min_ops(&self) -> usize {
        50 * ROUND
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run(&mut self, i: usize) -> Result<u64, String> {
        self.ops[i].run()
    }

    fn run_traced(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        self.ops[i].run_traced(tr)
    }
}

/// A deployment with a hidden size below the run's range (warm-up and
/// census).
fn census_deployment(seed: u64, salt: u64) -> Prepared {
    let mut rng = Rng::new(seed, salt);
    Prepared::new(Deployment {
        hidden: 768 + rng.range(0, 32) + 64 * (salt % 2),
        tp: 8,
        topology: "ring",
        arrival: ArrivalKind::Poisson,
        load_permille: 500,
        tenants: 2,
        seed: rng.next_u64(),
    })
}

/// Census op: one deployment, for workloads whose ops never reach
/// the serving layer.
pub fn census(tr: &mut Tracer, seed: u64) -> Result<(), String> {
    census_deployment(seed, 10).run_traced(tr).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Within every TP degree, each prefix of the deployment list puts
    /// the share of hidden sizes below every tested quantile of the
    /// log-uniform span within 3 deployments of that quantile.
    #[test]
    fn serving_sizes_stay_log_uniform() {
        let ratio = HIDDEN_HI as f64 / HIDDEN_LO as f64;
        for seed in [1, 2, 777] {
            let all = deployments(seed);
            for tp in TPS {
                let sizes: Vec<u64> = all
                    .iter()
                    .filter(|d| d.tp == tp)
                    .map(|d| d.hidden)
                    .collect();
                assert_eq!(sizes.len(), PER_TP);
                for n in (50..=sizes.len()).step_by(50) {
                    for q in [0.02, 0.1, 0.25, 0.5, 0.75, 0.9] {
                        let below = HIDDEN_LO as f64 * ratio.powf(q);
                        let count = sizes[..n].iter().filter(|&&h| (h as f64) < below).count();
                        let off = (count as f64 - n as f64 * q).abs();
                        assert!(off <= 3.0, "seed {seed} tp {tp}: {count} of {n} below q{q}");
                    }
                }
            }
        }
    }
}
