//! Host-time benchmark of the T3 simulator.
//!
//! A closed loop in one process, one op in flight at a time: it calls
//! the simulator crates' public entry points on inputs generated from
//! `--seed`, checks every op's output, and reports each op's host time
//! divided by the time of an adjacent slice of a fixed reference loop
//! (see [`refloop`]), which cancels the host's speed drift.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-3d --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! same ops with every other round traced and prints the per-layer
//! metrics, writing the spans to `perfbench/spans/`. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/NOTES.md` for the workloads, seeds and
//! the prediction table.

mod multigpu;
mod probe;
mod refloop;
mod rng;
mod serving;
mod stats;
mod sweep3d;
mod trace;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use stats::{mean, median, quantile};
use t3_sim::config::LinkConfig;
use trace::Tracer;

/// One workload's ops, as the op loop sees them.
pub trait Workload {
    /// Ops in one round. Rounds have the same mix of inputs, and a run
    /// ends only at a round boundary.
    fn round(&self) -> usize;
    /// Ops every run completes, however short its time.
    fn min_ops(&self) -> usize;
    /// Ops generated.
    fn ops(&self) -> usize;
    /// The most threads an op runs on; reference slices run at this
    /// width too.
    fn threads(&self) -> usize {
        1
    }
    /// Runs and checks op `i`, returning its simulated cycles.
    fn run(&mut self, i: usize) -> Result<u64, String>;
    /// [`Workload::run`] inside an `op` span, followed by the op's
    /// layer probes.
    fn run_traced(&mut self, i: usize, tr: &mut Tracer) -> Result<u64, String>;
    /// Checks that need the whole run.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Inter-node links of the two-node fabrics: a quarter of the
/// bandwidth and four times the latency of `link` (InfiniBand next to
/// xGMI).
pub fn inter_node(link: &LinkConfig) -> LinkConfig {
    let mut slow = link.clone();
    slow.link_gb_s /= 4.0;
    slow.latency_ns *= 4.0;
    slow
}

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["sweep-3d", "multigpu", "serving"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Op time between two reference slices, ms.
const REF_EVERY_MS: f64 = 10.0;

/// An op's time is divided by the median of the reference slices at
/// most this many places before and after it.
const REF_WINDOW: usize = 3;

/// A single-thread reference slice's time on the 2-vCPU host the
/// benchmark was tuned on, ms. `setup_s` is set-up time in reference
/// units times this, so it reads as seconds at that host's speed.
const REF_NOMINAL_MS: f64 = 3.0;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}: expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Generates a workload's inputs, builds everything its ops need, and
/// runs one untimed warm-up op.
fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "sweep-3d" => Box::new(sweep3d::Sweep3d::setup(seed)?),
        "multigpu" => Box::new(multigpu::MultiGpu::setup(seed)?),
        _ => Box::new(serving::Serving::setup(seed)?),
    })
}

/// Median time of `n` single-thread reference slices, ms.
fn ref_ms(n: usize) -> f64 {
    median(&(0..n).map(|_| refloop::timed_slice(1)).collect::<Vec<_>>())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".into()))
    })
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
struct OpTime {
    ms: f64,
    /// Index of the last reference slice taken before the op.
    ref_idx: usize,
    traced: bool,
}

/// What the op loop saw.
#[derive(Debug, Default)]
struct LoopResult {
    ops: Vec<OpTime>,
    refs: Vec<f64>,
    attempted: usize,
    failed: usize,
    /// Simulated cycles summed over the first `min_ops` ops.
    cycles_total: u64,
}

impl LoopResult {
    fn fail(&mut self, what: &str, err: &str) {
        self.failed += 1;
        eprintln!("failed {what}: {err}");
    }

    /// Each kept op's time in reference units.
    fn relative(&self, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| {
                let lo = o.ref_idx.saturating_sub(REF_WINDOW - 1);
                let hi = (o.ref_idx + REF_WINDOW + 1).min(self.refs.len());
                o.ms / median(&self.refs[lo..hi])
            })
            .collect()
    }

    fn raw_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| !o.traced)
            .map(|o| o.ms)
            .collect()
    }
}

/// Runs whole rounds of ops until `seconds` have passed and at least
/// `min_ops` ops ran. With a tracer, odd rounds run traced.
fn drive(w: &mut dyn Workload, seconds: f64, mut tracer: Option<&mut Tracer>) -> LoopResult {
    let start = Instant::now();
    let width = w.threads();
    let mut res = LoopResult {
        refs: vec![refloop::timed_slice(width)],
        ..LoopResult::default()
    };
    let mut since_ref = 0.0;
    for i in 0..w.ops() {
        let elapsed = start.elapsed().as_secs_f64();
        if i >= w.min_ops() && i % w.round() == 0 && elapsed >= seconds {
            break;
        }
        let traced = tracer.is_some() && (i / w.round()) % 2 == 1;
        let t = Instant::now();
        let out = guarded(|| match tracer.as_deref_mut() {
            Some(tr) if traced => {
                tr.begin_op(i as u64, false);
                w.run_traced(i, tr)
            }
            _ => w.run(i),
        });
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        res.attempted += 1;
        match out {
            Ok(cycles) => {
                if i < w.min_ops() {
                    res.cycles_total += cycles;
                }
                // A traced op's time is its `op` span, without probes.
                let ms = match tracer.as_deref() {
                    Some(tr) if traced => tr
                        .spans()
                        .iter()
                        .rev()
                        .find(|s| s.name == "op" && s.op == i as u64)
                        .map_or(wall_ms, |s| s.ns() as f64 / 1e6),
                    _ => wall_ms,
                };
                res.ops.push(OpTime {
                    ms,
                    ref_idx: res.refs.len() - 1,
                    traced,
                });
            }
            Err(e) => res.fail(&format!("op {i}"), &e),
        }
        since_ref += wall_ms;
        if since_ref >= REF_EVERY_MS {
            res.refs.push(refloop::timed_slice(width));
            since_ref = 0.0;
        }
    }
    res.refs.push(refloop::timed_slice(width));
    res.attempted += 1;
    if let Err(e) = guarded(|| w.finish()) {
        res.fail("end-of-run check", &e);
    }
    res
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The per-layer metrics of a traced run.
fn layer_metrics(tr: &Tracer, res: &LoopResult) -> Metrics {
    let rim = tr.layer("core.run_in_mode");
    let (calls, distinct) = tr.noted_inputs("core.run_in_mode");
    let (calls, distinct) = (calls as f64, distinct as f64);
    let on = tr.layer("core.multigpu_on").mean_ms();
    let sharded = tr.layer("core.multigpu_sharded").mean_ms();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let untraced = res.relative(false);
    let raw = res.raw_ms();
    let mut m: Metrics = vec![
        (
            "spec.parse_us",
            tr.layer("spec.parse").mean_ms() * 1e3,
            "us",
        ),
        (
            "spec.expand_us",
            tr.layer("spec.expand").mean_ms() * 1e3,
            "us",
        ),
        (
            "core.run_in_mode.calls",
            ratio(calls, rim.ops as f64),
            "count",
        ),
        (
            "core.run_in_mode.distinct",
            ratio(distinct, rim.ops as f64),
            "count",
        ),
        ("core.run_in_mode.ms", rim.mean_ms(), "ms"),
        ("core.sublayer_reuse", ratio(distinct, calls), "ratio"),
        (
            "gpu.gemm_isolated.ms",
            tr.layer("gpu.gemm_isolated").mean_ms(),
            "ms",
        ),
        (
            "gpu.ring_collective.us",
            tr.layer("gpu.ring_collective").mean_ms() * 1e3,
            "us",
        ),
        (
            "core.fused_gemm_rs.ms",
            tr.layer("core.fused_gemm_rs").mean_ms(),
            "ms",
        ),
    ];
    for name in probe::COUNTERS {
        m.push((name, tr.sample_mean(name), "count"));
    }
    m.extend([
        (
            "sim.fast_forwardable_permille",
            tr.sample_mean("sim.fast_forwardable_permille"),
            "permille",
        ),
        (
            "sim.overlap_permille",
            tr.sample_mean("sim.overlap_permille"),
            "permille",
        ),
        (
            "sim.exposed_collective_cycles",
            tr.sample_mean("sim.exposed_collective_cycles"),
            "cycles",
        ),
        (
            "sim.memory_stall_cycles",
            tr.sample_mean("sim.memory_stall_cycles"),
            "cycles",
        ),
        (
            "sim.host_ns_per_kcycle",
            tr.sample_mean("sim.host_ns_per_kcycle"),
            "ns/kcycle",
        ),
        ("core.multigpu_on.ms", on, "ms"),
        ("core.multigpu_sharded.ms", sharded, "ms"),
        (
            "core.sharded_speedup_permille",
            1000.0 * ratio(on, sharded),
            "permille",
        ),
        (
            "topo.wire_bytes",
            tr.sample_mean("topo.wire_bytes"),
            "bytes",
        ),
        (
            "models.pricers_us",
            tr.layer("models.pricers").mean_ms() * 1e3,
            "us",
        ),
        (
            "serve.cost_calls",
            tr.sample_mean("serve.cost_calls"),
            "count",
        ),
        (
            "serve.cost_misses",
            tr.sample_mean("serve.cost_misses"),
            "count",
        ),
        (
            "serve.cost_miss_ms",
            tr.sample_mean("serve.cost_miss_ms"),
            "ms",
        ),
        (
            "serve.run_engine_ms",
            tr.layer("serve.run_engine").mean_ms(),
            "ms",
        ),
        (
            "serve.traffic_us",
            tr.layer("serve.traffic").mean_ms() * 1e3,
            "us",
        ),
        (
            "serve.contention_us",
            tr.layer("serve.contention").mean_ms() * 1e3,
            "us",
        ),
        (
            "runtime.overhead_ms",
            tr.sample_mean("runtime.overhead_ms"),
            "ms",
        ),
        ("op_ms.p50", median(&raw), "ms"),
        ("op_ms.p90", quantile(&raw, 0.9), "ms"),
        (
            "ops_per_s",
            ratio(raw.len() as f64 * 1e3, raw.iter().sum()),
            "1/s",
        ),
        ("ref_ms.p50", median(&res.refs), "ms"),
        (
            "trace.overhead_permille",
            1000.0 * ratio(median(&res.relative(true)), median(&untraced)),
            "permille",
        ),
        ("sim.cycles_total", res.cycles_total as f64, "cycles"),
    ]);
    m
}

/// Runs the traced-run extras: one census op of every other workload
/// and the runtime probe. Failures count as failed ops.
fn census(tr: &mut Tracer, workload: &str, seed: u64, res: &mut LoopResult) {
    type Census = fn(&mut Tracer, u64) -> Result<(), String>;
    let all: [(&str, Census); 3] = [
        ("sweep-3d", sweep3d::census),
        ("multigpu", multigpu::census),
        ("serving", serving::census),
    ];
    for (k, (name, op)) in all.iter().enumerate() {
        if *name != workload {
            tr.begin_op(u64::MAX - k as u64, true);
            res.attempted += 1;
            if let Err(e) = guarded(|| op(tr, seed)) {
                res.fail(&format!("{name} census op"), &e);
            }
        }
    }
    tr.begin_op(u64::MAX - 3, false);
    res.attempted += 1;
    if let Err(e) = guarded(|| sweep3d::runtime_probe(tr, seed)) {
        res.fail("runtime probe", &e);
    }
}

fn json_line(res: &LoopResult, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        res.failed == 0,
        res.attempted,
        res.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: t3-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };

    // Set up several times; keep the last workload for the op loop.
    // Each set-up drops the previous one first, so `peak_rss_mb` never
    // holds two workloads at once.
    let mut setup_rel = Vec::with_capacity(SETUPS);
    let mut setup_wall = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let before = ref_ms(3);
        let t = Instant::now();
        let w = match guarded(|| setup(&args.workload, args.seed)) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let wall = t.elapsed().as_secs_f64();
        let r = median(&[before, ref_ms(3)]);
        setup_wall.push(wall);
        setup_rel.push(wall * 1e3 / r);
        workload = Some(w);
    }
    let mut w = workload.expect("SETUPS > 0");

    let mut tracer = args.trace.then(Tracer::new);
    let mut res = drive(w.as_mut(), args.seconds, tracer.as_mut());
    let untraced = res.relative(false);
    eprintln!(
        "{}: {} ops ({} failed), op {:.2} ms p50, ref {:.3} ms p50, setup {:.3} s, sim cycles {}",
        args.workload,
        res.attempted,
        res.failed,
        median(&res.raw_ms()),
        median(&res.refs),
        median(&setup_wall),
        res.cycles_total
    );

    let metrics: Metrics = match tracer.as_mut() {
        None => vec![
            ("op_rel.p50", median(&untraced), "ref"),
            ("op_rel.p90", quantile(&untraced, 0.9), "ref"),
            ("op_rel.mean", mean(&untraced), "ref"),
            ("setup_s", median(&setup_rel) * REF_NOMINAL_MS / 1e3, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        Some(tr) => {
            census(tr, &args.workload, args.seed, &mut res);
            let mut m = layer_metrics(tr, &res);
            m.push(("setup.wall_s", median(&setup_wall), "s"));
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/spans");
            let path = format!("{dir}/{}-seed{}.json", args.workload, args.seed);
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json()))
            {
                eprintln!("warning: cannot write {path}: {e}");
            }
            m
        }
    };
    println!("{}", json_line(&res, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn reference_loop_is_deterministic_and_std_only() {
        assert_eq!(refloop::slice(), refloop::slice());
        let src = include_str!("refloop.rs");
        for line in src.lines().filter(|l| l.trim_start().starts_with("use ")) {
            assert!(line.contains("use std::"), "reference loop imports {line}");
        }
        for forbidden in ["t3_", "crate::", "super::"] {
            assert!(
                !src.contains(forbidden),
                "reference loop mentions {forbidden}"
            );
        }
    }

    /// Asserts every key belongs to one group only.
    fn keys_stay_in_group<K: Ord + std::fmt::Debug>(
        keyed: impl IntoIterator<Item = (usize, K)>,
    ) -> usize {
        let mut owner: BTreeMap<K, usize> = BTreeMap::new();
        for (group, key) in keyed {
            let prev = *owner.entry(key).or_insert(group);
            assert_eq!(prev, group, "input shape shared by two ops' groups");
        }
        owner.len()
    }

    #[test]
    fn sweep_shapes_repeat_only_within_a_sweep() {
        for seed in [1, 2] {
            let plans = sweep3d::plans(seed).expect("generated sweeps expand");
            let ops = plans.len() * sweep3d::POINTS;
            let keyed = (0..ops).flat_map(|i| {
                let (sweep, keys) = sweep3d::op_keys(&plans, i);
                keys.into_iter().map(move |k| (sweep, k))
            });
            // Two TP degrees x two modes x four sublayers per sweep.
            assert_eq!(keys_stay_in_group(keyed), plans.len() * 16);
        }
    }

    #[test]
    fn multigpu_and_serving_inputs_never_repeat() {
        for seed in [1, 2] {
            let mg = multigpu::inputs(seed);
            let n = keys_stay_in_group(
                mg.iter()
                    .enumerate()
                    .map(|(i, x)| (i, format!("{:?}", x.shape()))),
            );
            assert_eq!(n, mg.len());
            let sv = serving::deployments(seed);
            let n = keys_stay_in_group(sv.iter().enumerate().map(|(i, d)| (i, serving::op_key(d))));
            assert_eq!(n, sv.len());
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(sweep3d::sweeps(7), sweep3d::sweeps(7));
        assert_ne!(sweep3d::sweeps(7), sweep3d::sweeps(8));
        assert_eq!(multigpu::inputs(7), multigpu::inputs(7));
        assert_ne!(serving::deployments(7), serving::deployments(8));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serving --seed 3 --seconds 2.5 --trace 1"))
            .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.5, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serving --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload serving --seed")).is_err());
    }
}
