//! Machine-readable run reports.
//!
//! [`BenchSample`] is the workspace's one wall-clock summary type:
//! the bench harness (`t3-bench::harness::bench`) returns it for
//! multi-iteration micro-benches, and [`report_json`] embeds one per
//! job (a single-sample degenerate case) in the `--report` artifact
//! that starts the repo's bench trajectory. Wall-clock here measures
//! the *simulator*, never the simulated machine — and only the
//! scheduler samples it; this module just summarises the numbers.

use std::fmt::Write as _;

use crate::scheduler::{JobStatus, RunSummary};

/// Report schema revision; bump on any layout change.
pub const REPORT_SCHEMA: u64 = 1;

/// Summary statistics over one or more wall-clock samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSample {
    /// Number of timed iterations summarised.
    pub iters: u32,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u128,
    /// Median iteration, nanoseconds.
    pub median_ns: u128,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u128,
}

impl BenchSample {
    /// Summarises a non-empty sample set.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice — a bench with zero iterations has no
    /// statistics.
    pub fn from_samples(samples_ns: &[u128]) -> Self {
        assert!(!samples_ns.is_empty(), "need at least one sample");
        let mut sorted = samples_ns.to_vec();
        sorted.sort_unstable();
        BenchSample {
            iters: sorted.len() as u32,
            min_ns: sorted[0],
            median_ns: sorted[sorted.len() / 2],
            mean_ns: sorted.iter().sum::<u128>() / sorted.len() as u128,
        }
    }

    /// The degenerate single-measurement summary (per-job report
    /// rows: each job runs exactly once).
    pub fn single(wall_ns: u128) -> Self {
        BenchSample {
            iters: 1,
            min_ns: wall_ns,
            median_ns: wall_ns,
            mean_ns: wall_ns,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"iters\": {}, \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}}}",
            self.iters, self.min_ns, self.median_ns, self.mean_ns
        )
    }
}

/// Renders a [`RunSummary`] as the `bench_report.json` artifact:
/// per-job rows (submission order) with status, fingerprint, wall
/// time, simulated cycles and any free-form job metrics (e.g. the
/// `ff-speedup` target's `speedup_wall_permille`), plus run-level
/// totals and cache statistics.
pub fn report_json(summary: &RunSummary) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": {REPORT_SCHEMA},");
    let _ = writeln!(s, "  \"workers\": {},", summary.workers);
    let _ = writeln!(
        s,
        "  \"cache\": {{\"enabled\": {}, \"hits\": {}, \"misses\": {}}},",
        summary.cache_enabled, summary.cache_hits, summary.cache_misses
    );
    let _ = writeln!(s, "  \"total_wall_ns\": {},", summary.total_wall_ns);
    let _ = writeln!(s, "  \"total_sim_cycles\": {},", summary.total_sim_cycles());
    let _ = writeln!(s, "  \"jobs_failed\": {},", summary.failed());
    s.push_str("  \"jobs\": [");
    for (i, r) in summary.results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let sim_cycles = r.output.as_ref().map_or(0, |o| o.sim_cycles);
        let _ = write!(
            s,
            "\n    {{\"name\": \"{}\", \"fingerprint\": \"{}\", \"status\": \"{}\", \
             \"sim_cycles\": {sim_cycles}, \"wall\": {}",
            escape(&r.name),
            r.fingerprint.hex(),
            r.status.label(),
            BenchSample::single(r.wall_ns).json(),
        );
        if let Some(metrics) = r.output.as_ref().map(|o| &o.metrics) {
            if !metrics.is_empty() {
                s.push_str(", \"metrics\": {");
                for (j, (k, v)) in metrics.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "\"{}\": {v}", escape(k));
                }
                s.push('}');
            }
        }
        match &r.status {
            JobStatus::Failed(msg) | JobStatus::Skipped(msg) => {
                let _ = write!(s, ", \"error\": \"{}\"", escape(msg));
            }
            _ => {}
        }
        s.push('}');
    }
    if !summary.results.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Escapes a string for a JSON string literal; the report and the
/// result cache share it (it mirrors `t3_trace::metrics::escape_json`,
/// duplicated to keep this crate dependency-free).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;
    use crate::job::{Job, JobGraph, JobOutput};
    use crate::scheduler::{run, RunOptions};

    #[test]
    fn from_samples_summarises() {
        let s = BenchSample::from_samples(&[30, 10, 20]);
        assert_eq!(s.iters, 3);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.median_ns, 20);
        assert_eq!(s.mean_ns, 20);
    }

    #[test]
    fn single_is_degenerate() {
        let s = BenchSample::single(42);
        assert_eq!(s, BenchSample::from_samples(&[42]));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        BenchSample::from_samples(&[]);
    }

    #[test]
    fn report_lists_every_job_with_status() {
        let mut g = JobGraph::new();
        let fp = |n: &str| FingerprintBuilder::new().str("t", n).finish();
        g.add(Job::new("ok_job", fp("ok"), || {
            let mut o = JobOutput::text("fine\n");
            o.sim_cycles = 1000;
            o.metrics.insert("speedup_wall_permille".into(), 2500);
            o
        }));
        g.add(Job::new("bad_job", fp("bad"), || panic!("report me")));
        let summary = run(g, &RunOptions::with_workers(2));
        let json = report_json(&summary);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"name\": \"ok_job\""));
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("\"error\": \"report me\""));
        assert!(json.contains("\"sim_cycles\": 1000"));
        assert!(json.contains("\"metrics\": {\"speedup_wall_permille\": 2500}"));
        assert!(json.contains("\"jobs_failed\": 1"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }
}
