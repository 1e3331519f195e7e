//! What every workload shares: the run context, the operation ledger, the
//! metric list, and latency summaries.

use crate::json::Json;
use crate::stats;
use std::path::PathBuf;

/// Resolved once in `main` from the command line.
pub struct Ctx {
    /// `--seed`: vertex relabelling of the stream (see `inputs::build_stream`).
    pub seed: u64,
    /// `--holdout`: the roster family not used while tuning.
    pub family: &'static str,
    /// `--smoke`: miniature streams, with rosters blessed on the spot (into
    /// a scratch directory) instead of the pinned ones.
    pub smoke: bool,
    /// `benchmark/` in the checkout.
    pub bench_dir: PathBuf,
    /// Where the run's roster files are: `benchmark/rosters`, or the smoke
    /// run's scratch directory.
    pub rosters: PathBuf,
    /// Where `run.sh` built the harness and `tcsm-serviced`.
    pub bin_dir: PathBuf,
}

impl Ctx {
    pub fn results_dir(&self) -> PathBuf {
        let d = self.bench_dir.join("results");
        std::fs::create_dir_all(&d).expect("create benchmark/results");
        d
    }
}

/// A scratch directory under `benchmark/results`, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(bench_dir: &std::path::Path, tag: &str) -> TempDir {
        let d = bench_dir
            .join("results")
            .join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch dir");
        TempDir(d)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations attempted and failed: queries finishing inside their budget,
/// steps answered, admissions accepted, and every correctness check.
/// `solved_share = 1 − failed / attempted`.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn solved_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        assert!(self.0.iter().all(|m| m.name != name), "duplicate {name}");
        self.0.push(Metric { name, unit, value });
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj([("value", m.value.into()), ("unit", m.unit.into())]),
                    )
                })
                .collect(),
        )
    }
}

pub struct RunOutput {
    pub ledger: Ledger,
    pub metrics: Metrics,
    /// Resolved constants and sample counts, stamped into the report.
    pub notes: Vec<(&'static str, Json)>,
}

/// Latency samples in nanoseconds, summarised in microseconds.
#[derive(Default)]
pub struct Latencies(pub Vec<u64>);

pub struct LatencySummary {
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Highest ladder percentile with ≥ 10 samples beyond it, and its value.
    pub top_pct: f64,
    pub top_us: f64,
}

impl LatencySummary {
    /// Sample count and the highest supported percentile, for the report.
    pub fn notes(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("step_latency_samples", (self.count as u64).into()),
            ("step_latency_p99_us", self.p99_us.into()),
            ("step_latency_top_pct", self.top_pct.into()),
            ("step_latency_top_us", self.top_us.into()),
        ]
    }
}

impl Latencies {
    pub fn summary(&mut self) -> LatencySummary {
        self.0.sort_unstable();
        let us = |ns: u64| ns as f64 / 1_000.0;
        let top_pct = stats::highest_supported(self.0.len())
            .expect("a latency metric needs at least twenty samples");
        LatencySummary {
            count: self.0.len(),
            p50_us: us(stats::percentile_sorted(&self.0, 50.0)),
            p99_us: us(stats::percentile_sorted(&self.0, 99.0)),
            top_pct,
            top_us: us(stats::percentile_sorted(&self.0, top_pct)),
        }
    }
}
