//! Shared experiment harness for the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). This library centralizes the contender
//! line-up, the standard workload, and result-table helpers so that all
//! experiments agree on their setup.

#![forbid(unsafe_code)]

pub mod fig10;

use std::hint::black_box;
use std::time::{Duration, Instant};

use proteus_core::batching::{AimdBatching, BatchPolicy, NexusBatching, ProteusBatching};
use proteus_core::schedulers::{
    Allocator, ClipperAllocator, ClipperMode, InfaasAccuracyAllocator, ProteusAllocator,
    SommelierAllocator,
};
use proteus_core::system::{RunOutcome, ServingSystem, SystemConfig};
use proteus_metrics::RunSummary;
use proteus_workloads::{DemandTrace, DiurnalTrace, QueryArrival, TraceBuilder};

/// One contender: a display name plus factory closures for its allocator
/// and batching policy (fresh state per run).
pub struct Contender {
    /// Name as shown in result tables (matches the paper's legend).
    pub name: &'static str,
    allocator: fn() -> Box<dyn Allocator>,
    batching: fn() -> Box<dyn BatchPolicy>,
}

impl Contender {
    /// Creates a contender from factory functions.
    pub fn new(
        name: &'static str,
        allocator: fn() -> Box<dyn Allocator>,
        batching: fn() -> Box<dyn BatchPolicy>,
    ) -> Self {
        Self {
            name,
            allocator,
            batching,
        }
    }

    /// Instantiates the allocator.
    pub fn allocator(&self) -> Box<dyn Allocator> {
        (self.allocator)()
    }

    /// Instantiates the batching policy prototype.
    pub fn batching(&self) -> Box<dyn BatchPolicy> {
        (self.batching)()
    }
}

/// The five systems of the end-to-end comparison (§6.1.1), with the
/// batching each uses in the paper: Clipper runs its own AIMD, Sommelier is
/// extended with Proteus batching, INFaaS' batching is tied to its
/// allocation (approximated by the work-conserving early-drop policy), and
/// Proteus runs its own adaptive batching.
pub fn paper_contenders() -> Vec<Contender> {
    vec![
        Contender {
            name: "Clipper-HA",
            allocator: || Box::new(ClipperAllocator::new(ClipperMode::HighAccuracy)),
            batching: || Box::new(AimdBatching::default()),
        },
        Contender {
            name: "Clipper-HT",
            allocator: || Box::new(ClipperAllocator::new(ClipperMode::HighThroughput)),
            batching: || Box::new(AimdBatching::default()),
        },
        Contender {
            name: "Sommelier",
            allocator: || Box::new(SommelierAllocator::default()),
            batching: || Box::new(ProteusBatching),
        },
        Contender {
            name: "INFaaS-Accuracy",
            allocator: || Box::new(InfaasAccuracyAllocator::default()),
            batching: || Box::new(NexusBatching),
        },
        Contender {
            name: "Proteus",
            allocator: || Box::new(ProteusAllocator::default()),
            batching: || Box::new(ProteusBatching),
        },
    ]
}

/// The standard 24-minute Twitter-like workload of the end-to-end
/// experiments: diurnal with two peaks, base 200 → peak 1000 QPS, Zipf
/// split across the nine applications (§6.1.3).
pub fn paper_trace(seed: u64) -> (DiurnalTrace, Vec<QueryArrival>) {
    let trace = DiurnalTrace::paper_like(24 * 60, 200.0, 1000.0, seed);
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(seed)
        .build(&trace);
    (trace, arrivals)
}

/// Runs one contender on a trace with the given config.
pub fn run_contender(
    contender: &Contender,
    config: SystemConfig,
    arrivals: &[QueryArrival],
) -> RunOutcome {
    let mut system = ServingSystem::new(config, contender.allocator(), contender.batching());
    system.run(arrivals)
}

/// Formats the standard per-system summary row used by several figures:
/// `[name, avg throughput, effective accuracy %, max drop %, violation ratio]`.
pub fn summary_row(name: &str, summary: &RunSummary) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", summary.avg_throughput_qps),
        format!("{:.2}", summary.effective_accuracy_pct()),
        format!("{:.2}", summary.max_accuracy_drop_pct()),
        format!("{:.4}", summary.slo_violation_ratio),
    ]
}

/// Standard headers matching [`summary_row`].
pub fn summary_headers() -> Vec<&'static str> {
    vec![
        "system",
        "avg throughput (QPS)",
        "effective acc (%)",
        "max acc drop (%)",
        "SLO violation ratio",
    ]
}

/// Per-minute aggregation of a 1-second bucket series (for compact
/// timeseries tables).
pub fn per_minute(series: &[f64]) -> Vec<f64> {
    series
        .chunks(60)
        .map(|c| c.iter().sum::<f64>() / c.len().max(1) as f64)
        .collect()
}

/// Prints the demand curve of a trace per minute (the "Demand" series every
/// timeseries figure carries).
pub fn demand_per_minute(trace: &dyn DemandTrace) -> Vec<f64> {
    let series: Vec<f64> = (0..trace.duration_secs())
        .map(|s| trace.qps_at(s))
        .collect();
    per_minute(&series)
}

/// Mean wall time of one call of `f`: the call count doubles until a
/// round takes at least 100 ms, and the last round's mean is returned.
pub fn time_per_call<T>(mut f: impl FnMut() -> T) -> Duration {
    let mut calls = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(100) || calls == 1 << 30 {
            return elapsed / calls;
        }
        calls *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_workloads::FlatTrace;

    #[test]
    fn contender_lineup_matches_paper() {
        let names: Vec<&str> = paper_contenders().iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec![
                "Clipper-HA",
                "Clipper-HT",
                "Sommelier",
                "INFaaS-Accuracy",
                "Proteus"
            ]
        );
    }

    #[test]
    fn contenders_produce_fresh_instances() {
        let c = &paper_contenders()[4];
        assert_eq!(c.allocator().name(), "proteus");
        assert_eq!(c.batching().name(), "proteus");
    }

    #[test]
    fn per_minute_averages() {
        let series: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let mins = per_minute(&series);
        assert_eq!(mins.len(), 2);
        assert!((mins[0] - 29.5).abs() < 1e-9);
        assert!((mins[1] - 89.5).abs() < 1e-9);
    }

    #[test]
    fn run_contender_smoke() {
        let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
            .seed(1)
            .build(&FlatTrace { qps: 30.0, secs: 5 });
        let outcome = run_contender(&paper_contenders()[4], SystemConfig::small(), &arrivals);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
    }
}
