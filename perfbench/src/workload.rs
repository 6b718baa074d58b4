//! The three benchmark workloads and how each one's inputs are made from
//! the seed.
//!
//! Every workload is an open loop in simulated time: each arrival is
//! delivered at its scheduled instant whatever the backlog, so queues grow
//! until `queue_cap` and then drop. On the host it is a single-threaded
//! replay from one process.

use proteus::core::batching::{BatchPolicy, ProteusBatching};
use proteus::core::schedulers::{Allocator, ProteusAllocator};
use proteus::core::system::{SolveLatency, SystemConfig, TelemetryConfig};
use proteus::sim::{FaultSchedule, SimTime};
use proteus::workloads::{BurstyTrace, DiurnalTrace, QueryArrival, TraceBuilder};

/// Queries in one `fig4` replay: the ROADMAP headline scale.
const FIG4_QUERIES: usize = 1_000_000;

/// Length of one `observe` replay's diurnal curve, seconds: two whole
/// 200→1000 QPS cycles, ~60k queries. Offline span-tree construction
/// grows faster than linearly with trace length; at this size the whole
/// analysis takes about a second on a 2-core host. The curve is not cut,
/// so the replay does not end on a partial second at peak demand.
const OBSERVE_SECS: u32 = 110;

/// Fault-schedule seed of `replan_storm`. The storm is part of the
/// workload's definition, so only the arrivals follow `--seed`.
const STORM_FAULT_SEED: u64 = 7;

/// Re-allocation period of `replan_storm`, seconds (the paper uses 30 s).
const STORM_REALLOC_SECS: f64 = 5.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 4 operating point: diurnal 200→1000 QPS, the data path
    /// does most of the work.
    Fig4,
    /// The Fig. 5 step burst with a 5 s replan period, modelled solve
    /// windows and a seeded fault storm: the control plane does most of
    /// the work.
    ReplanStorm,
    /// `fig4` arrivals with telemetry on and a JSONL trace recorded into
    /// memory, followed by the operator's offline trace analysis.
    Observe,
}

impl Workload {
    /// Parses a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fig4" => Some(Self::Fig4),
            "replan_storm" => Some(Self::ReplanStorm),
            "observe" => Some(Self::Observe),
            _ => None,
        }
    }

    /// The workload's name, as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fig4 => "fig4",
            Self::ReplanStorm => "replan_storm",
            Self::Observe => "observe",
        }
    }

    /// Replays whose simulated results an end-to-end run pools: enough
    /// distinct arrival seeds that the pooled ratios vary little from one
    /// `--seed` to the next, and about as many as fit in a 30 s run.
    pub fn pool(self) -> u64 {
        match self {
            Self::Fig4 | Self::Observe => 24,
            Self::ReplanStorm => 16,
        }
    }

    /// Whether the workload records a trace and analyses it afterwards.
    pub fn records_trace(self) -> bool {
        self == Self::Observe
    }

    /// The arrivals of one replay.
    pub fn arrivals(self, seed: u64) -> Vec<QueryArrival> {
        match self {
            Self::Fig4 => diurnal(FIG4_QUERIES, seed),
            Self::Observe => TraceBuilder::new(TraceBuilder::paper_families())
                .seed(seed)
                .build(&DiurnalTrace::paper_like(OBSERVE_SECS, 200.0, 1000.0, seed)),
            Self::ReplanStorm => TraceBuilder::new(TraceBuilder::paper_families())
                .seed(seed)
                .build(&BurstyTrace::paper_like(200.0, 1100.0)),
        }
    }

    /// The system configuration of one replay over `arrivals`. Tracing,
    /// telemetry and the plan auditor are off unless the workload needs
    /// them; the traced pass turns the auditor on separately.
    pub fn config(self, arrivals: &[QueryArrival]) -> SystemConfig {
        let mut config = SystemConfig::paper_testbed();
        match self {
            Self::Fig4 => {}
            Self::Observe => config.telemetry = Some(TelemetryConfig::default()),
            Self::ReplanStorm => {
                config.realloc_period_secs = STORM_REALLOC_SECS;
                config.solve_latency = SolveLatency::Model;
                let horizon = arrivals.last().map_or(SimTime::ZERO, |a| a.at);
                config.faults = FaultSchedule::seeded_random(
                    STORM_FAULT_SEED,
                    horizon,
                    config.cluster.len() as u32,
                );
            }
        }
        config
    }
}

/// Proteus's MILP allocator, as every workload uses it.
pub fn allocator() -> Box<dyn Allocator> {
    Box::new(ProteusAllocator::default())
}

/// Proteus's batching policy, as every workload uses it.
pub fn batching() -> Box<dyn BatchPolicy> {
    Box::new(ProteusBatching)
}

/// A fig4-shaped arrival trace cut to exactly `queries` arrivals: the
/// paper-like 200→1000 QPS diurnal curve with the Zipf family split, sized
/// generously and then truncated, so the count does not depend on Poisson
/// noise. This is the construction `bench_sim_json` uses, so `queries =
/// 1_000_000, seed = 42` is its headline instance.
pub fn diurnal(queries: usize, seed: u64) -> Vec<QueryArrival> {
    // ~550 QPS mean for the 200->1000 curve; oversize by 25 %.
    let secs = ((queries as f64 / 550.0) * 1.25).ceil().max(60.0) as u32;
    let curve = DiurnalTrace::paper_like(secs, 200.0, 1000.0, seed);
    let mut arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(seed)
        .build(&curve);
    arrivals.truncate(queries);
    arrivals
}

/// The arrival seed of replay `index` of a run started with `seed`.
/// Replay 0 uses the seed itself, so `--seed 42` replays the default
/// instance first; later replays are spread over the seed space.
pub fn replay_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
