//! One replay of a workload: set-up, the serving run, the offline
//! analysis (on `observe`) and the checks of its outputs.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proteus::core::system::{DeviceStats, HotPathStats, ReplanRecord, RunOutcome, ServingSystem};
use proteus::metrics::{Bucket, RunSummary};
use proteus::trace::{
    blame, collapse_flame, parse_jsonl, span_trees, JsonlSink, NullSink, TraceSink,
};
use proteus::workloads::QueryArrival;

use crate::layers::{
    AllocCounters, BatchCounters, SinkCounters, TimedAllocator, TimedBatching, TimedSink,
};
use crate::spans::{Clock, SpanLog};
use crate::workload::{self, Workload};

/// How a replay departs from the plain workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Exactly the workload: what the end-to-end runs time.
    Plain,
    /// The plan auditor on (`SystemConfig::audit`).
    Audited,
    /// The telemetry plane off (only differs on `observe`).
    TelemetryOff,
}

/// The shared counter blocks the layer wrappers of one replay report into.
#[derive(Debug, Default)]
pub struct Probes {
    /// Allocator boundary.
    pub alloc: Arc<Mutex<AllocCounters>>,
    /// Batching boundary.
    pub batch: Arc<Mutex<BatchCounters>>,
}

/// Results of the offline trace analysis on `observe`.
#[derive(Debug, Default)]
pub struct Analysis {
    /// JSONL decode into events.
    pub parse: Duration,
    /// SLO-violation blame attribution.
    pub blame: Duration,
    /// Per-query span-tree construction.
    pub span_trees: Duration,
    /// Collapsed-stack flame export.
    pub flame: Duration,
    /// Span trees built.
    pub trees: usize,
    /// Blame verdicts (one per violation).
    pub verdicts: usize,
}

impl Analysis {
    /// Parse + blame + span trees + flame.
    pub fn total(&self) -> Duration {
        self.parse + self.blame + self.span_trees + self.flame
    }
}

/// Everything one replay measured and produced.
#[derive(Debug)]
pub struct Replay {
    /// Queries replayed.
    pub queries: usize,
    /// Arrival generation.
    pub gen: Duration,
    /// `ServingSystem::new`, whose work is `ProfileStore::build`.
    pub store_build: Duration,
    /// Generation + system construction.
    pub setup: Duration,
    /// The serving run plus `metrics.summary()`.
    pub run: Duration,
    /// `metrics.summary()` alone.
    pub summary_time: Duration,
    /// The run's outcome.
    pub outcome: RunOutcome,
    /// The run's summary.
    pub summary: RunSummary,
    /// What the trace boundary saw (zero unless the replay was wrapped).
    pub sink: SinkCounters,
    /// JSONL bytes recorded (0 unless the workload records a trace).
    pub trace_bytes: u64,
    /// Offline analysis, on workloads that record a trace.
    pub analysis: Option<Analysis>,
    /// Span of the serving run, when the clock logs spans.
    pub run_span: Option<usize>,
    /// Failed output checks, empty when every check passed.
    pub failures: Vec<String>,
}

/// Replays `workload` with arrival seed `seed`.
///
/// With `probes`, the allocator, batching policy and trace sink are
/// wrapped in the layer timers, which report into the probes and (for
/// allocator calls) into the span log.
pub fn replay(
    workload: Workload,
    seed: u64,
    variant: Variant,
    clock: Clock<'_>,
    probes: Option<(&Probes, &Arc<Mutex<SpanLog>>)>,
) -> Replay {
    let ((arrivals, mut system, gen, store_build), setup, _) = clock.time("setup", || {
        let (arrivals, gen, _) = clock.time("workloads.gen", || workload.arrivals(seed));
        let mut config = workload.config(&arrivals);
        match variant {
            Variant::Audited => config.audit = true,
            Variant::TelemetryOff => config.telemetry = None,
            Variant::Plain => {}
        }
        let (mut allocator, mut batching) = (workload::allocator(), workload::batching());
        if let Some((p, spans)) = probes {
            allocator = Box::new(TimedAllocator::new(
                allocator,
                Arc::clone(&p.alloc),
                Arc::clone(spans),
            ));
            batching = Box::new(TimedBatching::new(batching, Arc::clone(&p.batch)));
        }
        let (system, store_build, _) = clock.time("profiler.store_build", || {
            ServingSystem::new(config, allocator, batching)
        });
        (arrivals, system, gen, store_build)
    });

    let timed = probes.is_some();
    let (run, sink, trace_bytes) = if workload.records_trace() {
        let (run, jsonl, sink) = serve(
            &mut system,
            &arrivals,
            JsonlSink::new(Vec::new()),
            timed,
            clock,
        );
        // Writing into a Vec cannot fail.
        let bytes = jsonl.finish().unwrap_or_default();
        (run, sink, Some(bytes))
    } else {
        let (run, _, sink) = serve(&mut system, &arrivals, NullSink, timed, clock);
        (run, sink, None)
    };
    if let (Some(p), Some(span)) = (probes, run.span) {
        let b = *crate::layers::lock(&p.0.batch);
        clock.aggregate("core.batching.decide", Some(span), b.busy, b.decides);
        clock.aggregate("trace.record", Some(span), sink.busy, sink.records);
    }

    let trace_len = trace_bytes.as_ref().map_or(0, |b| b.len() as u64);
    let mut failures = Vec::new();
    let analysis = trace_bytes.map(|bytes| {
        let (result, _, _) = clock.time("analysis", || analyse(bytes, clock));
        result.unwrap_or_else(|e| {
            failures.push(e);
            Analysis::default()
        })
    });
    failures.extend(check(
        &arrivals,
        &run.outcome,
        &run.summary,
        analysis.as_ref(),
        variant,
    ));

    Replay {
        queries: arrivals.len(),
        gen,
        store_build,
        setup,
        run: run.wall,
        summary_time: run.summary_time,
        outcome: run.outcome,
        summary: run.summary,
        sink,
        trace_bytes: trace_len,
        analysis,
        run_span: run.span,
        failures,
    }
}

struct Served {
    outcome: RunOutcome,
    summary: RunSummary,
    wall: Duration,
    summary_time: Duration,
    span: Option<usize>,
}

/// The timed region: the serving run and the summary a caller reads.
fn serve<S: TraceSink>(
    system: &mut ServingSystem,
    arrivals: &[QueryArrival],
    sink: S,
    timed: bool,
    clock: Clock<'_>,
) -> (Served, S, SinkCounters) {
    fn go(
        system: &mut ServingSystem,
        arrivals: &[QueryArrival],
        sink: &mut dyn TraceSink,
        clock: Clock<'_>,
    ) -> Served {
        let ((outcome, summary, summary_time), wall, span) = clock.time("run", || {
            let outcome = system.run_traced(arrivals, sink);
            let (summary, summary_time, _) =
                clock.time("metrics.summary", || outcome.metrics.summary());
            (outcome, summary, summary_time)
        });
        Served {
            outcome,
            summary,
            wall,
            summary_time,
            span,
        }
    }
    if timed {
        let mut wrapped = TimedSink::new(sink);
        let served = go(system, arrivals, &mut wrapped, clock);
        let counters = wrapped.counters;
        (served, wrapped.into_inner(), counters)
    } else {
        let mut sink = sink;
        let served = go(system, arrivals, &mut sink, clock);
        (served, sink, SinkCounters::default())
    }
}

/// The operator's offline analysis of a recorded JSONL trace.
fn analyse(bytes: Vec<u8>, clock: Clock<'_>) -> Result<Analysis, String> {
    let (events, parse, _) = clock.time("trace.parse", || {
        let text = String::from_utf8(bytes).map_err(|e| format!("trace is not UTF-8: {e}"))?;
        parse_jsonl(&text).map_err(|e| format!("trace does not parse: {e}"))
    });
    let events = events?;
    let (report, blame_t, _) = clock.time("trace.blame", || blame(&events));
    let (trees, trees_t, _) = clock.time("trace.span_trees", || span_trees(&events));
    let (flame, flame_t, _) = clock.time("trace.flame", || collapse_flame(&trees));
    if flame.is_empty() {
        return Err("flame profile is empty".to_string());
    }
    if let Some(t) = trees.iter().find(|t| t.invariant_gap() != 0) {
        return Err(format!(
            "span tree of query {} misses its latency by {} ns",
            t.query,
            t.invariant_gap()
        ));
    }
    Ok(Analysis {
        parse,
        blame: blame_t,
        span_trees: trees_t,
        flame: flame_t,
        trees: trees.len(),
        verdicts: report.total(),
    })
}

/// Checks one replay's outputs; returns the failed checks.
fn check(
    arrivals: &[QueryArrival],
    outcome: &RunOutcome,
    s: &RunSummary,
    analysis: Option<&Analysis>,
    variant: Variant,
) -> Vec<String> {
    let mut failures = Vec::new();
    let n = arrivals.len() as u64;
    if s.total_arrived != n || s.total_served + s.total_dropped != s.total_arrived {
        failures.push(format!(
            "conservation: {n} replayed, {} arrived, {} served + {} dropped",
            s.total_arrived, s.total_served, s.total_dropped
        ));
    }
    if outcome.audit_violations != 0 {
        failures.push(format!("{} audit violations", outcome.audit_violations));
    }
    if variant == Variant::Audited && outcome.plan_audits == 0 {
        failures.push("auditor on but no plan was audited".to_string());
    }
    if let Some(a) = analysis {
        if a.trees as u64 != n {
            failures.push(format!("{} span trees for {n} queries", a.trees));
        }
        if a.verdicts as u64 != s.total_violations {
            failures.push(format!(
                "blame gave {} verdicts for {} violations",
                a.verdicts, s.total_violations
            ));
        }
    }
    failures
}

/// Everything a run simulated. Two replays of one instance must agree on
/// all of it, whatever wrappers, auditor or telemetry they ran with.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    summary: RunSummary,
    buckets: Vec<Bucket>,
    replans: Vec<ReplanRecord>,
    devices: Vec<DeviceStats>,
    hot: HotPathStats,
    counts: [u64; 6],
}

impl Fingerprint {
    /// The simulated results of `r`; host wall times are left out.
    pub fn of(r: &Replay) -> Self {
        let o = &r.outcome;
        Self {
            summary: r.summary.clone(),
            buckets: o.metrics.timeseries(),
            replans: o
                .replan_log
                .iter()
                .map(|rec| ReplanRecord {
                    wall_secs: 0.0,
                    ..*rec
                })
                .collect(),
            devices: o.device_stats.clone(),
            hot: o.hot_stats,
            counts: [
                o.reallocations.into(),
                o.burst_reallocations.into(),
                o.plans_discarded.into(),
                o.replans_coalesced.into(),
                o.shrunk_plans.into(),
                o.provisioned_devices.into(),
            ],
        }
    }
}
