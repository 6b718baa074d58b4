//! Causal span layer: folds the flat event stream into one span tree per
//! query, with typed causal edges and an additive critical-path
//! decomposition of end-to-end latency.
//!
//! The flat recorder answers "what happened"; this module answers *why a
//! query took as long as it did*. For every terminal query it reconstructs
//! a timeline from arrival to terminal event and partitions every
//! nanosecond of it into exactly one [`Segment`]:
//!
//! * **retry** — time before the query's final placement (crash salvage,
//!   plan-displacement re-enqueues);
//! * **queue** — the target worker was executing *other* batches;
//! * **load** — the target worker was swapping model variants;
//! * **stale-plan** — the worker sat idle while a control-plane solve
//!   window was open (the system was serving under a stale plan);
//! * **batch-wait** — the worker was idle with no excuse (the batching
//!   policy held the query back);
//! * **exec** — the query's own batch was executing.
//!
//! The partition is computed by a boundary sweep over the worker's
//! recorded intervals, so the segments are disjoint and tile the whole
//! timeline: **they sum to the observed end-to-end latency exactly**, by
//! construction ([`SpanTree::invariant_gap`] is zero on every query of
//! every trace — the property tests in `proteus-core` drive this over
//! chaos schedules).

use proteus_profiler::{DeviceId, ModelFamily, VariantId};
use proteus_sim::SimTime;

use crate::event::{DropReason, EventKind, TraceEvent};
use crate::interval::{ByDevice, IdMap, IntervalIndex};

/// One additive critical-path segment class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Pre-placement time: crash salvage and displacement re-enqueues.
    Retry,
    /// The worker was busy executing other batches.
    Queue,
    /// The worker was loading a model variant.
    Load,
    /// The worker was idle inside an open solve window (stale plan).
    StalePlan,
    /// The worker was idle with no open solve window.
    BatchWait,
    /// The query's own batch was executing.
    Exec,
}

impl Segment {
    /// Every segment, in waterfall order.
    pub const ALL: [Segment; 6] = [
        Segment::Retry,
        Segment::Queue,
        Segment::Load,
        Segment::StalePlan,
        Segment::BatchWait,
        Segment::Exec,
    ];

    /// Stable label used in reports, flame stacks and diffs.
    pub fn label(self) -> &'static str {
        match self {
            Segment::Retry => "retry",
            Segment::Queue => "queue",
            Segment::Load => "load",
            Segment::StalePlan => "stale_plan",
            Segment::BatchWait => "batch_wait",
            Segment::Exec => "exec",
        }
    }

    /// Parses a label back into a segment.
    pub fn parse(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }
}

/// How the query's lifecycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Served within its SLO.
    OnTime,
    /// Served after the deadline.
    Late,
    /// Never served.
    Dropped(DropReason),
}

impl Outcome {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::OnTime => "on_time",
            Outcome::Late => "late",
            Outcome::Dropped(_) => "dropped",
        }
    }

    /// Whether this outcome violates the SLO.
    pub fn is_violation(self) -> bool {
        !matches!(self, Outcome::OnTime)
    }
}

/// A typed causal edge explaining part of a query's latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CausalEdge {
    /// The query entered a queue while `batch` was executing: it could not
    /// start before that batch drained.
    QueuedBehind {
        /// The batch executing on the worker at enqueue time.
        batch: u64,
    },
    /// The query waited while its worker loaded a variant.
    WaitedOnLoad {
        /// The loading worker.
        device: DeviceId,
        /// The variant being loaded (`None` = unload).
        variant: Option<VariantId>,
        /// Wait-window time spent under the load.
        stall: SimTime,
    },
    /// The query waited idle under an open solve window and was served
    /// under the plan that eventually committed.
    ServedUnderStalePlan {
        /// Plan epoch (count of applied plans) in force at serve time.
        epoch: u64,
        /// Idle wait-window time inside open solve windows.
        overlap: SimTime,
    },
    /// The query was salvaged from a crashed device and re-placed.
    RetriedAfterCrash {
        /// The device it was salvaged from.
        device: DeviceId,
        /// 1-based retry attempt.
        attempt: u32,
    },
}

/// One contiguous, single-segment interval of a query's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The segment class covering this interval.
    pub segment: Segment,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

impl Span {
    /// Interval length.
    pub fn dur(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// The reconstructed span tree of one terminal query: its timeline tiled
/// by [`Span`]s, the per-segment totals, and the causal edges explaining
/// the expensive parts.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The query.
    pub query: u64,
    /// Arrival instant (timeline start).
    pub start: SimTime,
    /// Terminal instant (timeline end).
    pub end: SimTime,
    /// How the lifecycle ended.
    pub outcome: Outcome,
    /// The query's model family, when the trace recorded its arrival.
    pub family: Option<ModelFamily>,
    /// The worker of its final placement, if it was ever enqueued.
    pub device: Option<DeviceId>,
    /// Plan epoch it was served under (0 for drops and pre-epoch traces).
    pub epoch: u64,
    /// Disjoint spans tiling `start..end`, in time order.
    pub spans: Vec<Span>,
    /// Typed causal edges, in discovery order.
    pub edges: Vec<CausalEdge>,
}

impl SpanTree {
    /// End-to-end observed latency (terminal − arrival).
    pub fn observed(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// Total time attributed to one segment class.
    pub fn segment_total(&self, segment: Segment) -> SimTime {
        total(&self.spans, segment)
    }

    /// Nanoseconds by which the segment sum misses the observed latency.
    /// Zero on every query by construction; the property tests assert it.
    pub fn invariant_gap(&self) -> u64 {
        let sum: u64 = self.spans.iter().map(|s| s.dur().as_nanos()).sum();
        sum.abs_diff(self.observed().as_nanos())
    }

    /// The segment holding the single largest share of the latency
    /// (ties break in waterfall order).
    pub fn dominant(&self) -> Segment {
        let mut best = Segment::Retry;
        let mut best_ns = 0u64;
        for s in Segment::ALL {
            let ns = self.segment_total(s).as_nanos();
            if ns > best_ns {
                best = s;
                best_ns = ns;
            }
        }
        best
    }
}

/// Total time `spans` attribute to one segment class.
fn total(spans: &[Span], segment: Segment) -> SimTime {
    spans
        .iter()
        .filter(|s| s.segment == segment)
        .map(|s| s.dur())
        .sum()
}

/// A query's wait window `[placement, serving exec start)` (to the terminal
/// if no batch of its started inside; empty if never placed), and the part
/// of it the serving batch's own execution covers.
pub(crate) type Window = (SimTime, SimTime, SimTime);

/// Per-device interval timelines and per-query tables, harvested in one
/// pass over the trace. Span trees and blame verdicts are both read from
/// them.
pub(crate) struct Timelines {
    /// Device → `(start, until, batch)` execution intervals.
    execs: ByDevice<u64>,
    /// Device → `(start, until, (event index, variant))` load intervals.
    loads: ByDevice<(usize, Option<VariantId>)>,
    /// Open solve windows `(start, until)` (never overlapping: at most one
    /// solve is in flight).
    solves: IntervalIndex<()>,
    /// Query → arrival `(at, family)`.
    arrived: IdMap<u64, (SimTime, ModelFamily)>,
    /// Query → final placement `(at, device, behind)`.
    enqueued: IdMap<u64, (SimTime, DeviceId, Option<u64>)>,
    /// Query → the last batch it joined (`(device, batch)`): the one that
    /// served it.
    last_batch: IdMap<u64, (u32, u64)>,
    /// Query → the batches it joined before its last one, which crashes
    /// rolled back. Rarely filled.
    earlier: IdMap<u64, Vec<(u32, u64)>>,
    /// `(device, batch)` → exec start.
    exec_start: IdMap<(u32, u64), SimTime>,
    /// Query → crash-salvage retries `(from, attempt)`.
    retries: IdMap<u64, Vec<(DeviceId, u32)>>,
}

pub(crate) fn harvest(events: &[TraceEvent]) -> Timelines {
    let mut execs: IdMap<u32, Vec<_>> = IdMap::default();
    let mut loads: IdMap<u32, Vec<_>> = IdMap::default();
    let mut solves = Vec::new();
    let mut arrived = IdMap::default();
    let mut enqueued = IdMap::default();
    let mut last_batch = IdMap::default();
    let mut earlier: IdMap<u64, Vec<_>> = IdMap::default();
    let mut exec_start = IdMap::default();
    let mut retries: IdMap<u64, Vec<_>> = IdMap::default();
    for (i, e) in events.iter().enumerate() {
        match &e.kind {
            EventKind::Arrived { query, family } => {
                arrived.entry(*query).or_insert((e.at, *family));
            }
            EventKind::Enqueued {
                query,
                device,
                behind,
                ..
            } => {
                // Last placement wins: that is the queue the query is
                // actually served (or dies) in.
                enqueued.insert(*query, (e.at, *device, *behind));
            }
            EventKind::BatchFormed {
                device,
                batch,
                queries,
            } => {
                for q in queries {
                    if let Some(prev) = last_batch.insert(*q, (device.0, *batch)) {
                        earlier.entry(*q).or_default().push(prev);
                    }
                }
            }
            EventKind::ExecStarted {
                device,
                batch,
                until,
                ..
            } => {
                execs
                    .entry(device.0)
                    .or_default()
                    .push((e.at, *until, *batch));
                exec_start.insert((device.0, *batch), e.at);
            }
            EventKind::ModelLoadStarted {
                device,
                variant,
                until,
            } => {
                loads
                    .entry(device.0)
                    .or_default()
                    .push((e.at, *until, (i, *variant)));
            }
            EventKind::SolveStarted { until, .. } => {
                solves.push((e.at, *until, ()));
            }
            EventKind::QueryRetried {
                query,
                from,
                attempt,
            } => {
                retries.entry(*query).or_default().push((*from, *attempt));
            }
            _ => {}
        }
    }
    // A device's next load supersedes any still in flight (the engine
    // abandons it), so each load ends no later than the next one starts.
    for device_loads in loads.values_mut() {
        device_loads.sort_by_key(|&(start, _, _)| start);
        let mut next_start = SimTime::MAX;
        for (start, until, _) in device_loads.iter_mut().rev() {
            *until = (*until).min(next_start);
            next_start = *start;
        }
    }
    Timelines {
        execs: ByDevice::new(execs),
        loads: ByDevice::new(loads),
        solves: IntervalIndex::new(solves),
        arrived,
        enqueued,
        last_batch,
        earlier,
        exec_start,
        retries,
    }
}

impl Timelines {
    /// Whether `query` ever joined `batch` (`(device, batch)`).
    fn joined(&self, query: u64, batch: (u32, u64)) -> bool {
        self.last_batch.get(&query) == Some(&batch)
            || self
                .earlier
                .get(&query)
                .is_some_and(|earlier| earlier.contains(&batch))
    }

    /// Total overlap of `[lo, hi)` with the solve windows.
    pub(crate) fn solve_overlap(&self, lo: SimTime, hi: SimTime) -> SimTime {
        SimTime::from_nanos(
            self.solves
                .overlapping(lo, hi)
                .iter()
                .map(|&(a, b, ())| overlap(lo, hi, a, b))
                .sum(),
        )
    }
}

/// Nanoseconds `[a0, a1)` and `[b0, b1)` share.
fn overlap(a0: SimTime, a1: SimTime, b0: SimTime, b1: SimTime) -> u64 {
    a1.min(b1).saturating_sub(a0.max(b0)).as_nanos()
}

/// Wait-window coverage classes, in precedence order (highest first).
/// An elementary sub-interval covered by several classes is charged to the
/// highest one, which keeps the partition disjoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Class {
    OwnExec,
    OtherExec,
    Load,
    Solve,
}

impl Class {
    fn segment(self) -> Segment {
        match self {
            Class::OwnExec => Segment::Exec,
            Class::OtherExec => Segment::Queue,
            Class::Load => Segment::Load,
            Class::Solve => Segment::StalePlan,
        }
    }
}

/// Partitions `[start, end)` against classed intervals by a boundary
/// sweep, appending one span per elementary sub-interval (uncovered time
/// becomes `BatchWait`). Adjacent spans of the same segment are merged.
pub(crate) fn sweep(
    start: SimTime,
    end: SimTime,
    intervals: &[(SimTime, SimTime, Class)],
    out: &mut Vec<Span>,
) {
    if end <= start {
        return;
    }
    let (s, e) = (start.as_nanos(), end.as_nanos());
    let mut cuts: Vec<u64> = Vec::with_capacity(2 + 2 * intervals.len());
    cuts.extend([s, e]);
    for &(a, b, _) in intervals {
        let (a, b) = (a.as_nanos(), b.as_nanos());
        if b > s && a < e {
            cuts.push(a.clamp(s, e));
            cuts.push(b.clamp(s, e));
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let class = intervals
            .iter()
            .filter(|&&(a, b, _)| a.as_nanos() <= lo && b.as_nanos() >= hi)
            .map(|&(_, _, c)| c)
            .min();
        let segment = class.map_or(Segment::BatchWait, Class::segment);
        push_span(out, segment, lo, hi);
    }
}

/// Appends a span, merging with the previous one when contiguous and of
/// the same segment.
pub(crate) fn push_span(out: &mut Vec<Span>, segment: Segment, lo: u64, hi: u64) {
    if hi <= lo {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.segment == segment && last.end.as_nanos() == lo {
            last.end = SimTime::from_nanos(hi);
            return;
        }
    }
    out.push(Span {
        segment,
        start: SimTime::from_nanos(lo),
        end: SimTime::from_nanos(hi),
    });
}

/// Builds the span tree of one terminal event, with its wait window.
/// `terminal` is the `Served*`/`Dropped` event; returns `None` for
/// non-terminal kinds. `intervals` is scratch space, reused across calls.
pub(crate) fn build_tree(
    t: &Timelines,
    terminal: &TraceEvent,
    intervals: &mut Vec<(SimTime, SimTime, Class)>,
) -> Option<(SpanTree, Window)> {
    let (query, outcome, epoch) = match &terminal.kind {
        EventKind::ServedOnTime { query, epoch, .. } => (*query, Outcome::OnTime, *epoch),
        EventKind::ServedLate { query, epoch, .. } => (*query, Outcome::Late, *epoch),
        EventKind::Dropped { query, reason } => (*query, Outcome::Dropped(*reason), 0),
        _ => return None,
    };
    let end = terminal.at;
    let arrival = t.arrived.get(&query).copied();
    let placement = t.enqueued.get(&query).copied();
    let family = arrival.map(|(_, f)| f);
    // The timeline starts at arrival or, in a trace that did not record
    // it, at the final placement.
    let start = arrival
        .map(|(at, _)| at)
        .or(placement.map(|(at, _, _)| at))
        .map_or(end, |at| at.min(end));
    let device = placement.map(|(_, d, _)| d);
    // The serving batch is the last one the query joined; earlier ones were
    // rolled back by crashes.
    let serving = t.last_batch.get(&query).copied();
    let mut spans = Vec::new();
    let mut edges = Vec::new();
    let mut wait = (end, end, SimTime::ZERO);

    for &(from, attempt) in t.retries.get(&query).map_or(&[][..], Vec::as_slice) {
        edges.push(CausalEdge::RetriedAfterCrash {
            device: from,
            attempt,
        });
    }

    if let Some((enq_at, dev, behind)) = placement {
        let enq_at = enq_at.clamp(start, end);
        // Everything before the final placement is retry/displacement.
        push_span(
            &mut spans,
            Segment::Retry,
            start.as_nanos(),
            enq_at.as_nanos(),
        );
        if let Some(batch) = behind {
            edges.push(CausalEdge::QueuedBehind { batch });
        }
        // The wait window closes at the serving batch's exec start (served
        // queries) or at the terminal instant (drops).
        let exec_start = serving
            .and_then(|key| t.exec_start.get(&key).copied())
            .filter(|&at| at >= enq_at && at <= end);
        let window_end = exec_start.unwrap_or(end);
        let mut serving_exec = 0;

        // Only intervals overlapping the wait window can cover any of it,
        // so the index's run yields the same partition and edges as the
        // device's whole timeline would.
        intervals.clear();
        for &(a, b, batch) in t.execs.overlapping(dev.0, enq_at, window_end) {
            if serving == Some((dev.0, batch)) {
                serving_exec += overlap(enq_at, window_end, a, b);
            }
            let class = if t.joined(query, (dev.0, batch)) {
                Class::OwnExec
            } else {
                Class::OtherExec
            };
            intervals.push((a, b, class));
        }
        let loads = t.loads.overlapping(dev.0, enq_at, window_end);
        for &(a, b, _) in loads {
            intervals.push((a, b, Class::Load));
        }
        for &(a, b, ()) in t.solves.overlapping(enq_at, window_end) {
            intervals.push((a, b, Class::Solve));
        }
        sweep(enq_at, window_end, intervals, &mut spans);
        wait = (enq_at, window_end, SimTime::from_nanos(serving_exec));
        // The query's own execution: exec start → terminal.
        push_span(
            &mut spans,
            Segment::Exec,
            window_end.as_nanos(),
            end.as_nanos(),
        );

        // Edges for the expensive wait classes.
        let load_total = total(&spans, Segment::Load);
        if load_total > SimTime::ZERO {
            // Blame the load with the largest clipped overlap; ties go to
            // the one recorded last.
            let best = loads
                .iter()
                .map(|&(a, b, (seq, v))| (overlap(enq_at, window_end, a, b), seq, v))
                .max_by_key(|&(overlap, seq, _)| (overlap, seq))
                .and_then(|(_, _, v)| v);
            edges.push(CausalEdge::WaitedOnLoad {
                device: dev,
                variant: best,
                stall: load_total,
            });
        }
        let stale_total = total(&spans, Segment::StalePlan);
        if stale_total > SimTime::ZERO {
            edges.push(CausalEdge::ServedUnderStalePlan {
                epoch,
                overlap: stale_total,
            });
        }
    } else {
        // Never enqueued (sheds at admission): the whole — usually empty —
        // timeline is retry-free batch-wait.
        push_span(
            &mut spans,
            Segment::BatchWait,
            start.as_nanos(),
            end.as_nanos(),
        );
    }

    let tree = SpanTree {
        query,
        start,
        end,
        outcome,
        family,
        device,
        epoch,
        spans,
        edges,
    };
    debug_assert_eq!(tree.invariant_gap(), 0, "query {query} segments must tile");
    Some((tree, wait))
}

/// Folds a trace into one span tree per terminal query, in terminal-event
/// order.
pub fn span_trees(events: &[TraceEvent]) -> Vec<SpanTree> {
    let t = harvest(events);
    let mut scratch = Vec::new();
    events
        .iter()
        .filter_map(|e| build_tree(&t, e, &mut scratch).map(|(tree, _)| tree))
        .collect()
}

/// The span tree of one query, if it reached a terminal event.
pub fn span_tree(events: &[TraceEvent], query: u64) -> Option<SpanTree> {
    let t = harvest(events);
    events
        .iter()
        .filter(|e| e.kind.query() == Some(query) && e.kind.is_terminal())
        .find_map(|e| build_tree(&t, e, &mut Vec::new()).map(|(tree, _)| tree))
}

/// Renders collapsed-stack (inferno/speedscope-compatible) lines from span
/// trees: one `family;device;segment <microseconds>` frame stack per
/// aggregate, sorted for deterministic output. Feed the result to any
/// flamegraph renderer to see where the cluster's latency went.
pub fn collapse_flame(trees: &[SpanTree]) -> String {
    let mut agg: IdMap<(Option<ModelFamily>, Option<DeviceId>, Segment), u64> = IdMap::default();
    for tree in trees {
        for s in &tree.spans {
            *agg.entry((tree.family, tree.device, s.segment))
                .or_insert(0) += s.dur().as_nanos();
        }
    }
    // Labels are distinct per key, so sorting the formatted lines gives
    // the same order whatever the map's.
    let mut lines: Vec<String> = agg
        .into_iter()
        .filter(|&(_, nanos)| nanos >= 1_000)
        .map(|((family, device, segment), nanos)| {
            let family = family.map_or("unknown", |f| f.label());
            let device = device.map_or("none".to_string(), |d| d.to_string());
            format!("{family};{device};{} {}", segment.label(), nanos / 1_000)
        })
        .collect();
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReplanCause;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ev(ms: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { at: t(ms), kind }
    }

    fn variant() -> VariantId {
        VariantId {
            family: ModelFamily::ResNet,
            index: 0,
        }
    }

    /// q2 arrives at 0, waits behind batch 1 (0–100), is served late by
    /// batch 2 (100–200). A solve window 40–60 opens while d0 is busy.
    fn queued_trace() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 2,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 2,
                    device: DeviceId(0),
                    depth: 2,
                    behind: Some(1),
                },
            ),
            ev(
                0,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(100),
                },
            ),
            ev(
                40,
                EventKind::SolveStarted {
                    cause: ReplanCause::Periodic,
                    until: t(60),
                },
            ),
            ev(
                100,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 2,
                    queries: vec![2],
                },
            ),
            ev(
                100,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 2,
                    variant: variant(),
                    size: 1,
                    until: t(200),
                },
            ),
            ev(
                200,
                EventKind::ServedLate {
                    query: 2,
                    latency: t(200),
                    epoch: 3,
                },
            ),
        ]
    }

    #[test]
    fn queue_then_exec_decomposes_additively() {
        let tree = span_tree(&queued_trace(), 2).unwrap();
        assert_eq!(tree.observed(), t(200));
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Queue), t(100));
        assert_eq!(tree.segment_total(Segment::Exec), t(100));
        assert_eq!(tree.segment_total(Segment::StalePlan), SimTime::ZERO);
        assert_eq!(tree.dominant(), Segment::Queue);
        assert_eq!(tree.outcome, Outcome::Late);
        assert_eq!(tree.epoch, 3);
        assert!(tree
            .edges
            .iter()
            .any(|e| matches!(e, CausalEdge::QueuedBehind { batch: 1 })));
        // The solve window is fully covered by the busy worker, so no
        // stale-plan edge appears.
        assert!(!tree
            .edges
            .iter()
            .any(|e| matches!(e, CausalEdge::ServedUnderStalePlan { .. })));
    }

    #[test]
    fn idle_solve_window_becomes_stale_plan() {
        // Worker idle 0–500 while a solve runs 100–400: the idle wait
        // splits batch_wait / stale_plan / batch_wait.
        let events = vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 1,
                    family: ModelFamily::Gpt2,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                100,
                EventKind::SolveStarted {
                    cause: ReplanCause::Burst,
                    until: t(400),
                },
            ),
            ev(
                500,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 1,
                    queries: vec![1],
                },
            ),
            ev(
                500,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(600),
                },
            ),
            ev(
                600,
                EventKind::ServedLate {
                    query: 1,
                    latency: t(600),
                    epoch: 5,
                },
            ),
        ];
        let tree = span_tree(&events, 1).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::StalePlan), t(300));
        assert_eq!(tree.segment_total(Segment::BatchWait), t(200));
        assert_eq!(tree.segment_total(Segment::Exec), t(100));
        assert!(matches!(
            tree.edges
                .iter()
                .find(|e| matches!(e, CausalEdge::ServedUnderStalePlan { .. })),
            Some(CausalEdge::ServedUnderStalePlan { epoch: 5, overlap }) if *overlap == t(300)
        ));
        // Waterfall spans tile the timeline in order.
        assert_eq!(tree.spans.first().unwrap().start, t(0));
        assert_eq!(tree.spans.last().unwrap().end, t(600));
        for w in tree.spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn load_stall_gets_an_edge() {
        let events = vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 1,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(3),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                0,
                EventKind::ModelLoadStarted {
                    device: DeviceId(3),
                    variant: Some(variant()),
                    until: t(900),
                },
            ),
            ev(
                900,
                EventKind::BatchFormed {
                    device: DeviceId(3),
                    batch: 1,
                    queries: vec![1],
                },
            ),
            ev(
                900,
                EventKind::ExecStarted {
                    device: DeviceId(3),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(950),
                },
            ),
            ev(
                950,
                EventKind::ServedLate {
                    query: 1,
                    latency: t(950),
                    epoch: 1,
                },
            ),
        ];
        let tree = span_tree(&events, 1).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Load), t(900));
        assert!(matches!(
            tree.edges
                .iter()
                .find(|e| matches!(e, CausalEdge::WaitedOnLoad { .. })),
            Some(CausalEdge::WaitedOnLoad { device, variant: Some(v), stall })
                if device.0 == 3 && v.index == 0 && *stall == t(900)
        ));
    }

    #[test]
    fn crash_salvage_charges_retry() {
        // q1 enqueued on d0 at 0; d0 crashes at 50; salvaged to d1 and
        // served at 150. Time before the final placement is retry.
        let events = vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 1,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                50,
                EventKind::WorkerCrashed {
                    device: DeviceId(0),
                },
            ),
            ev(
                50,
                EventKind::QueryRetried {
                    query: 1,
                    from: DeviceId(0),
                    attempt: 1,
                },
            ),
            ev(
                50,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(1),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                60,
                EventKind::BatchFormed {
                    device: DeviceId(1),
                    batch: 7,
                    queries: vec![1],
                },
            ),
            ev(
                60,
                EventKind::ExecStarted {
                    device: DeviceId(1),
                    batch: 7,
                    variant: variant(),
                    size: 1,
                    until: t(150),
                },
            ),
            ev(
                150,
                EventKind::ServedOnTime {
                    query: 1,
                    latency: t(150),
                    epoch: 2,
                },
            ),
        ];
        let tree = span_tree(&events, 1).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Retry), t(50));
        assert_eq!(tree.segment_total(Segment::BatchWait), t(10));
        assert_eq!(tree.segment_total(Segment::Exec), t(90));
        assert_eq!(tree.device, Some(DeviceId(1)));
        assert!(matches!(
            tree.edges.first(),
            Some(CausalEdge::RetriedAfterCrash { device, attempt: 1 }) if device.0 == 0
        ));
    }

    #[test]
    fn shed_drop_is_a_zero_tree() {
        let events = vec![
            ev(
                5,
                EventKind::Arrived {
                    query: 9,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                5,
                EventKind::Dropped {
                    query: 9,
                    reason: DropReason::QueueFull,
                },
            ),
        ];
        let tree = span_tree(&events, 9).unwrap();
        assert_eq!(tree.observed(), SimTime::ZERO);
        assert_eq!(tree.invariant_gap(), 0);
        assert!(tree.outcome.is_violation());
        assert!(tree.spans.is_empty());
    }

    #[test]
    fn expiry_drop_decomposes_without_exec() {
        let events = vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 3,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 3,
                    device: DeviceId(0),
                    depth: 1,
                    behind: Some(1),
                },
            ),
            ev(
                0,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(400),
                },
            ),
            ev(
                300,
                EventKind::Dropped {
                    query: 3,
                    reason: DropReason::Expired,
                },
            ),
        ];
        let tree = span_tree(&events, 3).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Queue), t(300));
        assert_eq!(tree.segment_total(Segment::Exec), SimTime::ZERO);
    }

    #[test]
    fn every_terminal_gets_a_tree_and_the_invariant_holds() {
        let trees = span_trees(&queued_trace());
        assert_eq!(trees.len(), 1);
        for tree in &trees {
            assert_eq!(tree.invariant_gap(), 0, "query {}", tree.query);
        }
        assert!(span_tree(&queued_trace(), 999).is_none());
    }

    #[test]
    fn flame_lines_are_deterministic_and_aggregated() {
        let flame = collapse_flame(&span_trees(&queued_trace()));
        assert_eq!(flame, "ResNet;d0;exec 100000\nResNet;d0;queue 100000\n");
        assert_eq!(collapse_flame(&[]), "");
    }

    #[test]
    fn segment_labels_round_trip() {
        for s in Segment::ALL {
            assert_eq!(Segment::parse(s.label()), Some(s));
        }
        assert_eq!(Segment::parse("nope"), None);
    }
}
