//! Differential oracle for the interval-indexed span trees and the blame
//! fold over them.
//!
//! [`full_scan_span_trees`] and [`full_scan_blame`] are the earlier
//! implementations, which hand every exec, load and solve interval of a
//! query's device to the overlap code instead of the index's run, and
//! which decompose each violation by summing its window's overlaps with
//! the device's timeline instead of reading its span tree. They are kept
//! here, outside every runtime path, as the reference:
//!
//! * on the chaos schedules [`span_trees`] and [`blame`] must equal them
//!   exactly;
//! * on the paper-testbed runs the span trees must be equal, and the
//!   verdicts too, except for exactly 23 in one run, which differ only in
//!   `model_load`: there two recorded loads overlap and the reference
//!   counts the overlap twice;
//! * on hand-built traces with overlapping, out-of-order and zero-length
//!   intervals the span trees must still be equal, and a verdict must equal
//!   the reference whenever both see the same wait window and no two of
//!   the device's intervals overlap inside it. Where the intervals overlap
//!   the reference double-counts, and the fold's components must tile the
//!   tree's window instead. Where the windows differ, the verdict must be
//!   one of the two window shapes [`compare`] names and the tree's window
//!   must be the one the placement and serving exec start give.

use std::collections::HashMap;

use proteus_profiler::{DeviceId, ModelFamily, VariantId};
use proteus_sim::SimTime;

use crate::analysis::{blame, BlameCause, BlameReport, BlameVerdict};
use crate::event::{DropReason, EventKind, ReplanCause, TraceEvent};
use crate::span::{
    push_span, span_trees, sweep, CausalEdge, Class, Outcome, Segment, SpanTree, Window,
};

/// Per-device interval timelines, kept as plain vectors in stream order.
struct FullScan {
    execs: HashMap<u32, Vec<(SimTime, SimTime, u64)>>,
    loads: HashMap<u32, Vec<(SimTime, SimTime, Option<VariantId>)>>,
    solves: Vec<(SimTime, SimTime)>,
    arrived: HashMap<u64, (SimTime, ModelFamily)>,
    enqueued: HashMap<u64, (SimTime, DeviceId, Option<u64>)>,
    member_of: HashMap<u64, Vec<(u32, u64)>>,
    exec_start: HashMap<(u32, u64), SimTime>,
    retries: HashMap<u64, Vec<(DeviceId, u32)>>,
}

fn harvest(events: &[TraceEvent]) -> FullScan {
    let mut t = FullScan {
        execs: HashMap::new(),
        loads: HashMap::new(),
        solves: Vec::new(),
        arrived: HashMap::new(),
        enqueued: HashMap::new(),
        member_of: HashMap::new(),
        exec_start: HashMap::new(),
        retries: HashMap::new(),
    };
    for e in events {
        match &e.kind {
            EventKind::Arrived { query, family } => {
                t.arrived.entry(*query).or_insert((e.at, *family));
            }
            EventKind::Enqueued {
                query,
                device,
                behind,
                ..
            } => {
                t.enqueued.insert(*query, (e.at, *device, *behind));
            }
            EventKind::BatchFormed {
                device,
                batch,
                queries,
            } => {
                for q in queries {
                    t.member_of.entry(*q).or_default().push((device.0, *batch));
                }
            }
            EventKind::ExecStarted {
                device,
                batch,
                until,
                ..
            } => {
                t.execs
                    .entry(device.0)
                    .or_default()
                    .push((e.at, *until, *batch));
                t.exec_start.insert((device.0, *batch), e.at);
            }
            EventKind::ModelLoadStarted {
                device,
                variant,
                until,
            } => {
                t.loads
                    .entry(device.0)
                    .or_default()
                    .push((e.at, *until, *variant));
            }
            EventKind::SolveStarted { until, .. } => {
                t.solves.push((e.at, *until));
            }
            EventKind::QueryRetried {
                query,
                from,
                attempt,
            } => {
                t.retries.entry(*query).or_default().push((*from, *attempt));
            }
            _ => {}
        }
    }
    t
}

fn build_tree(t: &FullScan, terminal: &TraceEvent) -> Option<SpanTree> {
    let (query, outcome, epoch) = match &terminal.kind {
        EventKind::ServedOnTime { query, epoch, .. } => (*query, Outcome::OnTime, *epoch),
        EventKind::ServedLate { query, epoch, .. } => (*query, Outcome::Late, *epoch),
        EventKind::Dropped { query, reason } => (*query, Outcome::Dropped(*reason), 0),
        _ => return None,
    };
    let end = terminal.at;
    let placement = t.enqueued.get(&query).copied();
    let family = t.arrived.get(&query).map(|&(_, f)| f);
    let start = match (t.arrived.get(&query), placement) {
        (Some(&(at, _)), _) | (None, Some((at, _, _))) => at.min(end),
        (None, None) => end,
    };
    let device = placement.map(|(_, d, _)| d);
    let own: &[(u32, u64)] = t.member_of.get(&query).map_or(&[], Vec::as_slice);
    let serving = own.last().copied();
    let mut spans = Vec::new();
    let mut edges = Vec::new();

    for &(from, attempt) in t.retries.get(&query).map_or(&[][..], Vec::as_slice) {
        edges.push(CausalEdge::RetriedAfterCrash {
            device: from,
            attempt,
        });
    }

    if let Some((enq_at, dev, behind)) = placement {
        let enq_at = enq_at.clamp(start, end);
        push_span(
            &mut spans,
            Segment::Retry,
            start.as_nanos(),
            enq_at.as_nanos(),
        );
        if let Some(batch) = behind {
            edges.push(CausalEdge::QueuedBehind { batch });
        }
        let exec_start = serving
            .and_then(|key| t.exec_start.get(&key).copied())
            .filter(|&at| at >= enq_at && at <= end);
        let window_end = exec_start.unwrap_or(end);

        let mut intervals: Vec<(SimTime, SimTime, Class)> = Vec::new();
        for &(a, b, batch) in t.execs.get(&dev.0).map_or(&[][..], Vec::as_slice) {
            let class = if own.contains(&(dev.0, batch)) {
                Class::OwnExec
            } else {
                Class::OtherExec
            };
            intervals.push((a, b, class));
        }
        for &(a, b, _) in t.loads.get(&dev.0).map_or(&[][..], Vec::as_slice) {
            intervals.push((a, b, Class::Load));
        }
        for &(a, b) in &t.solves {
            intervals.push((a, b, Class::Solve));
        }
        sweep(enq_at, window_end, &intervals, &mut spans);
        push_span(
            &mut spans,
            Segment::Exec,
            window_end.as_nanos(),
            end.as_nanos(),
        );

        let load_total: u64 = spans
            .iter()
            .filter(|s| s.segment == Segment::Load)
            .map(|s| s.dur().as_nanos())
            .sum();
        if load_total > 0 {
            let best = t
                .loads
                .get(&dev.0)
                .and_then(|loads| {
                    loads
                        .iter()
                        .map(|&(a, b, v)| {
                            let lo = a.max(enq_at).as_nanos();
                            let hi = b.min(window_end).as_nanos();
                            (hi.saturating_sub(lo), v)
                        })
                        .max_by_key(|&(overlap, _)| overlap)
                })
                .map(|(_, v)| v);
            edges.push(CausalEdge::WaitedOnLoad {
                device: dev,
                variant: best.flatten(),
                stall: SimTime::from_nanos(load_total),
            });
        }
        let stale_total: u64 = spans
            .iter()
            .filter(|s| s.segment == Segment::StalePlan)
            .map(|s| s.dur().as_nanos())
            .sum();
        if stale_total > 0 {
            edges.push(CausalEdge::ServedUnderStalePlan {
                epoch,
                overlap: SimTime::from_nanos(stale_total),
            });
        }
    } else {
        push_span(
            &mut spans,
            Segment::BatchWait,
            start.as_nanos(),
            end.as_nanos(),
        );
    }

    Some(SpanTree {
        query,
        start,
        end,
        outcome,
        family,
        device,
        epoch,
        spans,
        edges,
    })
}

/// [`span_trees`] by a full scan of each query's device timeline.
fn full_scan_span_trees(events: &[TraceEvent]) -> Vec<SpanTree> {
    let t = harvest(events);
    events.iter().filter_map(|e| build_tree(&t, e)).collect()
}

/// [`blame`] by a full scan of each query's device timeline.
fn full_scan_blame(events: &[TraceEvent]) -> BlameReport {
    BlameReport {
        verdicts: full_scan_verdicts(events)
            .into_iter()
            .map(|(v, _)| v)
            .collect(),
    }
}

/// The reference's wait window of one decomposed verdict: its device and
/// `[start, end)`.
type RefWindow = Option<(DeviceId, SimTime, SimTime)>;

/// The reference verdicts, each with its wait window (`None` for shed and
/// device-failure drops).
fn full_scan_verdicts(events: &[TraceEvent]) -> Vec<(BlameVerdict, RefWindow)> {
    let t = harvest(events);
    let mut serving_batch: HashMap<u64, (DeviceId, u64)> = HashMap::new();
    for e in events {
        if let EventKind::BatchFormed {
            device,
            batch,
            queries,
        } = &e.kind
        {
            for q in queries {
                serving_batch.insert(*q, (*device, *batch));
            }
        }
    }
    let overlap = |a0: SimTime, a1: SimTime, b0: SimTime, b1: SimTime| -> u64 {
        let lo = a0.max(b0).as_nanos();
        let hi = a1.min(b1).as_nanos();
        hi.saturating_sub(lo)
    };
    let shed = |query: u64, at: SimTime, cause: BlameCause| BlameVerdict {
        query,
        at,
        cause,
        queueing: SimTime::ZERO,
        model_load: SimTime::ZERO,
        batch_wait: SimTime::ZERO,
        stale_plan: SimTime::ZERO,
    };

    let mut verdicts = Vec::new();
    for e in events {
        let (query, window_end, expired) = match &e.kind {
            EventKind::ServedLate { query, .. } => {
                let end = serving_batch
                    .get(query)
                    .and_then(|&(d, b)| t.exec_start.get(&(d.0, b)))
                    .copied();
                (*query, end, false)
            }
            EventKind::Dropped { query, reason } => {
                if *reason == DropReason::DeviceFailed {
                    verdicts.push((shed(*query, e.at, BlameCause::DeviceFailure), None));
                    continue;
                }
                if reason.is_shed() {
                    verdicts.push((shed(*query, e.at, BlameCause::Shed), None));
                    continue;
                }
                (*query, Some(e.at), true)
            }
            _ => continue,
        };
        let (start, device) = match t.enqueued.get(&query) {
            Some(&(at, d, _)) => (at, d),
            None => (e.at, DeviceId(u32::MAX)),
        };
        let end = window_end.unwrap_or(start);
        let own_batch = serving_batch.get(&query).copied();

        let load_ns: u64 = t
            .loads
            .get(&device.0)
            .map(|v| v.iter().map(|&(a, b, _)| overlap(start, end, a, b)).sum())
            .unwrap_or(0);
        let busy_ns: u64 = t
            .execs
            .get(&device.0)
            .map(|v| {
                v.iter()
                    .filter(|&&(_, _, b)| own_batch != Some((device, b)))
                    .map(|&(a, b, _)| overlap(start, end, a, b))
                    .sum()
            })
            .unwrap_or(0);
        let window_ns = end.saturating_sub(start).as_nanos();
        let wait_ns = window_ns.saturating_sub(load_ns + busy_ns);
        let stale_ns: u64 = t
            .solves
            .iter()
            .map(|&(a, b)| overlap(start, end, a, b))
            .sum();

        let cause = if window_ns == 0 {
            if expired {
                BlameCause::Queueing
            } else {
                BlameCause::BatchWait
            }
        } else if busy_ns >= load_ns && busy_ns >= wait_ns {
            BlameCause::Queueing
        } else if load_ns >= wait_ns {
            BlameCause::ModelLoad
        } else {
            BlameCause::BatchWait
        };
        let verdict = BlameVerdict {
            query,
            at: e.at,
            cause,
            queueing: SimTime::from_nanos(busy_ns),
            model_load: SimTime::from_nanos(load_ns),
            batch_wait: SimTime::from_nanos(wait_ns),
            stale_plan: SimTime::from_nanos(stale_ns),
        };
        verdicts.push((verdict, Some((device, start, end))));
    }
    verdicts
}

/// Asserts that the indexed span trees equal the full-scan ones.
fn assert_trees_agree(events: &[TraceEvent], context: &str) {
    let indexed = span_trees(events);
    let reference = full_scan_span_trees(events);
    assert_eq!(indexed.len(), reference.len(), "{context}: tree count");
    for (got, want) in indexed.iter().zip(&reference) {
        assert_eq!(got, want, "{context}: span tree of query {}", want.query);
    }
}

/// Asserts that span trees and blame equal the full-scan reference
/// exactly: the contract on engine-recorded traces.
fn assert_agree(events: &[TraceEvent], context: &str) {
    assert_trees_agree(events, context);
    let (got, want) = (blame(events), full_scan_blame(events));
    assert_eq!(got.total(), want.total(), "{context}: verdict count");
    for (got, want) in got.verdicts.iter().zip(&want.verdicts) {
        assert_eq!(got, want, "{context}: verdict of query {}", want.query);
    }
}

/// How the verdicts of one trace compared with the reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Comparison {
    /// Equal to the reference: same window, no overlapping intervals.
    equal: usize,
    /// Two of the device's exec and load intervals overlap inside the
    /// window, which the reference counts twice.
    overlapping: usize,
    /// The reference read another window than the span tree holds (see
    /// [`compare`]).
    other_window: usize,
}

impl std::ops::AddAssign for Comparison {
    fn add_assign(&mut self, other: Self) {
        self.equal += other.equal;
        self.overlapping += other.overlapping;
        self.other_window += other.other_window;
    }
}

/// Whether two of `intervals`, clipped to `[lo, hi)`, share a nanosecond.
fn any_overlap(intervals: &[(SimTime, SimTime)], lo: SimTime, hi: SimTime) -> bool {
    let mut clipped: Vec<(SimTime, SimTime)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| b > a)
        .collect();
    clipped.sort_unstable();
    clipped.windows(2).any(|w| w[1].0 < w[0].1)
}

/// Checks a trace against the reference and counts how each decomposed
/// verdict compared:
///
/// * the span trees are equal, and every undecomposed verdict is equal;
/// * a verdict whose window differs from the reference's has one of the
///   two shapes an engine never records: a late response whose serving
///   batch has no exec start inside `[placement, terminal]`, or a drop
///   whose serving batch started inside that range (the tree's window
///   closes at the exec start, the reference's at the drop);
/// * a verdict with the reference's window in which no two of the
///   device's exec and load intervals overlap equals the reference
///   exactly;
/// * every decomposed verdict tiles its span tree's window, with
///   `model_load` equal to the tree's `load` total.
fn compare(events: &[TraceEvent], context: &str) -> Comparison {
    assert_trees_agree(events, context);
    let got = blame(events);
    let want = full_scan_verdicts(events);
    assert_eq!(got.total(), want.len(), "{context}: verdict count");
    let t = crate::span::harvest(events);
    let mut scratch = Vec::new();
    let violations: Vec<(SpanTree, Window)> = events
        .iter()
        .filter_map(|e| crate::span::build_tree(&t, e, &mut scratch))
        .filter(|(tree, _)| tree.outcome.is_violation())
        .collect();
    let reference = harvest(events);
    let mut cmp = Comparison::default();
    for ((v, (want, window)), (tree, (lo, hi, _))) in
        got.verdicts.iter().zip(&want).zip(&violations)
    {
        let context = format!("{context}: query {}", v.query);
        let Some((device, start, end)) = *window else {
            assert_eq!(v, want, "{context}: undecomposed verdict");
            continue;
        };
        if hi > lo {
            let tiled = v.queueing + v.model_load + v.batch_wait;
            assert_eq!(tiled, hi.saturating_sub(*lo), "{context}: components tile");
            assert_eq!(v.model_load, tree.segment_total(Segment::Load), "{context}");
        }
        let same_window = (lo, hi) == (&start, &end) || (hi <= lo && end <= start);
        if !same_window {
            let serving_start = reference
                .member_of
                .get(&v.query)
                .and_then(|batches| batches.last())
                .and_then(|key| reference.exec_start.get(key))
                .copied();
            let placed = reference.enqueued.get(&v.query).map(|&(at, _, _)| at);
            let in_wait = match (placed, serving_start) {
                (Some(placed), Some(at)) => at >= placed && at <= v.at,
                _ => false,
            };
            let late = tree.outcome == Outcome::Late;
            assert!(
                late != in_wait,
                "{context}: undocumented window: tree {lo:?}..{hi:?}, reference {start:?}..{end:?}"
            );
            // The tree's window runs from the placement to the serving exec
            // start if that lies in the wait, else to the terminal.
            let close = serving_start.filter(|_| in_wait).unwrap_or(tree.end);
            let opened = placed.map_or(tree.end, |at| at.clamp(tree.start, tree.end));
            assert_eq!((*lo, *hi), (opened, close), "{context}: tree window");
            cmp.other_window += 1;
            continue;
        }
        let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
        if let Some(execs) = reference.execs.get(&device.0) {
            intervals.extend(execs.iter().map(|&(a, b, _)| (a, b)));
        }
        if let Some(loads) = reference.loads.get(&device.0) {
            intervals.extend(loads.iter().map(|&(a, b, _)| (a, b)));
        }
        if any_overlap(&intervals, start, end) {
            cmp.overlapping += 1;
        } else {
            assert_eq!(v, want, "{context}: verdict");
            cmp.equal += 1;
        }
    }
    cmp
}

/// A small deterministic generator (xorshift64*), so the random traces
/// need no RNG dependency.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn ev(ms: u64, kind: EventKind) -> TraceEvent {
    TraceEvent {
        at: SimTime::from_millis(ms),
        kind,
    }
}

fn variant(index: u8) -> VariantId {
    VariantId {
        family: ModelFamily::ResNet,
        index,
    }
}

/// A random trace on three devices whose exec, load and solve intervals
/// overlap each other, include zero-length ones, and reach the stream
/// out of start order (the events are shuffled before return).
fn random_trace(seed: u64) -> Vec<TraceEvent> {
    let mut rng = Xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut events = Vec::new();
    let mut batches: Vec<(u32, u64)> = Vec::new();
    for device in 0..3u32 {
        for batch in 0..12u64 {
            let start = rng.below(1000);
            // One interval in four is zero-length.
            let len = if rng.below(4) == 0 { 0 } else { rng.below(150) };
            events.push(ev(
                start,
                EventKind::ExecStarted {
                    device: DeviceId(device),
                    batch,
                    variant: variant(0),
                    size: 1,
                    until: SimTime::from_millis(start + len),
                },
            ));
            batches.push((device, batch));
        }
        for _ in 0..4 {
            let start = rng.below(1000);
            let len = if rng.below(4) == 0 { 0 } else { rng.below(300) };
            let loaded = (rng.below(3) > 0).then(|| variant(rng.below(4) as u8));
            let load = ev(
                start,
                EventKind::ModelLoadStarted {
                    device: DeviceId(device),
                    variant: loaded,
                    until: SimTime::from_millis(start + len),
                },
            );
            // A duplicate with another variant ties on every overlap.
            if rng.below(3) == 0 {
                let mut twin = load.clone();
                if let EventKind::ModelLoadStarted { variant: v, .. } = &mut twin.kind {
                    *v = Some(variant(7));
                }
                events.push(twin);
            }
            events.push(load);
        }
    }
    for _ in 0..4 {
        let start = rng.below(1000);
        let len = if rng.below(4) == 0 { 0 } else { rng.below(200) };
        events.push(ev(
            start,
            EventKind::SolveStarted {
                cause: ReplanCause::Periodic,
                until: SimTime::from_millis(start + len),
            },
        ));
    }
    for query in 0..40u64 {
        let arrive = rng.below(1000);
        events.push(ev(
            arrive,
            EventKind::Arrived {
                query,
                family: ModelFamily::ResNet,
            },
        ));
        let device = DeviceId(rng.below(3) as u32);
        if rng.below(8) > 0 {
            if rng.below(4) == 0 {
                events.push(ev(
                    arrive + rng.below(50),
                    EventKind::QueryRetried {
                        query,
                        from: DeviceId(rng.below(3) as u32),
                        attempt: 1,
                    },
                ));
            }
            events.push(ev(
                arrive + rng.below(100),
                EventKind::Enqueued {
                    query,
                    device,
                    depth: 1,
                    behind: (rng.below(2) == 0).then(|| rng.below(12)),
                },
            ));
            for _ in 0..rng.below(3) {
                let (d, batch) = batches[rng.below(batches.len() as u64) as usize];
                // Mostly batches on the query's own device.
                let d = if rng.below(4) == 0 { d } else { device.0 };
                events.push(ev(
                    arrive,
                    EventKind::BatchFormed {
                        device: DeviceId(d),
                        batch,
                        queries: vec![query],
                    },
                ));
            }
        }
        let end = arrive + rng.below(600);
        let kind = match rng.below(4) {
            0 => EventKind::ServedOnTime {
                query,
                latency: SimTime::from_millis(end - arrive),
                epoch: 1,
            },
            1 => EventKind::ServedLate {
                query,
                latency: SimTime::from_millis(end - arrive),
                epoch: 2,
            },
            _ => EventKind::Dropped {
                query,
                reason: DropReason::ALL[rng.below(5) as usize],
            },
        };
        events.push(ev(end, kind));
    }
    // Fisher-Yates: the stream no longer arrives in time order.
    for i in (1..events.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        events.swap(i, j);
    }
    events
}

#[test]
fn agrees_on_random_overlapping_out_of_order_traces() {
    let mut total = Comparison::default();
    for seed in 0..300 {
        total += compare(&random_trace(seed), &format!("random trace {seed}"));
    }
    // Every class of verdict is exercised, and most decomposed ones
    // compare equal.
    assert!(total.overlapping > 0 && total.other_window > 0, "{total:?}");
    assert!(total.equal > total.overlapping, "{total:?}");
}

/// q1 waits on d0 from 0 ms. Batch 1 was recorded to run 0–300 ms but is
/// cut short by a crash at 100; after recovery batch 2 runs 250–350,
/// overlapping batch 1's recorded interval. Two loads then cover 350–400
/// and 300–350, each overlapping the wait by 50 ms, and batch 3 serves q1
/// at 400. The exec, load and solve events reach the stream out of start
/// order.
fn crash_truncated_trace() -> Vec<TraceEvent> {
    let exec = |ms: u64, batch: u64, until: u64| {
        ev(
            ms,
            EventKind::ExecStarted {
                device: DeviceId(0),
                batch,
                variant: variant(0),
                size: 1,
                until: SimTime::from_millis(until),
            },
        )
    };
    let load = |ms: u64, index: u8, until: u64| {
        ev(
            ms,
            EventKind::ModelLoadStarted {
                device: DeviceId(0),
                variant: Some(variant(index)),
                until: SimTime::from_millis(until),
            },
        )
    };
    vec![
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
                depth: 2,
                behind: Some(1),
            },
        ),
        exec(250, 2, 350),
        exec(0, 1, 300),
        ev(
            100,
            EventKind::WorkerCrashed {
                device: DeviceId(0),
            },
        ),
        ev(
            200,
            EventKind::WorkerRecovered {
                device: DeviceId(0),
            },
        ),
        // Equal overlaps, recorded out of start order: the tie goes to the
        // one recorded last.
        load(350, 4, 400),
        load(300, 3, 350),
        ev(
            150,
            EventKind::SolveStarted {
                cause: ReplanCause::DeviceFailure,
                until: SimTime::from_millis(300),
            },
        ),
        ev(
            400,
            EventKind::BatchFormed {
                device: DeviceId(0),
                batch: 3,
                queries: vec![1],
            },
        ),
        exec(400, 3, 450),
        ev(
            450,
            EventKind::ServedLate {
                query: 1,
                latency: SimTime::from_millis(450),
                epoch: 2,
            },
        ),
    ]
}

#[test]
fn agrees_on_crash_truncated_overlapping_execs() {
    let events = crash_truncated_trace();
    let cmp = compare(&events, "crash-truncated");
    assert_eq!(cmp.overlapping, 1);
    // The partition charges each nanosecond of the 400 ms window once; the
    // reference sums batch 1 and 2 (400 ms) and both loads (100 ms).
    let v = blame(&events).verdicts[0];
    assert_eq!(v.cause, BlameCause::Queueing);
    assert_eq!(v.queueing, SimTime::from_millis(350));
    assert_eq!(v.model_load, SimTime::from_millis(50));
    assert_eq!(v.batch_wait, SimTime::ZERO);
    assert_eq!(v.stale_plan, SimTime::from_millis(150));
    let reference = full_scan_blame(&events).verdicts[0];
    assert_eq!(
        (reference.queueing, reference.model_load),
        (SimTime::from_millis(400), SimTime::from_millis(100))
    );
    let trees = span_trees(&events);
    let tree = &trees[0];
    assert_eq!(tree.invariant_gap(), 0);
    // Exec intervals outrank the load under batch 2.
    assert_eq!(
        tree.segment_total(Segment::Queue),
        SimTime::from_millis(350)
    );
    assert_eq!(tree.segment_total(Segment::Load), SimTime::from_millis(50));
    assert_eq!(tree.segment_total(Segment::Exec), SimTime::from_millis(50));
    assert!(tree.edges.iter().any(|e| matches!(
        e,
        CausalEdge::WaitedOnLoad { variant: Some(v), .. } if v.index == 3
    )));
}

#[test]
fn agrees_on_zero_length_intervals() {
    // Zero-length execs, loads and solves inside, at the edges of and
    // around the wait window; the query itself has a zero-length window
    // (served the instant it is enqueued) and a zero-length exec.
    let mut events = vec![
        ev(
            0,
            EventKind::Arrived {
                query: 1,
                family: ModelFamily::ResNet,
            },
        ),
        ev(
            10,
            EventKind::Enqueued {
                query: 1,
                device: DeviceId(0),
                depth: 1,
                behind: None,
            },
        ),
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
                depth: 1,
                behind: None,
            },
        ),
    ];
    for ms in [0, 10, 20, 30, 100] {
        events.push(ev(
            ms,
            EventKind::ExecStarted {
                device: DeviceId(0),
                batch: 100 + ms,
                variant: variant(0),
                size: 1,
                until: SimTime::from_millis(ms),
            },
        ));
        events.push(ev(
            ms,
            EventKind::ModelLoadStarted {
                device: DeviceId(0),
                variant: Some(variant(1)),
                until: SimTime::from_millis(ms),
            },
        ));
        events.push(ev(
            ms,
            EventKind::SolveStarted {
                cause: ReplanCause::Periodic,
                until: SimTime::from_millis(ms),
            },
        ));
    }
    events.extend([
        ev(
            10,
            EventKind::BatchFormed {
                device: DeviceId(0),
                batch: 110,
                queries: vec![1],
            },
        ),
        ev(
            10,
            EventKind::ServedLate {
                query: 1,
                latency: SimTime::from_millis(10),
                epoch: 1,
            },
        ),
        ev(
            50,
            EventKind::Dropped {
                query: 2,
                reason: DropReason::Expired,
            },
        ),
    ]);
    let cmp = compare(&events, "zero-length");
    assert_eq!(
        cmp,
        Comparison {
            equal: 2,
            ..Comparison::default()
        }
    );
    let trees = span_trees(&events);
    for tree in &trees {
        assert_eq!(tree.invariant_gap(), 0);
    }
    // No zero-length interval covers any of q2's wait.
    assert_eq!(
        trees[1].segment_total(Segment::BatchWait),
        SimTime::from_millis(50)
    );
}

/// Records `system`'s run over `arrivals` as JSONL text.
fn record_jsonl(
    mut system: proteus::core::system::ServingSystem,
    arrivals: &[proteus::workloads::QueryArrival],
) -> String {
    let mut sink = proteus::trace::MemorySink::new();
    system.run_traced(arrivals, &mut sink);
    // The run records through the published crate's event type; the JSONL
    // round trip is lossless (the golden-trace test pins it).
    sink.events()
        .iter()
        .map(|e| proteus::trace::to_jsonl(e) + "\n")
        .collect()
}

#[test]
fn agrees_on_seeded_chaos_schedules() {
    use proteus::core::batching::ProteusBatching;
    use proteus::core::schedulers::ProteusAllocator;
    use proteus::core::system::{ServingSystem, SolveLatency, SystemConfig};
    use proteus::sim::FaultSchedule;
    use proteus::workloads::{FlatTrace, TraceBuilder};

    // The fault schedules, workload and configuration of the chaos
    // critical-path property test in `proteus-core`.
    let horizon_secs = 10u32;
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(13)
        .build(&FlatTrace {
            qps: 60.0,
            secs: horizon_secs,
        });
    let horizon = proteus::sim::SimTime::from_secs(u64::from(horizon_secs));
    for seed in 0..20u64 {
        let mut config = SystemConfig::small();
        config.audit = true;
        config.faults = FaultSchedule::seeded_random(seed, horizon, 9);
        config.solve_latency = SolveLatency::Model;
        config.realloc_period_secs = 5.0;
        let system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let events = crate::json::parse_jsonl(&record_jsonl(system, &arrivals))
            .expect("recorded trace parses");
        assert_agree(&events, &format!("chaos seed {seed}"));
    }
}

#[test]
fn agrees_on_paper_testbed_runs() {
    use proteus::core::batching::ProteusBatching;
    use proteus::core::schedulers::ProteusAllocator;
    use proteus::core::system::{ServingSystem, SolveLatency, SystemConfig};
    use proteus::sim::FaultSchedule;
    use proteus::workloads::{DiurnalTrace, TraceBuilder};

    // A short fig4-shaped diurnal ramp on the full 40-worker testbed, with
    // solves committing instantly or after their modelled window, and with
    // or without a seeded fault storm. Windows always agree with the
    // reference. In the zero-solve fault run a load retry is superseded
    // mid-flight by the next plan's load: the retry's recorded interval
    // still runs to its planned end and overlaps the new load's, which the
    // reference counts twice. Those verdicts, and only those, differ, and
    // only in `model_load`.
    let horizon_secs = 40u32;
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(42)
        .build(&DiurnalTrace::paper_like(horizon_secs, 200.0, 1400.0, 42));
    let horizon = proteus::sim::SimTime::from_secs(u64::from(horizon_secs));
    let mut differing = Vec::new();
    for solve_latency in [SolveLatency::Zero, SolveLatency::Model] {
        for faults in [false, true] {
            let mut config = SystemConfig::paper_testbed();
            config.solve_latency = solve_latency;
            config.realloc_period_secs = 10.0;
            if faults {
                let devices = config.cluster.len() as u32;
                config.faults = FaultSchedule::seeded_random(7, horizon, devices);
            }
            let system = ServingSystem::new(
                config,
                Box::new(ProteusAllocator::default()),
                Box::new(ProteusBatching),
            );
            let events = crate::json::parse_jsonl(&record_jsonl(system, &arrivals))
                .expect("recorded trace parses");
            let context = format!("{solve_latency} solves, faults {faults}");
            let cmp = compare(&events, &context);
            assert_eq!(cmp.other_window, 0, "{context}");
            let (got, want) = (blame(&events), full_scan_blame(&events));
            let mut differ = 0;
            for (got, want) in got.verdicts.iter().zip(&want.verdicts) {
                if got != want {
                    let context = format!("{context}: query {}", want.query);
                    assert!(got.model_load < want.model_load, "{context}");
                    let got = BlameVerdict {
                        model_load: want.model_load,
                        ..*got
                    };
                    assert_eq!(&got, want, "{context}: only model_load differs");
                    differ += 1;
                }
            }
            differing.push(differ);
        }
    }
    assert_eq!(differing, [0, 23, 0, 0]);
}
