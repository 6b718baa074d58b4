//! Differential oracle for the interval-indexed span trees and blame.
//!
//! [`full_scan_span_trees`] and [`full_scan_blame`] are the earlier
//! implementations, which hand every exec, load and solve interval of a
//! query's device to the overlap code instead of the index's run. They are
//! kept here, outside every runtime path, so the tests below can check
//! that [`span_trees`] and [`blame`] give equal results on real chaos runs
//! and on hand-built traces with overlapping, out-of-order and zero-length
//! intervals.

use std::collections::HashMap;

use proteus_profiler::{DeviceId, ModelFamily, VariantId};
use proteus_sim::SimTime;

use crate::analysis::{blame, BlameCause, BlameReport, BlameVerdict};
use crate::event::{DropReason, EventKind, ReplanCause, TraceEvent};
use crate::span::{push_span, span_trees, sweep, CausalEdge, Class, Outcome, Segment, SpanTree};

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
    let (start, family) = t
        .arrived
        .get(&query)
        .map_or((end, None), |&(at, f)| (at, Some(f)));
    let placement = t.enqueued.get(&query).copied();
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

    let mut report = BlameReport::default();
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
                    report
                        .verdicts
                        .push(shed(*query, e.at, BlameCause::DeviceFailure));
                    continue;
                }
                if reason.is_shed() {
                    report.verdicts.push(shed(*query, e.at, BlameCause::Shed));
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
        report.verdicts.push(BlameVerdict {
            query,
            at: e.at,
            cause,
            queueing: SimTime::from_nanos(busy_ns),
            model_load: SimTime::from_nanos(load_ns),
            batch_wait: SimTime::from_nanos(wait_ns),
            stale_plan: SimTime::from_nanos(stale_ns),
        });
    }
    report
}

/// Asserts that the indexed and full-scan analyses agree on `events`.
fn assert_agree(events: &[TraceEvent], context: &str) {
    let indexed = span_trees(events);
    let reference = full_scan_span_trees(events);
    assert_eq!(indexed.len(), reference.len(), "{context}: tree count");
    for (got, want) in indexed.iter().zip(&reference) {
        assert_eq!(got, want, "{context}: span tree of query {}", want.query);
    }
    assert_eq!(blame(events), full_scan_blame(events), "{context}: blame");
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
    for seed in 0..300 {
        assert_agree(&random_trace(seed), &format!("random trace {seed}"));
    }
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
    assert_agree(&events, "crash-truncated");
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
    assert_agree(&events, "zero-length");
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
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let mut sink = proteus::trace::MemorySink::new();
        system.run_traced(&arrivals, &mut sink);
        // The run records through the published crate's event type; the
        // JSONL round trip is lossless (the golden-trace test pins it).
        let text: String = sink
            .events()
            .iter()
            .map(|e| proteus::trace::to_jsonl(e) + "\n")
            .collect();
        let events = crate::json::parse_jsonl(&text).expect("recorded trace parses");
        assert_agree(&events, &format!("chaos seed {seed}"));
    }
}
