//! Timing wrappers around the three trait objects `ServingSystem` accepts.
//!
//! Each wrapper forwards every trait method to the wrapped object and
//! times the calls that cross its boundary. The engine keeps the wrappers
//! for the whole run, so their counters reach the benchmark through shared
//! handles: allocator calls are few and become real spans, while the
//! ~10⁶ batching decisions and trace records are aggregated into a count
//! and a busy time per boundary.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use proteus::core::{
    AllocContext, AllocationPlan, Allocator, BatchContext, BatchDecision, BatchPolicy, FamilyMap,
};
use proteus::sim::SimTime;
use proteus::solver::SolveStats;
use proteus::trace::{TraceEvent, TraceSink};

use crate::spans::SpanLog;

/// Locks a counter block. The benchmark is single-threaded, so a poisoned
/// lock can only follow a panic that already ended the run.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("benchmark counters are only touched by one thread")
}

/// What the allocator boundary saw over one run.
#[derive(Debug, Default, Clone)]
pub struct AllocCounters {
    /// Wall time of every `allocate` call, in call order.
    pub calls: Vec<Duration>,
    /// Solver statistics summed over the calls that reported them.
    pub solver: SolveStats,
}

/// Wraps an [`Allocator`]: every `allocate` call becomes a span under the
/// current run span (`core.schedulers` → `core.allocation` → `solver`).
#[derive(Debug)]
pub struct TimedAllocator {
    inner: Box<dyn Allocator>,
    counters: Arc<Mutex<AllocCounters>>,
    spans: Arc<Mutex<SpanLog>>,
}

impl TimedAllocator {
    /// Wraps `inner`, reporting into `counters` and `spans`.
    pub fn new(
        inner: Box<dyn Allocator>,
        counters: Arc<Mutex<AllocCounters>>,
        spans: Arc<Mutex<SpanLog>>,
    ) -> Self {
        Self {
            inner,
            counters,
            spans,
        }
    }
}

impl Allocator for TimedAllocator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(
        &mut self,
        ctx: &AllocContext<'_>,
        demand: &FamilyMap<f64>,
        current: Option<&AllocationPlan>,
        now: SimTime,
    ) -> AllocationPlan {
        let start = Instant::now();
        let plan = self.inner.allocate(ctx, demand, current, now);
        let end = Instant::now();
        lock(&self.spans).leaf("core.schedulers.allocate", start, end);
        let mut c = lock(&self.counters);
        c.calls.push(end - start);
        if let Some(stats) = self.inner.last_solve_stats() {
            c.solver += stats;
        }
        plan
    }

    fn is_static(&self) -> bool {
        self.inner.is_static()
    }

    fn on_critical_path(&self) -> bool {
        self.inner.on_critical_path()
    }

    fn last_solve_stats(&self) -> Option<SolveStats> {
        self.inner.last_solve_stats()
    }
}

/// What the batching boundary saw over one run, summed over every worker.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchCounters {
    /// `decide` calls.
    pub decides: u64,
    /// Time inside `decide`.
    pub busy: Duration,
    /// Decisions to execute a batch.
    pub execute: u64,
    /// Decisions to hold the queue until a deadline.
    pub wait: u64,
    /// Decisions to drop expired queries.
    pub drop_expired: u64,
    /// Decisions with nothing to do.
    pub idle: u64,
}

impl BatchCounters {
    fn add(&mut self, other: &Self) {
        self.decides += other.decides;
        self.busy += other.busy;
        self.execute += other.execute;
        self.wait += other.wait;
        self.drop_expired += other.drop_expired;
        self.idle += other.idle;
    }
}

/// Wraps a [`BatchPolicy`]. The engine clones the prototype once per
/// worker; each clone counts locally and adds its counts to the shared
/// block when the engine drops it at the end of the run, so the hot path
/// takes no lock.
#[derive(Debug)]
pub struct TimedBatching {
    inner: Box<dyn BatchPolicy>,
    local: BatchCounters,
    shared: Arc<Mutex<BatchCounters>>,
}

impl TimedBatching {
    /// Wraps `inner`, reporting into `shared`.
    pub fn new(inner: Box<dyn BatchPolicy>, shared: Arc<Mutex<BatchCounters>>) -> Self {
        Self {
            inner,
            local: BatchCounters::default(),
            shared,
        }
    }
}

impl BatchPolicy for TimedBatching {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &BatchContext<'_>) -> BatchDecision {
        let start = Instant::now();
        let decision = self.inner.decide(ctx);
        self.local.busy += start.elapsed();
        self.local.decides += 1;
        match decision {
            BatchDecision::Execute(_) => self.local.execute += 1,
            BatchDecision::WaitUntil(_) => self.local.wait += 1,
            BatchDecision::DropExpired(_) => self.local.drop_expired += 1,
            BatchDecision::Idle => self.local.idle += 1,
        }
        decision
    }

    fn on_batch_complete(&mut self, any_late: bool) {
        self.inner.on_batch_complete(any_late);
    }

    fn clone_box(&self) -> Box<dyn BatchPolicy> {
        Box::new(Self::new(self.inner.clone_box(), Arc::clone(&self.shared)))
    }
}

impl Drop for TimedBatching {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned block just loses these counts.
        if let Ok(mut shared) = self.shared.lock() {
            shared.add(&self.local);
        }
    }
}

/// What the trace boundary saw over one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SinkCounters {
    /// `record` calls.
    pub records: u64,
    /// Time inside `record`.
    pub busy: Duration,
}

/// Wraps a [`TraceSink`] and times every `record` call.
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    /// Counts over the run so far.
    pub counters: SinkCounters,
}

impl<S: TraceSink> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            counters: SinkCounters::default(),
        }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        let start = Instant::now();
        self.inner.record(event);
        self.counters.busy += start.elapsed();
        self.counters.records += 1;
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}
