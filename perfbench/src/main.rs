//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4|replan_storm|observe --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` replays the workload for about `S` seconds with no
//! instrumentation and prints the end-to-end metrics. `--trace 1` runs the
//! separate traced pass: plain and wrapped replays of one instance, their
//! simulated results compared, and the per-layer metrics printed; its spans
//! go to `perfbench/out/`. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` next to this file for the workloads and metrics.

mod layers;
mod replay;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proteus::metrics::{Bucket, LatencyHistogram, RunSummary};
use proteus::sim::SimTime;

use crate::layers::lock;
use crate::replay::{replay, Fingerprint, Probes, Replay, Variant};
use crate::spans::{Clock, SpanLog};
use crate::stats::{median, quantile, ratio};
use crate::workload::{replay_seed, Workload};

/// The `bench_sim_json` headline fingerprint the `fig4` workload must
/// reproduce: (queries, seed, served, dropped).
const HEADLINE: (usize, u64, u64, u64) = (1_000_000, 42, 979_027, 20_973);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line.
#[derive(Debug, Default)]
struct Output {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    /// Adds a metric; a value that is not a finite number fails the run.
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.failures.push(format!("{name} is {value}"));
            self.metrics.push((name, 0.0, unit));
        }
    }

    /// Counts `queries` as attempted, and as failed when any check of
    /// the replay that ran them failed.
    fn record(&mut self, queries: usize, failures: Vec<String>) {
        self.attempted += queries as u64;
        if !failures.is_empty() {
            self.failed += queries as u64;
            self.failures.extend(failures);
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Simulated results pooled over the first [`Workload::pool`] replays.
///
/// The ratios are the pooled traffic's: the replays' per-second buckets
/// summed second by second and summarised by the program's own
/// `RunSummary::from_buckets`. The maximum accuracy drop, an extreme of
/// one replay's per-second series, is the median over replays.
#[derive(Debug, Default)]
struct Pool {
    buckets: Vec<Bucket>,
    max_drop: Vec<f64>,
    latency: LatencyHistogram,
}

impl Pool {
    fn add(&mut self, r: &Replay) {
        let series = r.outcome.metrics.timeseries();
        if self.buckets.len() < series.len() {
            self.buckets.resize(series.len(), Bucket::default());
        }
        for (pooled, b) in self.buckets.iter_mut().zip(&series) {
            pooled.arrived += b.arrived;
            pooled.served_on_time += b.served_on_time;
            pooled.served_late += b.served_late;
            pooled.dropped += b.dropped;
            pooled.accuracy_sum += b.accuracy_sum;
        }
        self.max_drop.push(r.summary.max_accuracy_drop);
        self.latency.merge(r.outcome.metrics.latency_histogram());
    }

    fn report(&self, out: &mut Output) {
        let s = RunSummary::from_buckets(&self.buckets, 1.0);
        let dropped = ratio(s.total_dropped as f64, s.total_arrived as f64);
        out.metric("slo_violation_ratio", s.slo_violation_ratio, "ratio");
        out.metric("drop_ratio", dropped, "ratio");
        out.metric("effective_accuracy", s.effective_accuracy, "ratio");
        out.metric("max_accuracy_drop", median(&self.max_drop), "ratio");
        out.metric("latency_p50_ms", interpolated_ms(&self.latency, 0.50), "ms");
        out.metric("latency_p99_ms", interpolated_ms(&self.latency, 0.99), "ms");
    }
}

/// Growth factor between consecutive `LatencyHistogram` bucket edges
/// (its documented ~9 % relative resolution).
const BUCKET_GROWTH: f64 = 1.09;

/// The `q`-quantile of `h` in milliseconds, interpolated linearly inside
/// the log bucket that holds it (as Prometheus' `histogram_quantile`
/// does). `LatencyHistogram::percentile` reports the bucket's upper edge,
/// which moves only in 9 % steps; the interpolated value follows the
/// samples' distribution inside the bucket.
fn interpolated_ms(h: &LatencyHistogram, q: f64) -> f64 {
    let Some(upper) = h.percentile(q) else {
        return 0.0;
    };
    let upper = upper.as_millis_f64();
    let lower = upper / BUCKET_GROWTH;
    // Thresholds just inside the bucket's edges select whole buckets.
    let inside = |ms: f64| SimTime::from_millis_f64(ms * (1.0 - 1e-9));
    let below = h.fraction_within(inside(lower));
    let through = h.fraction_within(inside(upper));
    if through <= below {
        return upper;
    }
    lower + (upper - lower) * ((q - below) / (through - below)).clamp(0.0, 1.0)
}

/// `--trace 0`: untraced replays, each of its own arrival seed, for about
/// `seconds` and at least [`Workload::pool`] of them. The simulated
/// metrics pool the first `pool` replays, so they are exact at a fixed
/// `--seed`. `sim_qps` is all replayed queries over all timed run time;
/// the other timings and memory are medians over replays.
fn end_to_end(args: &Args) -> Output {
    let mut out = Output::default();
    let mut pool = Pool::default();
    let (mut setup, mut analysis, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut total_queries, mut total_run) = (0.0, 0.0);
    let start = Instant::now();
    let pool_size = args.workload.pool();
    for i in 0.. {
        stats::reset_peak_rss();
        let r = replay(
            args.workload,
            replay_seed(args.seed, i),
            Variant::Plain,
            Clock::plain(),
            None,
        );
        out.record(r.queries, r.failures.clone());
        if i < pool_size {
            pool.add(&r);
        }
        total_queries += r.queries as f64;
        total_run += secs(r.run);
        setup.push(secs(r.setup));
        analysis.push(secs(analysis_time(&r)));
        drop(r);
        rss.push(stats::peak_rss_mib());
        if i + 1 >= pool_size && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if args.workload == Workload::Fig4 {
        headline_check(&mut out);
    }
    out.metric("sim_qps", total_queries / total_run, "queries/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("analysis_s", median(&analysis), "s");
    match rss.iter().copied().collect::<Option<Vec<f64>>>() {
        Some(mib) => out.metric("peak_rss_mb", median(&mib), "MiB"),
        None => out
            .failures
            .push("cannot read the resident-set high-water mark".to_string()),
    }
    pool.report(&mut out);
    out
}

/// Times the post-run report of workloads that record no trace over this
/// many repetitions: one report takes well under a millisecond, too short
/// to time alone on a shared host.
const REPORT_REPEATS: u32 = 64;

/// Post-run analysis time: the offline trace analysis on `observe`; on the
/// workloads that record no trace, the report an operator reads after a
/// run (per-family summaries and the per-second time series).
fn analysis_time(r: &Replay) -> Duration {
    match &r.analysis {
        Some(a) => a.total(),
        None => {
            let metrics = &r.outcome.metrics;
            let start = Instant::now();
            for _ in 0..REPORT_REPEATS {
                std::hint::black_box((metrics.family_summaries(), metrics.timeseries()));
            }
            start.elapsed() / REPORT_REPEATS
        }
    }
}

/// Replays `bench_sim_json`'s headline instance and compares its
/// fingerprint with the committed one.
fn headline_check(out: &mut Output) {
    let (queries, seed, served, dropped) = HEADLINE;
    let arrivals = workload::diurnal(queries, seed);
    let config = Workload::Fig4.config(&arrivals);
    let mut system =
        proteus::core::ServingSystem::new(config, workload::allocator(), workload::batching());
    let s = system.run(&arrivals).metrics.summary();
    let mut failures = Vec::new();
    if (s.total_served, s.total_dropped) != (served, dropped) {
        failures.push(format!(
            "headline fingerprint: served {} dropped {}, expected {served} / {dropped}",
            s.total_served, s.total_dropped
        ));
    }
    out.record(arrivals.len(), failures);
}

/// Per-layer numbers of one round of the traced pass.
type Layers = Vec<(&'static str, f64, &'static str)>;

/// `--trace 1`: rounds of (plain, wrapped) replays of the seed's instance
/// for about `seconds`; per-layer timings are medians over rounds, counts
/// repeat exactly. The first round also replays with the auditor on and,
/// on `observe`, every round with telemetry off. Every replay must
/// simulate exactly what the first plain one did.
fn traced(args: &Args) -> Output {
    let mut out = Output::default();
    let spans = Arc::new(Mutex::new(SpanLog::default()));
    let clock = Clock::traced(&spans);
    let mut rounds: Vec<Layers> = Vec::new();
    let mut reference: Option<Fingerprint> = None;
    let start = Instant::now();
    let (w, seed) = (args.workload, args.seed);
    let mut compare = |r: &Replay, what: &str, out: &mut Output| {
        let mut failures = r.failures.clone();
        let fingerprint = Fingerprint::of(r);
        match &reference {
            None => reference = Some(fingerprint),
            Some(first) if *first != fingerprint => failures.push(format!(
                "{what} replay simulated differently from the first plain one"
            )),
            Some(_) => {}
        }
        out.record(r.queries, failures);
    };
    clock.time("bench", || {
        while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let (plain, _, _) = clock.time("replay.plain", || {
                replay(w, seed, Variant::Plain, clock, None)
            });
            compare(&plain, "plain", &mut out);
            let probes = Probes::default();
            let (timed, _, _) = clock.time("replay.timed", || {
                replay(w, seed, Variant::Plain, clock, Some((&probes, &spans)))
            });
            compare(&timed, "wrapped", &mut out);
            if rounds.is_empty() {
                let (audited, _, _) = clock.time("replay.audited", || {
                    replay(w, seed, Variant::Audited, clock, None)
                });
                compare(&audited, "audited", &mut out);
            }
            let mut telemetry_overhead = 0.0;
            if w.records_trace() {
                let (off, _, _) = clock.time("replay.telemetry_off", || {
                    replay(w, seed, Variant::TelemetryOff, clock, None)
                });
                compare(&off, "telemetry-off", &mut out);
                telemetry_overhead = secs(plain.run) - secs(off.run);
            }
            rounds.push(layers(
                &plain,
                &timed,
                &probes,
                &lock(&spans),
                telemetry_overhead,
            ));
        }
    });

    for (i, &(name, _, unit)) in rounds[0].iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
        out.metric(name, median(&values), unit);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name(), seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, lock(&spans).to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    out
}

/// The per-layer metrics of one traced round.
fn layers(
    plain: &Replay,
    timed: &Replay,
    probes: &Probes,
    spans: &SpanLog,
    telemetry_overhead: f64,
) -> Layers {
    let o = &timed.outcome;
    let alloc = lock(&probes.alloc).clone();
    let batch = *lock(&probes.batch);
    let run = secs(timed.run);
    let call_ms: Vec<f64> = alloc.calls.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let alloc_busy: f64 = alloc.calls.iter().map(|d| d.as_secs_f64()).sum();
    let solver = &alloc.solver;
    let (batches, served): (u64, u64) = o
        .device_stats
        .iter()
        .fold((0, 0), |(b, q), d| (b + d.batches, q + d.queries));
    let hot = &o.hot_stats;
    let telemetry = o.telemetry.as_ref();
    let analysis = timed.analysis.as_ref();
    let a = |f: fn(&replay::Analysis) -> Duration| analysis.map_or(0.0, |a| secs(f(a)));
    vec![
        ("workloads.gen_s", secs(timed.gen), "s"),
        ("profiler.store_build_s", secs(timed.store_build), "s"),
        ("sim.events", hot.events_delivered as f64, "count"),
        ("sim.peak_queue", hot.peak_event_queue as f64, "count"),
        (
            "sim.events_per_s",
            ratio(hot.events_delivered as f64, secs(plain.run)),
            "1/s",
        ),
        (
            "core.system.self_s",
            timed.run_span.map_or(0.0, |id| secs(spans.self_time(id))),
            "s",
        ),
        (
            "core.system.buffer_reuse_ratio",
            ratio(
                hot.batch_buffers_reused as f64,
                (hot.batch_buffers_reused + hot.batch_buffers_allocated) as f64,
            ),
            "ratio",
        ),
        ("metrics.summary_s", secs(timed.summary_time), "s"),
        ("core.batching.decide_calls", batch.decides as f64, "count"),
        ("core.batching.busy_s", secs(batch.busy), "s"),
        ("core.batching.execute", batch.execute as f64, "count"),
        ("core.batching.wait", batch.wait as f64, "count"),
        (
            "core.batching.drop_expired",
            batch.drop_expired as f64,
            "count",
        ),
        ("core.batching.idle", batch.idle as f64, "count"),
        (
            "core.batching.execute_ratio",
            ratio(batch.execute as f64, batch.decides as f64),
            "ratio",
        ),
        (
            "core.batching.mean_batch",
            ratio(served as f64, batches as f64),
            "queries",
        ),
        ("core.schedulers.calls", call_ms.len() as f64, "count"),
        ("core.schedulers.busy_s", alloc_busy, "s"),
        ("core.schedulers.share", ratio(alloc_busy, run), "ratio"),
        ("core.schedulers.call_ms_p50", quantile(&call_ms, 0.5), "ms"),
        ("core.schedulers.call_ms_p90", quantile(&call_ms, 0.9), "ms"),
        ("core.schedulers.call_ms_max", quantile(&call_ms, 1.0), "ms"),
        (
            "core.allocation.build_s",
            alloc_busy - solver.wall_secs(),
            "s",
        ),
        ("solver.nodes", solver.nodes as f64, "count"),
        ("solver.pruned", solver.pruned as f64, "count"),
        ("solver.pivots", solver.simplex_iterations as f64, "count"),
        ("solver.warm_starts", solver.warm_starts as f64, "count"),
        ("solver.cold_solves", solver.cold_solves as f64, "count"),
        ("solver.warm_ratio", solver.warm_hit_rate(), "ratio"),
        ("solver.wall_s", solver.wall_secs(), "s"),
        ("control.replans", o.reallocations as f64, "count"),
        (
            "control.burst_replans",
            o.burst_reallocations as f64,
            "count",
        ),
        ("control.coalesced", o.replans_coalesced as f64, "count"),
        ("control.discarded", o.plans_discarded as f64, "count"),
        ("control.shrunk_plans", o.shrunk_plans as f64, "count"),
        (
            "control.devices_changed",
            o.replan_log.iter().map(|r| f64::from(r.changed)).sum(),
            "count",
        ),
        ("trace.events", timed.sink.records as f64, "count"),
        ("trace.bytes", timed.trace_bytes as f64, "B"),
        ("trace.record_s", secs(timed.sink.busy), "s"),
        ("telemetry.overhead_s", telemetry_overhead, "s"),
        (
            "telemetry.windows",
            telemetry.map_or(0.0, |t| t.windows as f64),
            "count",
        ),
        (
            "telemetry.alerts_fired",
            telemetry.map_or(0.0, |t| t.alerts_fired as f64),
            "count",
        ),
        ("trace.parse_s", a(|a| a.parse), "s"),
        ("trace.blame_s", a(|a| a.blame), "s"),
        ("trace.span_trees_s", a(|a| a.span_trees), "s"),
        ("trace.flame_s", a(|a| a.flame), "s"),
        (
            "trace.trees",
            analysis.map_or(0.0, |a| a.trees as f64),
            "count",
        ),
        (
            "trace.verdicts",
            analysis.map_or(0.0, |a| a.verdicts as f64),
            "count",
        ),
        (
            "bench.span_overhead_ratio",
            ratio(run, secs(plain.run)),
            "ratio",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload fig4|replan_storm|observe --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    for failure in &out.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
