//! Machine-readable end-to-end throughput benchmark of the serving-loop
//! hot path: replays a fig4-style diurnal trace (Proteus allocator +
//! Proteus batching, paper testbed) and writes `BENCH_sim.json` (or the
//! path given as the first argument).
//!
//! Like `bench_solver_json`, the JSON is written by hand so the harness
//! has no dependencies beyond the workspace crates: run the binary from
//! two commits and diff the `queries_per_sec` fields. Each instance also
//! records a run fingerprint (served/dropped/violations/accuracy) so a
//! speedup that changes answers is rejected rather than celebrated.
//!
//! Modes:
//!
//! * default — run the reduced and headline (1M-query) instances and
//!   write the baseline JSON;
//! * `--queries N` — override the headline instance's query count;
//! * `--check <baseline.json>` — CI perf smoke: run only the reduced
//!   instance and exit 1 if its served, dropped, events or reallocations
//!   differ from the committed baseline row, or its queries/sec regresses
//!   more than 30 % against it;
//! * `--telemetry` — run with the telemetry plane on (registry, sketches
//!   and burn-rate engine; no exposition file, dashboard or listener), to
//!   measure the observability overhead against a default run. The run
//!   fingerprint must not change — telemetry observes, never steers.

use std::fmt::Write as _;
use std::time::Instant;

use proteus_core::batching::ProteusBatching;
use proteus_core::schedulers::ProteusAllocator;
use proteus_core::system::{RunOutcome, ServingSystem, SystemConfig, TelemetryConfig};
use proteus_workloads::{DiurnalTrace, QueryArrival, TraceBuilder};

/// Best-of-N timing, as in `bench_solver_json`: enough to shave scheduler
/// noise off the floor without tripling a minutes-long sweep.
const REPEATS: u32 = 2;

/// Queries in the headline instance (the acceptance-criterion scale).
const HEADLINE_QUERIES: usize = 1_000_000;

/// Queries in the reduced instance the CI perf-smoke job runs.
const REDUCED_QUERIES: usize = 60_000;

/// Maximum tolerated queries/sec regression in `--check` mode.
const MAX_REGRESSION: f64 = 0.30;

/// A fig4-shaped arrival trace truncated to exactly `queries` arrivals.
///
/// The diurnal curve is sized generously and then cut, so the query count
/// is exact and independent of Poisson noise.
fn trace(queries: usize) -> Vec<QueryArrival> {
    // ~550 QPS mean for the paper-like 200->1000 curve; oversize by 25 %.
    let secs = ((queries as f64 / 550.0) * 1.25).ceil().max(60.0) as u32;
    let curve = DiurnalTrace::paper_like(secs, 200.0, 1000.0, 42);
    let mut arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(42)
        .build(&curve);
    assert!(
        arrivals.len() >= queries,
        "oversized trace still too short: {} < {queries}",
        arrivals.len()
    );
    arrivals.truncate(queries);
    arrivals
}

struct Measurement {
    queries: u64,
    wall_secs: f64,
    queries_per_sec: f64,
    events: u64,
    events_per_sec: f64,
    peak_event_queue: u64,
    batch_buffers_allocated: u64,
    batch_buffers_reused: u64,
    // Fingerprint: a hot-path change must not alter any of these.
    served: u64,
    dropped: u64,
    violation_ratio: f64,
    effective_accuracy: f64,
    reallocations: u32,
}

fn run_once(arrivals: &[QueryArrival], telemetry: bool) -> (f64, RunOutcome) {
    let mut config = SystemConfig::paper_testbed();
    if telemetry {
        config.telemetry = Some(TelemetryConfig::default());
    }
    let mut system = ServingSystem::new(
        config,
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
    );
    let start = Instant::now();
    let outcome = system.run(arrivals);
    (start.elapsed().as_secs_f64(), outcome)
}

fn measure(arrivals: &[QueryArrival], telemetry: bool) -> Measurement {
    let mut best: Option<(f64, RunOutcome)> = None;
    for _ in 0..REPEATS {
        let (secs, outcome) = run_once(arrivals, telemetry);
        match &best {
            Some((b, _)) if *b <= secs => {}
            _ => best = Some((secs, outcome)),
        }
    }
    // lint:allow(no-panic) — REPEATS > 0, so a best run always exists.
    let (wall_secs, outcome) = best.expect("REPEATS > 0");
    let s = outcome.metrics.summary();
    let hot = outcome.hot_stats;
    Measurement {
        queries: arrivals.len() as u64,
        wall_secs,
        queries_per_sec: arrivals.len() as f64 / wall_secs,
        events: hot.events_delivered,
        events_per_sec: hot.events_delivered as f64 / wall_secs,
        peak_event_queue: hot.peak_event_queue,
        batch_buffers_allocated: hot.batch_buffers_allocated,
        batch_buffers_reused: hot.batch_buffers_reused,
        served: s.total_served,
        dropped: s.total_dropped,
        violation_ratio: s.slo_violation_ratio,
        effective_accuracy: s.effective_accuracy,
        reallocations: outcome.reallocations,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn write_instance(out: &mut String, label: &str, m: &Measurement) {
    let _ = write!(
        out,
        "    {{\"label\": \"{label}\", \"queries\": {}, \"wall_secs\": {}, \
         \"queries_per_sec\": {}, \"events\": {}, \"events_per_sec\": {}, \
         \"peak_event_queue\": {}, \"batch_buffers_allocated\": {}, \
         \"batch_buffers_reused\": {}, \"served\": {}, \"dropped\": {}, \
         \"violation_ratio\": {}, \"effective_accuracy\": {}, \
         \"reallocations\": {}}}",
        m.queries,
        json_num(m.wall_secs),
        json_num(m.queries_per_sec),
        m.events,
        json_num(m.events_per_sec),
        m.peak_event_queue,
        m.batch_buffers_allocated,
        m.batch_buffers_reused,
        m.served,
        m.dropped,
        json_num(m.violation_ratio),
        json_num(m.effective_accuracy),
        m.reallocations,
    );
}

fn print_summary(label: &str, m: &Measurement) {
    println!(
        "  {label}: {:.3} s  {:.0} q/s  {:.0} ev/s  peak_q={}  \
         bufs={}+{} reused  served={} dropped={}",
        m.wall_secs,
        m.queries_per_sec,
        m.events_per_sec,
        m.peak_event_queue,
        m.batch_buffers_allocated,
        m.batch_buffers_reused,
        m.served,
        m.dropped,
    );
}

/// Extracts the raw value of `"<key>": <num>` for the labelled instance
/// from the committed baseline (hand-rolled: no JSON dependency, fixed
/// writer).
fn baseline_field<'a>(json: &'a str, label: &str, key: &str) -> Option<&'a str> {
    let needle = format!("\"label\": \"{label}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let key = format!("\"{key}\": ");
    let start = line.find(&key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

/// The fingerprint counters `--check` compares exactly: a change that
/// moves any of them changed what the simulation did, however fast.
fn fingerprint(m: &Measurement) -> [(&'static str, u64); 4] {
    [
        ("served", m.served),
        ("dropped", m.dropped),
        ("events", m.events),
        ("reallocations", u64::from(m.reallocations)),
    ]
}

fn check_mode(baseline_path: &str) -> i32 {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return 2;
        }
    };
    let Some(base_qps) = baseline_field(&baseline, "fig4_reduced", "queries_per_sec")
        .and_then(|v| v.parse::<f64>().ok())
    else {
        eprintln!("no fig4_reduced queries_per_sec in {baseline_path}");
        return 2;
    };
    let arrivals = trace(REDUCED_QUERIES);
    let m = measure(&arrivals, false);
    print_summary("fig4_reduced", &m);
    let mut failed = false;
    for (key, measured) in fingerprint(&m) {
        let Some(expected) =
            baseline_field(&baseline, "fig4_reduced", key).and_then(|v| v.parse::<u64>().ok())
        else {
            eprintln!("no fig4_reduced {key} in {baseline_path}");
            return 2;
        };
        if measured != expected {
            eprintln!("FINGERPRINT MISMATCH: {key} is {measured}, the baseline has {expected}");
            failed = true;
        }
    }
    let floor = base_qps * (1.0 - MAX_REGRESSION);
    println!(
        "  baseline {base_qps:.0} q/s, floor {floor:.0} q/s, measured {:.0} q/s",
        m.queries_per_sec
    );
    if m.queries_per_sec < floor {
        eprintln!(
            "PERF REGRESSION: {:.0} q/s is more than {:.0} % below the \
             committed baseline {base_qps:.0} q/s",
            m.queries_per_sec,
            MAX_REGRESSION * 100.0
        );
        failed = true;
    }
    if failed {
        return 1;
    }
    println!("perf smoke OK");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let Some(baseline) = args.get(i + 1) else {
            eprintln!("--check requires a baseline path");
            std::process::exit(2);
        };
        std::process::exit(check_mode(baseline));
    }

    let mut path = "BENCH_sim.json".to_string();
    let mut headline = HEADLINE_QUERIES;
    let mut telemetry = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--queries" {
            headline = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--queries requires a count");
        } else if a == "--telemetry" {
            telemetry = true;
        } else {
            path.clone_from(a);
        }
    }

    let mut instances: Vec<(&str, Measurement)> = Vec::new();
    let reduced = trace(REDUCED_QUERIES);
    instances.push(("fig4_reduced", measure(&reduced, telemetry)));
    let full = trace(headline);
    instances.push(("fig4_1m", measure(&full, telemetry)));

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"proteus-bench-sim/1\",\n");
    let _ = writeln!(out, "  \"repeats\": {REPEATS},");
    out.push_str("  \"instances\": [\n");
    for (i, (label, m)) in instances.iter().enumerate() {
        write_instance(&mut out, label, m);
        out.push_str(if i + 1 < instances.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");

    std::fs::write(&path, &out).expect("write BENCH_sim.json");
    println!("wrote {path} ({} instances)", instances.len());
    for (label, m) in &instances {
        print_summary(label, m);
    }
}
