//! §6.8 — decision overheads: request-router lookup, batching decision and
//! the resource-management MILP at the paper testbed scale, plus the
//! substrates every experiment runs on (event engine, trace generation,
//! profile store).
//!
//! The paper reports sub-millisecond router lookups and ~4.2 s average
//! Gurobi solves; here the same operations are measured over the Rust
//! implementation (the solver is our own branch & bound, so the absolute
//! MILP time differs, but it stays far off the query critical path). The
//! run fails if a route takes 1 ms or more, or the testbed solve reaches
//! the 30 s invocation period.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Duration;

use proteus_bench::time_per_call;
use proteus_core::allocation::milp::{solve_allocation, MilpConfig};
use proteus_core::batching::{BatchContext, BatchPolicy, ProteusBatching};
use proteus_core::router::Router;
use proteus_core::schedulers::AllocContext;
use proteus_core::{FamilyMap, Query, QueryId};
use proteus_metrics::report::{fmt_f, TextTable};
use proteus_profiler::{
    Cluster, DeviceId, DeviceType, ModelFamily, ModelZoo, ProfileStore, SloPolicy,
};
use proteus_sim::{Actor, SimTime, Simulation};
use proteus_workloads::{DiurnalTrace, TraceBuilder};

/// Reschedules itself `left` times, 10 µs apart.
struct Relay {
    left: u32,
}

impl Actor for Relay {
    type Event = u32;
    fn handle(&mut self, now: SimTime, event: u32, sim: &mut Simulation<u32>) {
        if self.left > 0 {
            self.left -= 1;
            sim.schedule(now + SimTime::from_micros(10), event + 1);
        }
    }
}

fn main() -> ExitCode {
    let zoo = ModelZoo::paper_table3();
    let store = ProfileStore::build(&zoo, SloPolicy::default());

    // 40 hosting devices for one family: the worst realistic fan-out.
    let targets: Vec<(DeviceId, f64)> = (0..40)
        .map(|i| (DeviceId(i), 1.0 + (i % 7) as f64))
        .collect();
    let mut router = Router::new(ModelFamily::EfficientNet, targets);
    let route = time_per_call(|| router.route());

    let variant = zoo
        .least_accurate(ModelFamily::EfficientNet)
        .expect("the Table 3 zoo has EfficientNet variants")
        .id();
    let profile = store
        .profile(variant, DeviceType::V100)
        .expect("every variant is profiled on the V100");
    let slo = SimTime::from_millis_f64(store.slo_ms(ModelFamily::EfficientNet));
    let queue: Vec<Query> = (0..24)
        .map(|i| {
            Query::new(
                QueryId(i),
                ModelFamily::EfficientNet,
                SimTime::from_millis(i),
                slo,
            )
        })
        .collect();
    let mut policy = ProteusBatching;
    let decide = time_per_call(|| {
        policy.decide(&BatchContext {
            now: SimTime::from_millis(5),
            queue: black_box(&queue),
            profile,
            lat_table: &[],
        })
    });

    let cluster = Cluster::paper_testbed();
    let ctx = AllocContext {
        cluster: &cluster,
        zoo: &zoo,
        store: &store,
        down: &[],
    };
    let demand = FamilyMap::from_fn(|f| 40.0 + 10.0 * f.index() as f64);
    let config = MilpConfig::default();
    let solve = time_per_call(|| solve_allocation(&ctx, black_box(&demand), None, &config));

    let events = time_per_call(|| {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, 0);
        sim.run(&mut Relay { left: 10_000 });
        sim.delivered()
    });

    let curve = DiurnalTrace::paper_like(60, 200.0, 1000.0, 42);
    let trace = time_per_call(|| {
        TraceBuilder::new(TraceBuilder::paper_families())
            .seed(42)
            .build(black_box(&curve))
            .len()
    });

    let ids: Vec<_> = zoo.iter().map(|v| v.id()).collect();
    let mut i = 0;
    let lookup = time_per_call(|| {
        i = (i + 1) % ids.len();
        store.profile(ids[i], DeviceType::V100)
    });
    let build = time_per_call(|| ProfileStore::build(&zoo, SloPolicy::default()));

    let mut t = TextTable::new(vec!["operation", "per call (µs)"]);
    for (name, per_call) in [
        ("route over 40 targets", route),
        ("Proteus batching decision, 24 queued", decide),
        ("MILP allocate, paper testbed", solve),
        ("10k chained DES events", events),
        ("60 s diurnal Zipf trace", trace),
        ("profile-store lookup", lookup),
        ("profile-store build, full zoo", build),
    ] {
        t.row(vec![
            name.to_string(),
            fmt_f(per_call.as_secs_f64() * 1e6, 3),
        ]);
    }
    println!("§6.8 decision overheads (mean wall time per call)\n");
    print!("{}", t.render());

    if route >= Duration::from_millis(1) || solve >= Duration::from_secs(30) {
        eprintln!("overheads: a route must take < 1 ms and a testbed solve < 30 s");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
