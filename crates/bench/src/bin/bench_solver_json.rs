//! Machine-readable companion to `fig10_milp_scaling`: sweeps the same
//! Fig. 10 instances (`proteus_bench::fig10`) on the per-device
//! formulation, plus the aggregated operating point, and writes
//! `BENCH_solver.json` (or the path given as the first argument).
//!
//! The JSON is written by hand so the harness has no dependencies beyond
//! the workspace crates — it builds and runs anywhere the solver does,
//! which is what makes cross-commit comparisons (seed vs optimized solver)
//! possible: run the binary from each commit and diff the `secs` fields.
//! Each instance also records a plan fingerprint (shrink, capacity, mean
//! planned accuracy) so a speedup can be rejected if it changed answers.

use std::fmt::Write as _;
use std::time::Instant;

use proteus_bench::fig10::{self, Instance};
use proteus_core::allocation::audit::audit_plan;
use proteus_core::allocation::milp::{solve_allocation, Formulation};
use proteus_profiler::ModelFamily;

/// Best-of-N timing: small N keeps the full sweep under a minute while
/// still shaving scheduler noise off the floor.
const REPEATS: u32 = 3;

struct Measurement {
    secs: f64,
    shrink: f64,
    capacity: f64,
    mean_accuracy: f64,
    nodes: u64,
    pruned: u64,
    simplex_iterations: u64,
    warm_starts: u64,
    cold_solves: u64,
    solver_wall_secs: f64,
}

fn measure(instance: &Instance, formulation: Formulation) -> Measurement {
    let store = instance.store();
    let ctx = instance.context(&store);
    let demand = instance.demand();
    let config = fig10::config(formulation);
    let mut best: Option<Measurement> = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let outcome = solve_allocation(&ctx, &demand, None, &config);
        let secs = start.elapsed().as_secs_f64();
        let m = match &outcome {
            Ok(o) => {
                // Every solve in the sweep is re-verified by the
                // independent plan auditor; a violation is a solver bug
                // and fails the whole benchmark run.
                let report = audit_plan(&ctx, &demand, &o.plan);
                assert!(
                    report.is_clean(),
                    "plan audit failed for {}-family instance: {report}",
                    instance.families
                );
                let acc = o.plan.planned_accuracy(&ctx);
                let (sum, n) = ModelFamily::ALL
                    .iter()
                    .filter(|&&f| demand[f] > 0.0)
                    .fold((0.0, 0u32), |(s, n), &f| (s + acc[f], n + 1));
                Measurement {
                    secs,
                    shrink: o.shrink,
                    capacity: o.plan.total_capacity(),
                    mean_accuracy: if n > 0 { sum / f64::from(n) } else { 0.0 },
                    nodes: o.stats.nodes,
                    pruned: o.stats.pruned,
                    simplex_iterations: o.stats.simplex_iterations,
                    warm_starts: o.stats.warm_starts,
                    cold_solves: o.stats.cold_solves,
                    solver_wall_secs: o.stats.wall_secs(),
                }
            }
            Err(_) => Measurement {
                secs,
                shrink: f64::INFINITY,
                capacity: 0.0,
                mean_accuracy: 0.0,
                nodes: 0,
                pruned: 0,
                simplex_iterations: 0,
                warm_starts: 0,
                cold_solves: 0,
                solver_wall_secs: 0.0,
            },
        };
        match &best {
            Some(b) if b.secs <= m.secs => {}
            _ => best = Some(m),
        }
    }
    best.expect("REPEATS > 0")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn write_instance(out: &mut String, label: &str, dim: u64, m: &Measurement) {
    let _ = write!(
        out,
        "    {{\"label\": \"{label}\", \"dim\": {dim}, \"secs\": {}, \
         \"shrink\": {}, \"capacity\": {}, \"mean_accuracy\": {}, \
         \"nodes\": {}, \"pruned\": {}, \"simplex_iterations\": {}, \
         \"warm_starts\": {}, \"cold_solves\": {}, \"solver_wall_secs\": {}}}",
        json_num(m.secs),
        json_num(m.shrink),
        json_num(m.capacity),
        json_num(m.mean_accuracy),
        m.nodes,
        m.pruned,
        m.simplex_iterations,
        m.warm_starts,
        m.cold_solves,
        json_num(m.solver_wall_secs),
    );
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_solver.json".to_string());

    let mut instances: Vec<(String, u64, Measurement)> = Vec::new();

    for axis in fig10::axes() {
        for instance in &axis.instances {
            instances.push((
                format!("{}_pd_{}", axis.key, instance.dim),
                instance.dim,
                measure(instance, Formulation::PerDevice),
            ));
        }
    }
    // Operating point — the aggregated formulation the controller runs.
    let op = fig10::operating_point();
    instances.push((
        "operating_point_agg".to_string(),
        op.dim,
        measure(&op, Formulation::TypeAggregated),
    ));

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"proteus-bench-solver/1\",\n");
    let _ = writeln!(out, "  \"repeats\": {REPEATS},");
    out.push_str("  \"instances\": [\n");
    for (i, (label, dim, m)) in instances.iter().enumerate() {
        write_instance(&mut out, label, *dim, m);
        out.push_str(if i + 1 < instances.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");

    std::fs::write(&path, &out).expect("write BENCH_solver.json");
    println!("wrote {path} ({} instances)", instances.len());
    for (label, _, m) in &instances {
        println!(
            "  {label}: {:.4} s  nodes={} iters={} warm={}/{}",
            m.secs,
            m.nodes,
            m.simplex_iterations,
            m.warm_starts,
            m.warm_starts + m.cold_solves,
        );
    }
}
