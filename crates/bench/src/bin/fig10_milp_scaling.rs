//! Fig. 10 — scalability of the resource-management MILP in its three
//! input dimensions: devices (d), model variants (m) and query types (q).
//!
//! The paper measures Gurobi; this reproduction measures the workspace's
//! own branch-and-bound solver on the faithful per-device formulation, so
//! absolute times differ — the target is the *growth shape* (superlinear in
//! each dimension) and that solves stay far under the 30 s invocation
//! period at the paper-testbed scale. Ranges are reduced accordingly.
//!
//! Besides wall time, every point reports the solver's own statistics
//! (branch-and-bound nodes, simplex pivots, warm-start hit rate) so the
//! cost of a replan can be attributed: many nodes with a high warm-hit
//! rate means cheap dual-simplex repairs dominate; a low rate means the
//! solver fell back to cold two-phase solves.

use proteus_bench::fig10::{self, Instance};
use proteus_core::allocation::milp::{solve_allocation, Formulation};
use proteus_metrics::report::{fmt_f, TextTable};
use proteus_solver::SolveStats;

fn solve_point(instance: &Instance, formulation: Formulation) -> SolveStats {
    let store = instance.store();
    let ctx = instance.context(&store);
    match solve_allocation(&ctx, &instance.demand(), None, &fig10::config(formulation)) {
        Ok(outcome) => outcome.stats,
        Err(_) => SolveStats::default(),
    }
}

fn stat_cells(st: &SolveStats) -> [String; 4] {
    [
        fmt_f(st.wall_secs(), 3),
        st.nodes.to_string(),
        st.simplex_iterations.to_string(),
        fmt_f(st.warm_hit_rate() * 100.0, 0),
    ]
}

fn main() {
    println!("Fig. 10: MILP solve time vs problem dimensions");
    println!("(pd = per-device formulation, agg = type-aggregated)\n");

    for axis in fig10::axes() {
        let mut t = TextTable::new(vec![
            axis.name,
            "pd wall (s)",
            "pd nodes",
            "pd iters",
            "pd warm%",
            "agg wall (s)",
            "agg nodes",
            "agg iters",
            "agg warm%",
        ]);
        for instance in &axis.instances {
            let mut row = vec![instance.dim.to_string()];
            for formulation in [Formulation::PerDevice, Formulation::TypeAggregated] {
                row.extend(stat_cells(&solve_point(instance, formulation)));
            }
            t.row(row);
        }
        println!("Scaling in {} ({}):\n{}", axis.name, axis.fixed, t.render());
    }

    // ---- the §6.8 headline: the operating point used by the system.
    let st = solve_point(&fig10::operating_point(), Formulation::TypeAggregated);
    println!(
        "Operating point (paper testbed, 40 devices, 51 variants, 9 types,\n\
         aggregated formulation as used at runtime): {:.3} s per solve —\n\
         {} nodes, {} simplex iterations, {:.0}% warm-start hits\n\
         (paper's Gurobi average: 4.2 s; both sit comfortably off the query\n\
         critical path and inside the 30 s invocation period).",
        st.wall_secs(),
        st.nodes,
        st.simplex_iterations,
        st.warm_hit_rate() * 100.0,
    );
}
