//! Pin the historical branch-and-bound search on fixed models.
//!
//! **Frozen:** the tree. With `SolveOptions { cuts: false, pseudocost:
//! false }` the node count and the objective are the ones recorded from
//! the solver before the cut engine landed, whatever `warm_lp` says —
//! under `warm_lp` the cold dive still has the last word on the incumbent
//! a model enters the tree with (cold wins ties), so the tree is the same
//! tree. With `warm_lp: false` on top, the LP count is frozen as well:
//! that configuration is the all-cold solver, byte for byte.
//!
//! **Not frozen:** how many LPs the root heuristic spends before the
//! tree. Under `warm_lp` a basis-chained dive runs ahead of the cold one;
//! its LPs are read from `SolveTelemetry::dive` and added to the
//! historical count, not re-blessed as a literal.

use p4all_ilp::{solve_with, LinExpr, Model, Sense, SolveOptions, SolveStatus};

/// A 14-item knapsack (the model from the parallel solver's own
/// differential tests) whose root LP optimum is already integral: the
/// solve ends at the root LP, before any dive.
fn knapsack(n: usize) -> Model {
    let mut m = Model::new();
    let mut obj = LinExpr::zero();
    let mut cap = LinExpr::zero();
    for i in 0..n {
        let x = m.binary(format!("x{i}"));
        obj += LinExpr::term(x, ((i * 7 + 3) % 11 + 1) as f64);
        cap += LinExpr::term(x, ((i * 5 + 2) % 9 + 1) as f64);
    }
    m.le("cap", cap, (2 * n) as f64);
    m.set_objective(obj, Sense::Maximize);
    m
}

/// Equal-weight knapsack against an odd capacity: every LP vertex is
/// fractional, so the historical search branches repeatedly.
fn branchy() -> Model {
    let mut m = Model::new();
    let mut obj = LinExpr::zero();
    let mut cap = LinExpr::zero();
    for i in 0..15 {
        let x = m.binary(format!("x{i}"));
        obj += LinExpr::term(x, (i + 1) as f64);
        cap += LinExpr::term(x, 2.0);
    }
    m.le("cap", cap, 9.0);
    m.set_objective(obj, Sense::Maximize);
    m
}

fn historical_opts(threads: usize, warm_lp: bool) -> SolveOptions {
    SolveOptions { threads, warm_lp, cuts: false, pseudocost: false, ..SolveOptions::default() }
}

/// Counts recorded from the solver before the cut engine existed
/// (commit b8c335b), in sequential and deterministic-parallel modes.
#[test]
fn historical_counts_pinned() {
    // (name, model, threads, expected nodes, all-cold lp_solves, objective)
    let cases: Vec<(&str, Model, usize, usize, usize, f64)> = vec![
        ("knapsack14-1t", knapsack(14), 1, 1, 1, 54.0),
        ("knapsack14-4t", knapsack(14), 4, 1, 1, 54.0),
        ("branchy-1t", branchy(), 1, 143, 170, 54.0),
        ("branchy-4t", branchy(), 4, 143, 170, 54.0),
    ];
    for (name, m, threads, nodes, lps, obj) in cases {
        for warm_lp in [false, true] {
            let out = solve_with(&m, &historical_opts(threads, warm_lp)).unwrap();
            assert_eq!(out.status, SolveStatus::Optimal, "{name}");
            assert_eq!(out.nodes, nodes, "{name} warm_lp={warm_lp}: node count drifted");
            let warm_dive = out.telemetry.dive.and_then(|d| d.warm).map_or(0, |(_, w)| w.lps);
            assert!(warm_lp || warm_dive == 0, "{name}: a warm dive ran under warm_lp: false");
            assert_eq!(
                out.lp_solves,
                lps + warm_dive,
                "{name} warm_lp={warm_lp}: LP count drifted ({warm_dive} warm-dive LPs)"
            );
            assert!((out.solution.unwrap().objective - obj).abs() < 1e-9, "{name}");
        }
    }
}

/// Same pin with the root dive disabled — the pure tree search.
#[test]
fn historical_counts_pinned_no_dive() {
    let opts = SolveOptions { dive_limit: 0, ..historical_opts(1, true) };
    let out = solve_with(&branchy(), &opts).unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
    assert_eq!(out.nodes, 143);
    assert_eq!(out.lp_solves, 144);
}

/// The cut engine must not change the optimum: cuts+pseudocost on vs
/// off agree on objective and status for the pinned models.
#[test]
fn cuts_preserve_objective_on_pinned_models() {
    for m in [knapsack(14), branchy()] {
        let off = solve_with(&m, &historical_opts(1, true)).unwrap();
        let on = solve_with(&m, &SolveOptions { threads: 1, ..SolveOptions::default() }).unwrap();
        assert_eq!(off.status, on.status);
        let (a, b) = (off.solution.unwrap().objective, on.solution.unwrap().objective);
        assert!((a - b).abs() < 1e-6, "cuts changed objective: {a} vs {b}");
    }
}
