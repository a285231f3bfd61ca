//! Semantic pins of the search on fixed models, across the default
//! configuration and the two reference ones (`cuts: false`, `warm_lp:
//! false`).
//!
//! **Pinned:** the answer and its repeatability. Every configuration
//! proves `Optimal` at the objective [`brute_force`] finds, and a second
//! run repeats the node count, the LP count and the value vector exactly.
//!
//! **Banded, not frozen:** the size of the search. Node and LP counts may
//! move with the solver's arithmetic (a co-optimal vertex reshuffles a
//! tree), so each is held to at most twice the count recorded when the
//! band was written — wide enough for a reshuffle, tight enough to catch
//! a search that lost its pruning.

use p4all_ilp::{brute_force, solve_with, LinExpr, Model, Sense, SolveOptions, SolveStatus};

/// A 14-item knapsack whose root LP optimum is already integral: the
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
/// fractional, so plain branch-and-bound branches repeatedly.
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

/// Solve twice; assert `Optimal` at the brute-force objective, run-twice
/// identity, and counts within twice the recorded ones.
fn assert_pinned(name: &str, m: &Model, opts: &SolveOptions, nodes: usize, lps: usize) {
    let reference = brute_force(m, 1 << 16).expect("pinned models are feasible");
    let a = solve_with(m, opts).unwrap();
    let b = solve_with(m, opts).unwrap();
    assert_eq!(a.status, SolveStatus::Optimal, "{name}");
    let sol = a.solution.expect("optimal solve has a solution");
    assert!(
        (sol.objective - reference.objective).abs() < 1e-9,
        "{name}: solver {} vs brute force {}",
        sol.objective,
        reference.objective
    );
    m.check_feasible(&sol.values, 1e-6).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!((a.nodes, a.lp_solves), (b.nodes, b.lp_solves), "{name}: second run differs");
    assert_eq!(sol.values, b.solution.unwrap().values, "{name}: second run differs");
    assert!(a.nodes <= 2 * nodes, "{name}: {} nodes, recorded {nodes}", a.nodes);
    assert!(a.lp_solves <= 2 * lps, "{name}: {} LPs, recorded {lps}", a.lp_solves);
}

/// All four configurations. The recorded counts are the plain all-cold
/// search's (143 nodes, 170 LPs on `branchy`; the chained dive adds one
/// LP under `warm_lp`); the cut engine closes `branchy` at the root (0
/// nodes, 30 LPs), far inside the same band.
#[test]
fn pinned_models_across_configurations() {
    for cuts in [true, false] {
        for warm_lp in [true, false] {
            let opts = SolveOptions { cuts, warm_lp, ..SolveOptions::default() };
            let config = format!("cuts: {cuts}, warm_lp: {warm_lp}");
            // The root LP is integral whatever the configuration.
            assert_pinned(&format!("knapsack14, {config}"), &knapsack(14), &opts, 1, 1);
            assert_pinned(&format!("branchy, {config}"), &branchy(), &opts, 143, 170);
        }
    }
}

/// The same with the root dive disabled — the pure tree search, one LP
/// per node after the root's.
#[test]
fn pinned_without_the_dive() {
    let opts = SolveOptions { dive_limit: 0, cuts: false, ..SolveOptions::default() };
    assert_pinned("branchy, no dive", &branchy(), &opts, 143, 144);
}
