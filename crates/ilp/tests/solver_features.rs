//! Feature tests for solver options: warm starts, relative gaps, and
//! branch priorities.

use std::time::Duration;

use p4all_ilp::{solve_with, LinExpr, Model, Sense, SolveOptions, SolveStatus, VarId};

fn knapsack(n: usize) -> (Model, Vec<VarId>) {
    let mut m = Model::new();
    let mut cap = LinExpr::zero();
    let mut obj = LinExpr::zero();
    let mut xs = Vec::new();
    for i in 0..n {
        let x = m.binary(format!("x{i}"));
        cap += LinExpr::term(x, ((i * 7 + 3) % 11 + 1) as f64);
        obj += LinExpr::term(x, ((i * 5 + 2) % 13 + 1) as f64);
        xs.push(x);
    }
    m.le("cap", cap, (2 * n) as f64);
    m.set_objective(obj, Sense::Maximize);
    (m, xs)
}

#[test]
fn feasible_warm_start_seeds_incumbent() {
    let (m, _) = knapsack(16);
    // All-zeros is always feasible for a knapsack.
    let warm = vec![0.0; m.num_vars()];
    let opts = SolveOptions { warm_start: Some(warm), ..Default::default() };
    let out = solve_with(&m, &opts).unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
    // With node_limit 0 and a warm start, we still get a Feasible answer.
    // Cuts stay off here: the root cut loop can close this knapsack with
    // zero nodes, and this test is about the zero-budget path.
    let opts = SolveOptions {
        warm_start: Some(vec![0.0; m.num_vars()]),
        node_limit: 0,
        dive_limit: 0,
        cuts: false,
        ..Default::default()
    };
    let out = solve_with(&m, &opts).unwrap();
    assert_eq!(out.status, SolveStatus::Feasible);
    assert_eq!(out.solution.unwrap().objective, 0.0);
}

#[test]
fn infeasible_warm_start_is_ignored() {
    let (m, xs) = knapsack(8);
    // All-ones overloads the capacity: must be rejected, solve continues.
    let warm = vec![1.0; m.num_vars()];
    let opts = SolveOptions { warm_start: Some(warm), ..Default::default() };
    let out = solve_with(&m, &opts).unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
    let sol = out.solution.unwrap();
    // The capacity constraint holds.
    let weight: f64 =
        xs.iter().enumerate().map(|(i, &x)| ((i * 7 + 3) % 11 + 1) as f64 * sol.value(x)).sum();
    assert!(weight <= 16.0 + 1e-6);
}

#[test]
fn wrong_length_warm_start_is_ignored() {
    let (m, _) = knapsack(8);
    let opts = SolveOptions { warm_start: Some(vec![0.0; 3]), ..Default::default() };
    let out = solve_with(&m, &opts).unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
}

#[test]
fn relative_gap_accepts_near_optimal() {
    let (m, _) = knapsack(20);
    let exact = solve_with(&m, &SolveOptions::default()).unwrap();
    let loose = solve_with(
        &m,
        &SolveOptions { rel_gap: 0.05, ..Default::default() },
    )
    .unwrap();
    let e = exact.solution.unwrap().objective;
    let l = loose.solution.unwrap().objective;
    assert!(l >= e * 0.95 - 1e-9, "5% gap violated: {l} vs {e}");
    assert!(loose.nodes <= exact.nodes, "looser gap must not explore more");
}

#[test]
fn branch_priority_changes_exploration_order() {
    // Priorities must not affect correctness.
    let (mut m, xs) = knapsack(14);
    for (i, &x) in xs.iter().enumerate() {
        m.set_branch_priority(x, (i % 3) as i32 * 10);
    }
    let with = solve_with(&m, &SolveOptions::default()).unwrap();
    let (m0, _) = knapsack(14);
    let without = solve_with(&m0, &SolveOptions::default()).unwrap();
    assert_eq!(with.status, SolveStatus::Optimal);
    assert!(
        (with.solution.unwrap().objective - without.solution.unwrap().objective).abs() < 1e-9
    );
}

#[test]
fn time_limit_returns_best_found() {
    let (m, _) = knapsack(26);
    let opts = SolveOptions {
        time_limit: Some(Duration::from_millis(1)),
        dive_limit: 0,
        ..Default::default()
    };
    let out = solve_with(&m, &opts).unwrap();
    // Either it proved optimality within a millisecond (possible for this
    // size) or it stopped with whatever it had.
    assert!(matches!(
        out.status,
        SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::Unknown
    ));
}
