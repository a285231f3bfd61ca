//! Property tests: the branch-and-bound solver must agree with exhaustive
//! enumeration on randomly generated small MILPs, presolve must never
//! change the optimum, and the parallel solver must agree with the
//! sequential one at every thread count and in both execution modes.

use proptest::prelude::*;

use p4all_ilp::{
    brute_force, presolve, solve, solve_with, LinExpr, Model, Presolved, Sense, SolveOptions,
    SolveStatus,
};

/// Description of one random constraint row.
#[derive(Debug, Clone)]
struct RawCon {
    coefs: Vec<i8>,
    cmp: u8, // 0 = Le, 1 = Ge, 2 = Eq
    rhs: i8,
}

/// A random model over `n` integer variables with domains [0, dom].
#[derive(Debug, Clone)]
struct RawModel {
    n: usize,
    dom: u8,
    obj: Vec<i8>,
    sense_max: bool,
    cons: Vec<RawCon>,
}

fn raw_model_strategy() -> impl Strategy<Value = RawModel> {
    (2usize..=5, 0u8..=2).prop_flat_map(|(n, dom)| {
        let con = (
            proptest::collection::vec(-3i8..=3, n),
            0u8..=2,
            -6i8..=12,
        )
            .prop_map(|(coefs, cmp, rhs)| RawCon { coefs, cmp, rhs });
        (
            Just(n),
            Just(dom),
            proptest::collection::vec(-5i8..=5, n),
            any::<bool>(),
            proptest::collection::vec(con, 1..=4),
        )
            .prop_map(|(n, dom, obj, sense_max, cons)| RawModel { n, dom, obj, sense_max, cons })
    })
}

fn build(raw: &RawModel) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..raw.n)
        .map(|i| {
            if raw.dom == 0 {
                m.binary(format!("x{i}"))
            } else {
                m.integer(format!("x{i}"), 0.0, (raw.dom + 1) as f64)
            }
        })
        .collect();
    for (k, c) in raw.cons.iter().enumerate() {
        let mut e = LinExpr::zero();
        for (i, &a) in c.coefs.iter().enumerate() {
            if a != 0 {
                e.add_term(vars[i], a as f64);
            }
        }
        match c.cmp {
            0 => m.le(format!("c{k}"), e, c.rhs as f64),
            1 => m.ge(format!("c{k}"), e, c.rhs as f64),
            _ => m.eq(format!("c{k}"), e, c.rhs as f64),
        };
    }
    let mut obj = LinExpr::zero();
    for (i, &a) in raw.obj.iter().enumerate() {
        if a != 0 {
            obj.add_term(vars[i], a as f64);
        }
    }
    m.set_objective(obj, if raw.sense_max { Sense::Maximize } else { Sense::Minimize });
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact solver agrees with brute force on objective value (or both
    /// report infeasibility).
    #[test]
    fn solver_matches_brute_force(raw in raw_model_strategy()) {
        let m = build(&raw);
        let reference = brute_force(&m, 2_000_000);
        let out = solve(&m).expect("solver must not error");
        match reference {
            None => prop_assert_eq!(out.status, SolveStatus::Infeasible),
            Some(r) => {
                prop_assert_eq!(out.status, SolveStatus::Optimal);
                let got = out.solution.expect("optimal implies solution");
                prop_assert!(
                    (got.objective - r.objective).abs() < 1e-5,
                    "solver {} vs brute force {}", got.objective, r.objective
                );
                prop_assert!(m.check_feasible(&got.values, 1e-5).is_ok());
            }
        }
    }

    /// Differential test for LP warm starting: with `warm_lp` on (each
    /// node's LP re-optimized by the dual simplex from its parent's
    /// basis) and off (every node solved cold), the search returns the
    /// same status and the same optimal objective. The explored tree may
    /// differ — the LP can land on a different co-optimal vertex — but
    /// what is solvable and the optimum value may not.
    #[test]
    fn warm_lp_matches_cold(raw in raw_model_strategy()) {
        let m = build(&raw);
        let cold = solve_with(&m, &SolveOptions { warm_lp: false, ..SolveOptions::default() })
            .expect("cold solve must not error");
        let warm = solve(&m).expect("warm solve must not error");
        prop_assert_eq!(warm.status, cold.status);
        match (&cold.solution, &warm.solution) {
            (Some(a), Some(b)) => {
                prop_assert!(
                    (a.objective - b.objective).abs() < 1e-6,
                    "cold {} != warm {}", a.objective, b.objective
                );
                prop_assert!(m.check_feasible(&b.values, 1e-5).is_ok());
            }
            (None, None) => {}
            _ => prop_assert!(false, "warm and cold disagree on solution existence"),
        }
        // A cold solve must never take the warm path or fall back.
        prop_assert_eq!(cold.telemetry.total_warm_solves(), 0);
        prop_assert_eq!(cold.telemetry.total_cold_fallbacks(), 0);
    }

    /// Presolve's tightened bounds never cut off the optimum.
    #[test]
    fn presolve_preserves_optimum(raw in raw_model_strategy()) {
        let m = build(&raw);
        let reference = brute_force(&m, 2_000_000);
        match presolve(&m) {
            Presolved::Infeasible { .. } => prop_assert!(reference.is_none()),
            Presolved::Bounds(b) => {
                if let Some(r) = reference {
                    // Optimal point remains within the tightened box.
                    for (j, &(lb, ub)) in b.iter().enumerate() {
                        prop_assert!(
                            r.values[j] >= lb - 1e-9 && r.values[j] <= ub + 1e-9,
                            "presolve cut optimum: var {} = {} outside [{}, {}]",
                            j, r.values[j], lb, ub
                        );
                    }
                }
            }
        }
    }
}
