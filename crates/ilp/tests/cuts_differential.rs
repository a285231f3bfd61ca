//! Differential test for the cut-and-branch engine, three ways: the
//! default solve, plain branch-and-bound (`cuts: false`) and
//! [`brute_force`] — enumeration of the integral columns with the cold LP
//! over the continuous ones, which shares no search code with either —
//! must agree on feasibility and on the optimal objective, on
//! mixed-integer models with continuous columns and Eq rows (the shapes
//! where an unsound Gomory derivation would show first).

use proptest::prelude::*;

use p4all_ilp::{brute_force, solve_with, LinExpr, Model, Sense, SolveOptions, SolveStatus};

#[derive(Debug, Clone)]
struct RawCon {
    coefs: Vec<i8>,
    cmp: u8,
    rhs: i8,
}

#[derive(Debug, Clone)]
struct RawModel {
    n: usize,
    cont_mask: Vec<bool>,
    dom: u8,
    obj: Vec<i8>,
    sense_max: bool,
    cons: Vec<RawCon>,
}

fn strategy() -> impl Strategy<Value = RawModel> {
    (2usize..=6, 0u8..=3).prop_flat_map(|(n, dom)| {
        let con = (
            proptest::collection::vec(-3i8..=3, n),
            0u8..=2,
            -8i8..=16,
        )
            .prop_map(|(coefs, cmp, rhs)| RawCon { coefs, cmp, rhs });
        (
            Just(n),
            proptest::collection::vec(any::<bool>(), n),
            Just(dom),
            proptest::collection::vec(-5i8..=5, n),
            any::<bool>(),
            proptest::collection::vec(con, 1..=5),
        )
            .prop_map(|(n, cont_mask, dom, obj, sense_max, cons)| RawModel {
                n,
                cont_mask,
                dom,
                obj,
                sense_max,
                cons,
            })
    })
}

fn build(raw: &RawModel) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..raw.n)
        .map(|i| {
            let ub = (raw.dom + 1) as f64;
            if raw.cont_mask[i] {
                m.continuous(format!("y{i}"), 0.0, ub)
            } else {
                m.integer(format!("x{i}"), 0.0, ub)
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
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Brute force = plain = cut-and-branch: the same feasibility verdict,
    /// the same optimal objective, and both solver solutions feasible for
    /// the *original* model (cuts only ever tighten the relaxation, never
    /// the integer hull). Every column is bounded, so `Unbounded` cannot
    /// occur and `Optimal`/`Infeasible` are the only verdicts.
    #[test]
    fn cuts_match_plain_on_mixed_models(raw in strategy()) {
        let m = build(&raw);
        let reference = brute_force(&m, 1 << 14);
        let plain = solve_with(&m, &SolveOptions { cuts: false, ..Default::default() })
            .expect("plain solve");
        let cuts = solve_with(&m, &SolveOptions::default()).expect("cuts solve");
        for (name, out) in [("plain", plain), ("cuts", cuts)] {
            match &reference {
                None => prop_assert_eq!(out.status, SolveStatus::Infeasible, "{} on {:?}", name, raw),
                Some(best) => {
                    prop_assert_eq!(out.status, SolveStatus::Optimal, "{} on {:?}", name, raw);
                    let sol = out.solution.unwrap();
                    prop_assert!(
                        (sol.objective - best.objective).abs() < 1e-5,
                        "{} {} vs brute force {} on {:?}", name, sol.objective, best.objective, raw
                    );
                    prop_assert!(
                        m.check_feasible(&sol.values, 1e-5).is_ok(),
                        "{} solution violates the original model on {:?}", name, raw
                    );
                }
            }
        }
    }
}
