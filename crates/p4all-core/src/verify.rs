//! Post-solve layout self-checks.
//!
//! The solver's answer is re-derived facts, not trusted output: a layout
//! claimed feasible must actually satisfy the target's resource budget,
//! the program's `assume` predicates at the chosen symbolic values, and
//! the basic structural bounds (every placement within the stage count).
//! The adversarial compiler-correctness harness (`crates/fuzzgen`) runs
//! these checks on every generated program; integration tests use them as
//! a one-call oracle.

use std::collections::BTreeMap;

use p4all_lang::ast::{BinOp, Expr, Program, UnOp};
use p4all_pisa::TargetSpec;

use crate::pipeline::evaluate_utility;
use crate::solution::Layout;

/// Evaluate a boolean `assume`-style predicate at concrete symbolic
/// values. Arithmetic subterms evaluate through [`evaluate_utility`];
/// comparisons compare the arithmetic results; `&&`/`||`/`!` combine
/// booleans. `None` when the expression references anything outside the
/// value map or mixes kinds in an unsupported way.
fn evaluate_predicate(e: &Expr, values: &BTreeMap<String, u64>) -> Option<bool> {
    match e {
        Expr::Unary { op: UnOp::Not, operand } => evaluate_predicate(operand, values).map(|b| !b),
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            Some(evaluate_predicate(lhs, values)? && evaluate_predicate(rhs, values)?)
        }
        Expr::Binary { op: BinOp::Or, lhs, rhs } => {
            Some(evaluate_predicate(lhs, values)? || evaluate_predicate(rhs, values)?)
        }
        Expr::Binary { op, lhs, rhs } if op.is_boolean() => {
            let a = evaluate_utility(lhs, values)?;
            let b = evaluate_utility(rhs, values)?;
            Some(match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                _ => unreachable!("non-comparison boolean ops handled above"),
            })
        }
        _ => None,
    }
}

/// Check every `assume` of `program` at the layout's symbolic values.
/// `Err` carries one message per violated (or unevaluable) assume.
pub fn assumes_hold(
    program: &Program,
    values: &BTreeMap<String, u64>,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for a in &program.assumes {
        match evaluate_predicate(&a.expr, values) {
            Some(true) => {}
            Some(false) => violations.push(format!(
                "assume `{}` violated at {:?}",
                p4all_lang::printer::print_expr(&a.expr),
                values
            )),
            None => violations.push(format!(
                "assume `{}` not evaluable at the chosen symbolic values",
                p4all_lang::printer::print_expr(&a.expr)
            )),
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Verify that a layout the compiler claims feasible actually is:
///
/// 1. every declared symbolic received a concrete value,
/// 2. every `assume` predicate holds at those values,
/// 3. the aggregated resource usage fits the target
///    ([`p4all_pisa::validate`]),
/// 4. every placement and register allocation names a stage inside the
///    target's pipeline.
///
/// Returns all violations, not just the first — a fuzz divergence report
/// wants the complete picture.
pub fn verify_layout(
    program: &Program,
    layout: &Layout,
    target: &TargetSpec,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();

    for s in &program.symbolics {
        match layout.symbol_values.get(&s.name) {
            None => violations.push(format!("symbolic `{}` has no value in the layout", s.name)),
            Some(0) => {
                // A zero count/size means the structure vanished entirely;
                // legal only if an assume allows it.
            }
            Some(_) => {}
        }
    }

    if let Err(mut v) = assumes_hold(program, &layout.symbol_values) {
        violations.append(&mut v);
    }

    if let Err(errs) = p4all_pisa::validate(&layout.usage, target) {
        for e in errs {
            violations.push(format!("resource violation: {e}"));
        }
    }

    for p in &layout.placements {
        if p.stage >= target.stages {
            violations.push(format!(
                "placement `{}` in stage {} but target has {} stages",
                p.label, p.stage, target.stages
            ));
        }
    }
    for r in &layout.registers {
        if r.stage >= target.stages {
            violations.push(format!(
                "register `{}[{}]` in stage {} but target has {} stages",
                r.reg, r.instance, r.stage, target.stages
            ));
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Compare an ILP layout against the greedy baseline on the program's own
/// utility. `Err` when greedy strictly beats the ILP — the exact-solver
/// contract is violated. `Ok(None)` when the program has no `optimize`
/// expression or a utility that does not evaluate (nothing to compare).
pub fn ilp_dominates_greedy(
    program: &Program,
    ilp: &Layout,
    greedy: &Layout,
) -> Result<Option<(f64, f64)>, String> {
    let Some(opt) = &program.optimize else { return Ok(None) };
    let (Some(u_ilp), Some(u_greedy)) = (
        evaluate_utility(opt, &ilp.symbol_values),
        evaluate_utility(opt, &greedy.symbol_values),
    ) else {
        return Ok(None);
    };
    if u_ilp + 1e-6 < u_greedy {
        return Err(format!(
            "greedy utility {u_greedy} beats ILP utility {u_ilp} (exact solver must dominate)"
        ));
    }
    Ok(Some((u_ilp, u_greedy)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use p4all_pisa::presets;

    const CMS: &str = r#"
        symbolic int rows;
        symbolic int cols;
        assume rows >= 1 && rows <= 4;
        assume cols >= 4;
        optimize rows * cols;
        header h { bit<32> key; }
        struct metadata {
            bit<32>[rows] index;
            bit<32> min;
        }
        register<bit<32>>[cols][rows] cms;
        action incr()[int i] {
            meta.index[i] = hash(hdr.key, cols);
            cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
        }
        control Main() { apply { for (i < rows) { incr()[i]; } } }
    "#;

    #[test]
    fn predicates_evaluate() {
        let p = p4all_lang::parse("symbolic int a; assume a >= 2 && a <= 8; struct metadata { bit<32>[a] x; }").unwrap();
        let mut v = BTreeMap::new();
        v.insert("a".to_string(), 4u64);
        assert_eq!(evaluate_predicate(&p.assumes[0].expr, &v), Some(true));
        v.insert("a".to_string(), 9u64);
        assert_eq!(evaluate_predicate(&p.assumes[0].expr, &v), Some(false));
    }

    #[test]
    fn compiled_layout_verifies() {
        let compiler = Compiler::new(presets::paper_example());
        let c = compiler.compile(CMS).unwrap();
        let program = p4all_lang::parse(CMS).unwrap();
        verify_layout(&program, &c.layout, &compiler.target).unwrap();
    }

    #[test]
    fn violated_assume_detected() {
        let program = p4all_lang::parse(CMS).unwrap();
        let mut values = BTreeMap::new();
        values.insert("rows".to_string(), 9u64); // violates rows <= 4
        values.insert("cols".to_string(), 8u64);
        let errs = assumes_hold(&program, &values).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("violated"), "{}", errs[0]);
    }

    #[test]
    fn ilp_vs_greedy_comparison() {
        let compiler = Compiler::new(presets::paper_example());
        let c = compiler.compile(CMS).unwrap();
        let g = compiler.compile_greedy(CMS).unwrap();
        let program = p4all_lang::parse(CMS).unwrap();
        let gap = ilp_dominates_greedy(&program, &c.layout, &g).unwrap();
        let (u_ilp, u_greedy) = gap.expect("CMS utility evaluates");
        assert!(u_ilp >= u_greedy);
    }
}
