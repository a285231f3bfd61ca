//! Model-building API for mixed-integer linear programs.
//!
//! A [`Model`] owns a set of variables (continuous, general integer, or
//! binary), a set of linear constraints, and a linear objective. The P4All
//! compiler builds one `Model` per compilation and hands it to
//! [`crate::solve`]; the model type is also usable standalone.
//!
//! All variables must have a finite lower bound; upper bounds may be
//! `f64::INFINITY`. Constraints compare a [`LinExpr`] against a constant
//! with `<=`, `>=`, or `==`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::simplex::{solve_lp, LpResult};

/// Handle to a variable inside a [`Model`].
///
/// `VarId`s are only meaningful for the model that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of this variable in the model's variable list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable (bounds may be any finite/infinite range).
    Integer,
    /// Integer variable with implicit bounds `[0, 1]`.
    Binary,
}

/// A variable: name (for diagnostics), kind, and bounds.
#[derive(Debug, Clone)]
pub struct Variable {
    pub name: String,
    pub kind: VarKind,
    pub lb: f64,
    pub ub: f64,
    /// Branch-and-bound picks fractional variables with higher priority
    /// first (ties broken by fractionality). Default 0.
    pub branch_priority: i32,
}

impl Variable {
    /// True if this variable must take an integer value.
    pub fn is_integral(&self) -> bool {
        matches!(self.kind, VarKind::Integer | VarKind::Binary)
    }
}

/// A linear expression: `sum(coef * var) + constant`.
///
/// Supports `+`, `-`, scaling by `f64`, and building from `VarId`.
/// Duplicate variable terms are allowed during construction; they are
/// merged, and zero coefficients dropped, when the expression enters a
/// model as a constraint or the objective.
#[derive(Debug, Clone, Default)]
pub struct LinExpr {
    pub terms: Vec<(VarId, f64)>,
    pub constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: f64) -> Self {
        LinExpr { terms: Vec::new(), constant: c }
    }

    /// A single-variable term `coef * var`.
    pub fn term(var: VarId, coef: f64) -> Self {
        LinExpr { terms: vec![(var, coef)], constant: 0.0 }
    }

    /// Add `coef * var` in place.
    pub fn add_term(&mut self, var: VarId, coef: f64) {
        self.terms.push((var, coef));
    }

    /// Merge duplicate variables and drop (near-)zero coefficients, in
    /// place: a stable sort by variable, then each variable's
    /// coefficients summed in the order they were added.
    fn normalize(&mut self) {
        self.terms.sort_by_key(|(v, _)| *v);
        let mut len = 0;
        for i in 0..self.terms.len() {
            let (v, c) = self.terms[i];
            match self.terms[..len].last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => {
                    self.terms[len] = (v, c);
                    len += 1;
                }
            }
        }
        self.terms.truncate(len);
        self.terms.retain(|&(_, c)| c.abs() > 1e-12);
    }

    /// Evaluate against an assignment vector indexed by variable id.
    fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.0])
                .sum::<f64>()
    }

    /// Sum an iterator of expressions.
    pub fn sum<I: IntoIterator<Item = LinExpr>>(items: I) -> Self {
        let mut acc = LinExpr::zero();
        for e in items {
            acc += e;
        }
        acc
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.terms.push((v, -c));
        }
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for t in &mut self.terms {
            t.1 = -t.1;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> LinExpr {
        for t in &mut self.terms {
            t.1 *= k;
        }
        self.constant *= k;
        self
    }
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Le,
    Ge,
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmp::Le => write!(f, "<="),
            Cmp::Ge => write!(f, ">="),
            Cmp::Eq => write!(f, "=="),
        }
    }
}

/// A linear constraint `expr cmp rhs` (the expression's constant has been
/// folded into `rhs` on entry to the model).
#[derive(Debug, Clone)]
pub struct Constraint {
    pub name: String,
    pub terms: Vec<(VarId, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

impl Constraint {
    /// Check satisfaction under an assignment, within `tol`.
    fn satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs: f64 = self.terms.iter().map(|&(v, c)| c * values[v.0]).sum();
        match self.cmp {
            Cmp::Le => lhs <= self.rhs + tol,
            Cmp::Ge => lhs >= self.rhs - tol,
            Cmp::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sense {
    #[default]
    Maximize,
    Minimize,
}

/// A mixed-integer linear program under construction.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    pub(crate) cons: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

/// Size statistics of a model (reported in the Fig. 11 reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    pub num_vars: usize,
    pub num_binary: usize,
    pub num_integer: usize,
    pub num_continuous: usize,
    pub num_constraints: usize,
    pub num_nonzeros: usize,
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vars ({} bin, {} int, {} cont), {} constraints, {} nonzeros",
            self.num_vars,
            self.num_binary,
            self.num_integer,
            self.num_continuous,
            self.num_constraints,
            self.num_nonzeros
        )
    }
}

impl Model {
    pub fn new() -> Self {
        Model::default()
    }

    /// Add a binary (0/1) variable.
    pub fn binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name.into(), VarKind::Binary, 0.0, 1.0)
    }

    /// Add a general integer variable with bounds `[lb, ub]`.
    pub fn integer(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add_var(name.into(), VarKind::Integer, lb, ub)
    }

    /// Add a continuous variable with bounds `[lb, ub]`.
    pub fn continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add_var(name.into(), VarKind::Continuous, lb, ub)
    }

    fn add_var(&mut self, name: String, kind: VarKind, lb: f64, ub: f64) -> VarId {
        assert!(lb.is_finite(), "variable {name}: lower bound must be finite");
        assert!(!ub.is_nan() && ub >= lb, "variable {name}: bad bounds [{lb}, {ub}]");
        let id = VarId(self.vars.len());
        self.vars.push(Variable { name, kind, lb, ub, branch_priority: 0 });
        id
    }

    /// Variable metadata.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// All variables, in id order.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// All constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.cons
    }

    /// Add the constraint `expr cmp rhs`. The expression's constant term is
    /// folded into the right-hand side. Returns the row index of the new
    /// constraint — stable for the life of the model — so callers can
    /// attach provenance to rows (see `p4all-core`'s ILP generator) and
    /// map IIS members back to their origin.
    fn constrain(
        &mut self,
        name: impl Into<String>,
        mut expr: LinExpr,
        cmp: Cmp,
        rhs: f64,
    ) -> usize {
        expr.normalize();
        let adjusted_rhs = rhs - expr.constant;
        self.cons.push(Constraint {
            name: name.into(),
            terms: expr.terms,
            cmp,
            rhs: adjusted_rhs,
        });
        self.cons.len() - 1
    }

    /// Add the constraint `lhs <= rhs`. Returns its row index, stable for
    /// the life of the model.
    pub fn le(&mut self, name: impl Into<String>, lhs: LinExpr, rhs: f64) -> usize {
        self.constrain(name, lhs, Cmp::Le, rhs)
    }

    /// Add the constraint `lhs >= rhs`. Returns its row index.
    pub fn ge(&mut self, name: impl Into<String>, lhs: LinExpr, rhs: f64) -> usize {
        self.constrain(name, lhs, Cmp::Ge, rhs)
    }

    /// Add the constraint `lhs == rhs`. Returns its row index.
    pub fn eq(&mut self, name: impl Into<String>, lhs: LinExpr, rhs: f64) -> usize {
        self.constrain(name, lhs, Cmp::Eq, rhs)
    }

    /// Clone the model keeping only the constraint rows in `keep`
    /// (variables, bounds, and objective are preserved). Used by the IIS
    /// deletion filter to probe constraint subsets.
    pub fn restricted_to(&self, keep: &[usize]) -> Model {
        let mut m = self.clone();
        m.cons = keep.iter().filter_map(|&i| self.cons.get(i).cloned()).collect();
        m
    }

    /// Set a variable's branch priority (higher = branched earlier).
    pub fn set_branch_priority(&mut self, var: VarId, priority: i32) {
        self.vars[var.0].branch_priority = priority;
    }

    /// Set the objective expression and direction.
    pub fn set_objective(&mut self, mut expr: LinExpr, sense: Sense) {
        expr.normalize();
        self.objective = expr;
        self.sense = sense;
    }

    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    pub fn sense(&self) -> Sense {
        self.sense
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// Size statistics.
    pub fn stats(&self) -> ModelStats {
        let mut num_binary = 0;
        let mut num_integer = 0;
        let mut num_continuous = 0;
        for v in &self.vars {
            match v.kind {
                VarKind::Binary => num_binary += 1,
                VarKind::Integer => num_integer += 1,
                VarKind::Continuous => num_continuous += 1,
            }
        }
        ModelStats {
            num_vars: self.vars.len(),
            num_binary,
            num_integer,
            num_continuous,
            num_constraints: self.cons.len(),
            num_nonzeros: self.cons.iter().map(|c| c.terms.len()).sum(),
        }
    }

    /// Check that an assignment satisfies every bound, integrality
    /// requirement, and constraint within `tol`. Returns the first
    /// violation as an error string.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Result<(), String> {
        if values.len() != self.vars.len() {
            return Err(format!(
                "assignment has {} values for {} variables",
                values.len(),
                self.vars.len()
            ));
        }
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < v.lb - tol || x > v.ub + tol {
                return Err(format!("{}: value {} outside [{}, {}]", v.name, x, v.lb, v.ub));
            }
            if v.is_integral() && (x - x.round()).abs() > tol {
                return Err(format!("{}: value {} not integral", v.name, x));
            }
        }
        for c in &self.cons {
            if !c.satisfied(values, tol) {
                let lhs: f64 = c.terms.iter().map(|&(v, k)| k * values[v.0]).sum();
                return Err(format!("{}: {} {} {} violated", c.name, lhs, c.cmp, c.rhs));
            }
        }
        Ok(())
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.eval(values)
    }
}

/// A feasible assignment with its objective value.
#[derive(Debug, Clone)]
pub struct Solution {
    pub values: Vec<f64>,
    pub objective: f64,
}

impl Solution {
    /// Value of a variable, rounded for integral variables by the solver.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// Value of a variable rounded to the nearest integer (convenience for
    /// binary/integer variables).
    pub fn int_value(&self, var: VarId) -> i64 {
        self.values[var.0].round() as i64
    }
}

/// Exhaustively solve a model whose integral variables all have finite,
/// small ranges: every assignment of the integral columns is enumerated,
/// and when continuous columns remain, the LP over them — the enumerated
/// columns fixed through their bounds — is solved cold by [`solve_lp`].
/// No branching, cuts or warm starts are involved, which is what makes it
/// the reference oracle in tests. Returns `None` if infeasible.
///
/// Panics if the search space exceeds `max_points`, or if the continuous
/// part is unbounded at some integral assignment.
pub fn brute_force(model: &Model, max_points: u64) -> Option<Solution> {
    // Enumerated columns and their ranges; the rest are continuous.
    let mut int_cols: Vec<usize> = Vec::new();
    let mut ranges: Vec<(i64, i64)> = Vec::new();
    let mut space: u64 = 1;
    for (j, v) in model.vars.iter().enumerate() {
        if !v.is_integral() {
            continue;
        }
        assert!(v.ub.is_finite(), "brute_force: unbounded variable {}", v.name);
        let lo = v.lb.ceil() as i64;
        let hi = v.ub.floor() as i64;
        if lo > hi {
            return None;
        }
        let width = (hi - lo + 1) as u64;
        space = space.saturating_mul(width);
        assert!(space <= max_points, "brute_force: search space too large");
        int_cols.push(j);
        ranges.push((lo, hi));
    }
    let mixed = int_cols.len() < model.vars.len();
    let mut bounds: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lb, v.ub)).collect();

    let n = ranges.len();
    let mut current: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
    let mut best: Option<(f64, Vec<f64>)> = None;
    loop {
        for (&j, &x) in int_cols.iter().zip(&current) {
            bounds[j] = (x as f64, x as f64);
        }
        let point = if mixed {
            match solve_lp(model, &bounds).expect("brute_force: LP failed") {
                LpResult::Optimal { mut x, .. } => {
                    for &j in &int_cols {
                        x[j] = bounds[j].0;
                    }
                    Some(x)
                }
                LpResult::Infeasible => None,
                LpResult::Unbounded => panic!("brute_force: continuous part is unbounded"),
            }
        } else {
            Some(bounds.iter().map(|b| b.0).collect())
        };
        if let Some(values) = point.filter(|v| model.check_feasible(v, 1e-6).is_ok()) {
            let obj = model.objective_value(&values);
            let better = match (&best, model.sense) {
                (None, _) => true,
                (Some((b, _)), Sense::Maximize) => obj > *b + 1e-12,
                (Some((b, _)), Sense::Minimize) => obj < *b - 1e-12,
            };
            if better {
                best = Some((obj, values));
            }
        }
        // advance odometer
        let mut i = 0;
        loop {
            if i == n {
                return best.map(|(objective, values)| Solution { values, objective });
            }
            current[i] += 1;
            if current[i] <= ranges[i].1 {
                break;
            }
            current[i] = ranges[i].0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_normalize_merges_duplicates() {
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.binary("y");
        let mut e = LinExpr::term(x, 1.0) + LinExpr::term(y, 2.0) + LinExpr::term(x, 3.0);
        e.normalize();
        assert_eq!(e.terms.len(), 2);
        assert_eq!(e.terms[0], (x, 4.0));
        assert_eq!(e.terms[1], (y, 2.0));
    }

    #[test]
    fn linexpr_normalize_drops_zeros() {
        let mut m = Model::new();
        let x = m.binary("x");
        let mut e = LinExpr::term(x, 1.0) - LinExpr::term(x, 1.0);
        e.normalize();
        assert!(e.terms.is_empty());
    }

    #[test]
    fn linexpr_eval() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 10.0);
        let y = m.continuous("y", 0.0, 10.0);
        let e = LinExpr::term(x, 2.0) + LinExpr::term(y, -1.0) + LinExpr::constant(5.0);
        assert_eq!(e.eval(&[3.0, 4.0]), 2.0 * 3.0 - 4.0 + 5.0);
    }

    #[test]
    fn linexpr_ops() {
        let mut m = Model::new();
        let x = m.binary("x");
        let e = (LinExpr::from(x) * 3.0 - LinExpr::constant(1.0)).neg();
        assert_eq!(e.constant, 1.0);
        assert_eq!(e.terms[0].1, -3.0);
    }

    #[test]
    fn constraint_constant_folding() {
        let mut m = Model::new();
        let x = m.binary("x");
        // x + 5 <= 6  ==>  x <= 1
        m.le("c", LinExpr::from(x) + LinExpr::constant(5.0), 6.0);
        assert_eq!(m.cons[0].rhs, 1.0);
    }

    #[test]
    fn check_feasible_detects_violations() {
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.binary("y");
        m.le("sum", LinExpr::from(x) + LinExpr::from(y), 1.0);
        assert!(m.check_feasible(&[1.0, 0.0], 1e-6).is_ok());
        assert!(m.check_feasible(&[1.0, 1.0], 1e-6).is_err());
        assert!(m.check_feasible(&[0.5, 0.0], 1e-6).is_err()); // not integral
        assert!(m.check_feasible(&[2.0, 0.0], 1e-6).is_err()); // out of bounds
    }

    #[test]
    fn brute_force_knapsack() {
        // max 3a + 4b + 5c  s.t. 2a + 3b + 4c <= 6
        let mut m = Model::new();
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.le(
            "cap",
            LinExpr::term(a, 2.0) + LinExpr::term(b, 3.0) + LinExpr::term(c, 4.0),
            6.0,
        );
        m.set_objective(
            LinExpr::term(a, 3.0) + LinExpr::term(b, 4.0) + LinExpr::term(c, 5.0),
            Sense::Maximize,
        );
        let sol = brute_force(&m, 1_000).expect("feasible");
        assert_eq!(sol.objective, 8.0); // a + c (weight 6, value 8)
        assert_eq!(sol.int_value(a), 1);
        assert_eq!(sol.int_value(b), 0);
        assert_eq!(sol.int_value(c), 1);
    }

    #[test]
    fn brute_force_solves_the_continuous_part_by_lp() {
        // max 2x + y - z, x binary, z in 0..=2 integer, y continuous <= 1.5,
        // x + y <= 2, y - z == 0.25  ->  x = 1, z = 0, y = 0.25 -> 2.25.
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.continuous("y", 0.0, 1.5);
        let z = m.integer("z", 0.0, 2.0);
        m.le("cap", LinExpr::from(x) + LinExpr::from(y), 2.0);
        m.eq("link", LinExpr::from(y) - LinExpr::from(z), 0.25);
        m.set_objective(
            LinExpr::term(x, 2.0) + LinExpr::from(y) - LinExpr::from(z),
            Sense::Maximize,
        );
        let sol = brute_force(&m, 100).expect("feasible");
        assert!((sol.objective - 2.25).abs() < 1e-9, "objective {}", sol.objective);
        assert_eq!((sol.int_value(x), sol.int_value(z)), (1, 0));
        assert!((sol.value(y) - 0.25).abs() < 1e-9);
        // No integral z puts y = z + 0.25 under a cap of 0.2.
        m.le("tight", LinExpr::from(y), 0.2);
        assert!(brute_force(&m, 100).is_none());
    }

    #[test]
    fn brute_force_detects_infeasible() {
        let mut m = Model::new();
        let a = m.binary("a");
        m.ge("impossible", LinExpr::from(a), 2.0);
        assert!(brute_force(&m, 100).is_none());
    }

    #[test]
    fn stats_counts() {
        let mut m = Model::new();
        let a = m.binary("a");
        let b = m.integer("b", 0.0, 9.0);
        m.continuous("c", 0.0, 1.0);
        m.le("c1", LinExpr::from(a) + LinExpr::from(b), 5.0);
        let s = m.stats();
        assert_eq!(s.num_vars, 3);
        assert_eq!(s.num_binary, 1);
        assert_eq!(s.num_integer, 1);
        assert_eq!(s.num_continuous, 1);
        assert_eq!(s.num_constraints, 1);
        assert_eq!(s.num_nonzeros, 2);
    }
}
