//! Cutting planes for the MIP engine: Gomory mixed-integer cuts derived
//! from the warm simplex tableau and knapsack cover cuts separated from
//! the capacity rows that dominate joint placement models, managed by a
//! cut pool with violation-based selection and age-out.
//!
//! All cuts are globally valid for the mixed-integer hull: Gomory rows are
//! always shifted against the *root* bounds (never a node's tightened
//! bounds), so a cut separated anywhere in the tree can be applied
//! everywhere. Cuts are appended to a working copy of the model as
//! ordinary `Le` rows; the LP relaxation tightens while incumbent
//! feasibility keeps being checked against the original model.

use crate::model::{Cmp, LinExpr, Model, VarId};
use crate::simplex::{row_scale, FracRow, TabStat, TableauLp};

/// Separation rounds at the root before branching starts.
pub(crate) const MAX_CUT_ROUNDS: usize = 10;
/// Fractional tableau rows examined per Gomory separation call.
pub(crate) const GOMORY_ROWS_PER_ROUND: usize = 8;
/// Cuts activated (appended to the LP) per separation event — the
/// "per-node activation budget" that keeps the LP small.
pub(crate) const ACTIVATION_BUDGET: usize = 12;
/// Rounds a pool cut may sit unselected before it is dropped.
const MAX_AGE: u32 = 3;
/// Minimum normalized violation for a cut to be worth activating.
const MIN_VIOLATION: f64 = 1e-5;
/// Maximum ratio of largest to smallest cut coefficient; beyond this the
/// cut is numerically untrustworthy and discarded.
const MAX_DYNAMISM: f64 = 1e7;
/// Gomory fractionality guard: `f0` must sit this far inside (0, 1).
const F0_MIN: f64 = 1e-3;

/// Counters of the cut engine and pseudocost branching, merged into
/// [`crate::SolveTelemetry`] when the solve finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutCounters {
    /// Valid, violated cuts produced by the separators.
    pub separated: usize,
    /// Cuts activated into the LP relaxation.
    pub applied: usize,
    /// Pool cuts dropped after sitting unselected for too many rounds.
    pub aged_out: usize,
    /// Pseudocost observations recorded from solved child nodes.
    pub pseudocost_updates: usize,
    /// LPs solved by reliability (strong) branching at the root.
    pub strong_branch_lps: usize,
}

/// One globally valid cut in `Σ terms ≤ rhs` form, normalized so the
/// largest coefficient magnitude is 1.
#[derive(Debug, Clone)]
pub(crate) struct Cut {
    pub terms: Vec<(usize, f64)>,
    pub rhs: f64,
    /// Separator that produced it (row naming / diagnostics).
    pub origin: &'static str,
}

impl Cut {
    /// Violation at `x`: positive when the cut is violated.
    fn violation(&self, x: &[f64]) -> f64 {
        let lhs: f64 = self.terms.iter().map(|&(j, c)| c * x[j]).sum();
        lhs - self.rhs
    }

    /// Stable dedup key over rounded coefficients.
    fn key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &(j, c) in &self.terms {
            j.hash(&mut h);
            ((c * 1e8).round() as i64).hash(&mut h);
        }
        ((self.rhs * 1e8).round() as i64).hash(&mut h);
        h.finish()
    }
}

/// Pool of separated-but-not-yet-activated cuts. Selection is by
/// violation at the current LP point; unselected cuts age and are
/// eventually dropped so the pool cannot grow without bound.
#[derive(Debug, Default)]
pub(crate) struct CutPool {
    cuts: Vec<(Cut, u32)>,
    seen: std::collections::HashSet<u64>,
}

impl CutPool {
    /// Offer a cut to the pool; duplicates (by rounded coefficients) are
    /// rejected. Returns whether the cut was admitted.
    pub fn offer(&mut self, cut: Cut) -> bool {
        if self.seen.insert(cut.key()) {
            self.cuts.push((cut, 0));
            true
        } else {
            false
        }
    }

    /// Number of cuts currently pooled.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Pull up to `budget` most-violated cuts at `x` out of the pool,
    /// aging everything left behind and dropping cuts past [`MAX_AGE`]
    /// (`counters.aged_out` records how many).
    pub fn select(&mut self, x: &[f64], budget: usize, counters: &mut CutCounters) -> Vec<Cut> {
        let mut scored: Vec<(f64, usize)> = self
            .cuts
            .iter()
            .enumerate()
            .filter_map(|(i, (c, _))| {
                let v = c.violation(x);
                (v > MIN_VIOLATION).then_some((v, i))
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(budget);
        let picked: std::collections::HashSet<usize> = scored.iter().map(|&(_, i)| i).collect();
        let mut out = Vec::with_capacity(picked.len());
        let mut kept = Vec::with_capacity(self.cuts.len());
        for (i, (cut, age)) in std::mem::take(&mut self.cuts).into_iter().enumerate() {
            if picked.contains(&i) {
                out.push(cut);
            } else if age + 1 > MAX_AGE {
                counters.aged_out += 1;
            } else {
                kept.push((cut, age + 1));
            }
        }
        self.cuts = kept;
        // Preserve the violation ordering in the returned batch.
        out.sort_by(|a, b| b.violation(x).total_cmp(&a.violation(x)));
        out
    }
}

/// Append `cut` to `model` as an ordinary `Le` row.
pub(crate) fn apply_cut(model: &mut Model, cut: &Cut, seq: usize) {
    let mut expr = LinExpr::zero();
    for &(j, c) in &cut.terms {
        expr.add_term(VarId(j), c);
    }
    model.le(format!("cut:{}:{}", cut.origin, seq), expr, cut.rhs);
}

/// Normalize to unit inf-norm, drop negligible coefficients (weakening the
/// rhs to stay valid), and apply the numerical-quality filters. Returns
/// `None` when the cut should be discarded. `bounds` are the root
/// structural bounds used for the weakening step.
fn finalize(
    mut terms: Vec<(usize, f64)>,
    mut rhs: f64,
    bounds: &[(f64, f64)],
    x: &[f64],
    origin: &'static str,
) -> Option<Cut> {
    let max_c = terms.iter().fold(0.0f64, |a, &(_, c)| a.max(c.abs()));
    if max_c <= 1e-12 {
        return None;
    }
    let inv = 1.0 / max_c;
    for t in &mut terms {
        t.1 *= inv;
    }
    rhs *= inv;
    // Drop tiny coefficients, weakening the rhs so the cut stays valid:
    // `c_j x_j >= min(c_j l_j, c_j u_j)` bounds the dropped term.
    let mut kept = Vec::with_capacity(terms.len());
    for (j, c) in terms {
        if c.abs() >= 1e-9 {
            kept.push((j, c));
            continue;
        }
        let (l, u) = bounds[j];
        let lo = (c * l).min(c * u);
        if !lo.is_finite() {
            return None;
        }
        rhs -= lo;
    }
    if kept.is_empty() {
        return None;
    }
    let min_c = kept.iter().fold(f64::INFINITY, |a, &(_, c)| a.min(c.abs()));
    if 1.0 / min_c > MAX_DYNAMISM {
        return None;
    }
    let cut = Cut { terms: kept, rhs, origin };
    (cut.violation(x) > MIN_VIOLATION).then_some(cut)
}

/// Derive Gomory mixed-integer cuts from the fractional tableau rows of
/// an optimal LP over `lp_model`, shifted against `root_bounds` so every
/// cut is globally valid. `int_mask` marks integral structural variables.
pub(crate) fn separate_gomory(
    lp_model: &Model,
    tab: &TableauLp,
    root_bounds: &[(f64, f64)],
    int_mask: &[bool],
) -> Vec<Cut> {
    let n = lp_model.num_vars();
    let cons = lp_model.constraints();
    let x = &tab.values[..n.min(tab.values.len())];
    tab.frac_rows
        .iter()
        .filter_map(|row| gomory_from_row(lp_model, row, tab, root_bounds, int_mask, cons, x))
        .collect()
}

/// Resting-side shift bound of nonbasic variable `j`: root bounds for
/// structural columns, the slack's own (model-determined) bounds for
/// slack columns. Returns `(shift_bound, at_lower)`; `None` when the
/// variable rests on an infinite bound (no valid shift — abandon).
fn shift_of(
    j: usize,
    n: usize,
    stat: TabStat,
    root_bounds: &[(f64, f64)],
    cons: &[crate::model::Constraint],
) -> Option<(f64, bool)> {
    let (lb, ub) = if j < n {
        root_bounds[j]
    } else {
        match cons[j - n].cmp {
            Cmp::Le => (0.0, f64::INFINITY),
            Cmp::Ge => (f64::NEG_INFINITY, 0.0),
            Cmp::Eq => (0.0, 0.0),
        }
    };
    match stat {
        TabStat::AtLower => lb.is_finite().then_some((lb, true)),
        TabStat::AtUpper => ub.is_finite().then_some((ub, false)),
        // Free nonbasics cannot be shifted; basic columns never appear.
        TabStat::Free | TabStat::Basic => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn gomory_from_row(
    lp_model: &Model,
    row: &FracRow,
    tab: &TableauLp,
    root_bounds: &[(f64, f64)],
    int_mask: &[bool],
    cons: &[crate::model::Constraint],
    x: &[f64],
) -> Option<Cut> {
    let n = lp_model.num_vars();
    // Shift every nonbasic column to its resting bound: x_B = β̂ − Σ ĝ_j t_j
    // with t_j ≥ 0 globally (root-bound shifts). ĝ_j = ±a_j by side;
    // β̂ = β + Σ ĝ_j t*_j where t*_j is the current resting distance.
    let mut shifted: Vec<(usize, f64, f64, bool)> = Vec::with_capacity(row.coeffs.len());
    let mut beta_hat = row.beta;
    for &(j, a) in &row.coeffs {
        let stat = tab.stat[j];
        // Fixed slacks (Eq rows, including none today) are identically at
        // their bound; their t is 0 in every solution, so the term drops.
        if j >= n && cons[j - n].cmp == Cmp::Eq {
            continue;
        }
        let (shift, at_lower) = shift_of(j, n, stat, root_bounds, cons)?;
        let g = if at_lower { a } else { -a };
        let t_star = if at_lower { tab.values[j] - shift } else { shift - tab.values[j] };
        let t_star = t_star.max(0.0);
        beta_hat += g * t_star;
        shifted.push((j, g, shift, at_lower));
    }
    let f0 = beta_hat - beta_hat.floor();
    if !(F0_MIN..=1.0 - F0_MIN).contains(&f0) {
        return None;
    }
    // GMI coefficients in t-space: Σ γ_j t_j ≥ f0.
    // Integer columns use the fractional-part rule, continuous columns the
    // sign rule; slack columns are always treated as continuous.
    let mut terms = vec![0.0f64; n];
    let mut rhs = f0;
    for (j, g, shift, at_lower) in shifted {
        let integral = j < n
            && int_mask[j]
            && (shift - shift.round()).abs() < 1e-9;
        let gamma = if integral {
            let fj = g - g.floor();
            if fj <= f0 + 1e-12 {
                fj
            } else {
                f0 * (1.0 - fj) / (1.0 - f0)
            }
        } else if g >= 0.0 {
            g
        } else {
            -f0 * g / (1.0 - f0)
        };
        if gamma.abs() <= 1e-13 {
            continue;
        }
        // Substitute t_j back into structural variables.
        if j < n {
            if at_lower {
                // t = x_j − shift
                terms[j] += gamma;
                rhs += gamma * shift;
            } else {
                // t = shift − x_j
                terms[j] -= gamma;
                rhs -= gamma * shift;
            }
        } else {
            // Slack definition in the equilibrated space the tableau was
            // computed in: s_i = rhs_i/σ − Σ (c/σ)·x.
            let con = &cons[j - n];
            let sigma = row_scale(con);
            let b_t = con.rhs / sigma;
            if at_lower {
                // t = s − shift = (b̃ − shift) − Σ ã x: the constant
                // γ(b̃ − shift) moves to the rhs with its sign flipped.
                for &(v, c) in &con.terms {
                    terms[v.index()] -= gamma * (c / sigma);
                }
                rhs -= gamma * (b_t - shift);
            } else {
                // t = shift − s = (shift − b̃) + Σ ã x: likewise the
                // constant γ(shift − b̃) moves across.
                for &(v, c) in &con.terms {
                    terms[v.index()] += gamma * (c / sigma);
                }
                rhs -= gamma * (shift - b_t);
            }
        }
    }
    // Σ terms ≥ rhs  →  Le form.
    let le_terms: Vec<(usize, f64)> = terms
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c.abs() > 1e-13)
        .map(|(j, &c)| (j, -c))
        .collect();
    finalize(le_terms, -rhs, root_bounds, x, "gomory")
}

/// Separate knapsack cover cuts from `Le` capacity rows: for a row
/// `Σ a_j x_j ≤ b` and a set `C` of binary columns with positive
/// coefficients whose weights exceed the capacity left over by the other
/// terms' minimum contribution, `Σ_{j∈C} x_j ≤ |C|−1` is valid. The
/// greedy separation picks the cover most violated by `x`. Only the
/// first `orig_rows` rows are scanned (cut rows never yield covers).
pub(crate) fn separate_covers(
    model: &Model,
    orig_rows: usize,
    x: &[f64],
    root_bounds: &[(f64, f64)],
    int_mask: &[bool],
) -> Vec<Cut> {
    let mut out = Vec::new();
    for con in model.constraints().iter().take(orig_rows) {
        if con.cmp != Cmp::Le || con.terms.len() < 2 {
            continue;
        }
        let mut bins: Vec<(usize, f64)> = Vec::new();
        let mut residual = con.rhs;
        let mut ok = true;
        for &(v, c) in &con.terms {
            let j = v.index();
            let (l, u) = root_bounds[j];
            if int_mask[j] && c > 0.0 && l == 0.0 && u == 1.0 {
                bins.push((j, c));
            } else {
                // Everything else contributes at least its minimum.
                let lo = (c * l).min(c * u);
                if !lo.is_finite() {
                    ok = false;
                    break;
                }
                residual -= lo;
            }
        }
        if !ok || bins.len() < 2 {
            continue;
        }
        // Greedy minimal cover: take items by ascending (1−x*)/a until the
        // capacity is exceeded.
        let total: f64 = bins.iter().map(|&(_, a)| a).sum();
        if total <= residual + 1e-9 {
            continue;
        }
        bins.sort_by(|p, q| {
            let kp = (1.0 - x[p.0]).max(0.0) / p.1;
            let kq = (1.0 - x[q.0]).max(0.0) / q.1;
            kp.total_cmp(&kq).then(p.0.cmp(&q.0))
        });
        let mut cover: Vec<usize> = Vec::new();
        let mut weight = 0.0;
        for &(j, a) in &bins {
            cover.push(j);
            weight += a;
            if weight > residual + 1e-9 {
                break;
            }
        }
        if weight <= residual + 1e-9 || cover.len() < 2 {
            continue;
        }
        let rhs = (cover.len() - 1) as f64;
        let terms: Vec<(usize, f64)> = cover.into_iter().map(|j| (j, 1.0)).collect();
        if let Some(cut) = finalize(terms, rhs, root_bounds, x, "cover") {
            out.push(cut);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::simplex::LpWorkspace;

    fn int_mask(m: &Model) -> Vec<bool> {
        m.vars().iter().map(|v| v.is_integral()).collect()
    }

    fn bounds_of(m: &Model) -> Vec<(f64, f64)> {
        m.vars().iter().map(|v| (v.lb, v.ub)).collect()
    }

    /// 2x ≤ 1 over an integer x has the fractional root vertex x = 0.5;
    /// the Gomory cut must recover x ≤ 0.
    #[test]
    fn gomory_closes_simple_fraction() {
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 10.0);
        m.le("cap", LinExpr::term(x, 2.0), 1.0);
        m.set_objective(LinExpr::term(x, 1.0), Sense::Maximize);
        let bounds = bounds_of(&m);
        let mask = int_mask(&m);
        let tab = LpWorkspace::new(&m).solve_tableau(&bounds, None, &mask, 1e-6, 8).unwrap();
        let cuts = separate_gomory(&m, &tab, &bounds, &mask);
        assert!(!cuts.is_empty(), "expected a Gomory cut at x=0.5");
        // The cut must be satisfied by every integer point (x = 0) and
        // violated by the LP vertex x* = 0.5.
        for cut in &cuts {
            assert!(cut.violation(&[0.0]) <= 1e-9, "cut off the integer optimum");
            assert!(cut.violation(&[0.5]) > 0.0, "cut does not separate the vertex");
        }
    }

    /// Cover cuts on a small knapsack: 3x+3y+3z ≤ 5 with binaries means
    /// any two items overflow, so x+y ≤ 1 (etc.) — the fractional point
    /// (5/6 each... LP vertex) must be separated.
    #[test]
    fn cover_separates_knapsack_vertex() {
        let mut m = Model::new();
        let mut obj = LinExpr::zero();
        let mut cap = LinExpr::zero();
        for name in ["x", "y", "z"] {
            let v = m.binary(name);
            obj += LinExpr::term(v, 1.0);
            cap += LinExpr::term(v, 3.0);
        }
        m.le("cap", cap, 5.0);
        m.set_objective(obj, Sense::Maximize);
        let bounds = bounds_of(&m);
        let mask = int_mask(&m);
        // LP optimum puts 5/9 on each... solve to get the exact vertex.
        let tab = LpWorkspace::new(&m).solve_tableau(&bounds, None, &mask, 1e-6, 8).unwrap();
        let x: Vec<f64> = match &tab.result {
            crate::LpResult::Optimal { x, .. } => x.clone(),
            other => panic!("unexpected LP result {other:?}"),
        };
        let cuts = separate_covers(&m, m.num_constraints(), &x, &bounds, &mask);
        assert!(!cuts.is_empty(), "expected a violated cover cut");
        for cut in &cuts {
            // Valid at every feasible integer point (only singletons fit).
            for p in [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] {
                assert!(cut.violation(&p) <= 1e-9);
            }
            assert!(cut.violation(&x) > 0.0);
        }
    }

    /// The pool dedups, selects by violation, and ages out stale cuts.
    #[test]
    fn pool_lifecycle() {
        let mut pool = CutPool::default();
        let mut counters = CutCounters::default();
        let weak = Cut { terms: vec![(0, 1.0)], rhs: 5.0, origin: "t" };
        let strong = Cut { terms: vec![(0, 1.0), (1, 1.0)], rhs: 0.5, origin: "t" };
        assert!(pool.offer(weak.clone()));
        assert!(!pool.offer(weak), "duplicate admitted");
        assert!(pool.offer(strong));
        // x violates only the strong cut.
        let picked = pool.select(&[1.0, 1.0], 4, &mut counters);
        assert_eq!(picked.len(), 1);
        assert_eq!(pool.len(), 1);
        // The weak cut ages out after MAX_AGE idle selections.
        for _ in 0..MAX_AGE {
            assert!(pool.select(&[0.0, 0.0], 4, &mut counters).is_empty());
        }
        assert_eq!(pool.len(), 0);
        assert_eq!(counters.aged_out, 1);
    }
}
