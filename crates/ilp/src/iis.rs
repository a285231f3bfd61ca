//! Irreducible infeasible subsystem (IIS) extraction.
//!
//! When a model is infeasible, "`Infeasible`" alone is useless to the
//! person who wrote the constraints. [`find_iis`] runs a *deletion filter*:
//! starting from the full constraint set, it repeatedly probes whether the
//! model stays infeasible after deleting a block of rows — if so the block
//! is irrelevant to the conflict and is dropped for good. What survives is
//! a small conflicting subset (irreducible when the filter runs to
//! completion) that a caller can map back to row provenance and explain.
//!
//! The filter is **bounded**: every probe is one (zero-objective) solve
//! with its own node/time limits, and [`IisOptions::max_probes`] caps the
//! total number of solves, so explanation cost stays proportional to the
//! original solve rather than quadratic in the row count. Blocks are
//! halved geometrically (whole-block deletions first, single rows last),
//! which reaches an irreducible core in `O(|IIS| · log n)` probes for the
//! small cores typical of resource conflicts.
//!
//! Soundness invariant: the working set is infeasible at every step —
//! a block is only deleted when a solver *proves* the remainder
//! infeasible; feasible or inconclusive probes keep the block. The result
//! is therefore always a genuinely conflicting subset, even when the probe
//! budget runs out before minimality is reached.

use std::time::Duration;

use crate::branch::{solve_with, SolveOptions, SolveStatus};
use crate::model::{LinExpr, Model, Sense};

/// Wall-clock limit per feasibility probe.
const PROBE_TIME_LIMIT: Duration = Duration::from_secs(5);

/// Budget knobs for [`find_iis`].
#[derive(Debug, Clone)]
pub struct IisOptions {
    /// Hard cap on feasibility probes (each probe is one bounded solve).
    pub max_probes: usize,
    /// Node limit per probe (probes are feasibility checks, not proofs of
    /// optimality, so a few hundred nodes suffice).
    pub probe_node_limit: usize,
    /// Warm-start probe LPs from parent bases (see
    /// [`crate::SolveOptions::warm_lp`]), and seed each probe's incumbent
    /// with the last feasible probe's point (probes are zero-objective, so
    /// any accepted point settles a probe immediately). Off is the
    /// all-cold filter; either way the deleted rows and the final core are
    /// decided by the same feasible/infeasible verdicts.
    pub warm_lp: bool,
}

impl Default for IisOptions {
    fn default() -> Self {
        IisOptions {
            max_probes: 192,
            probe_node_limit: 400,
            warm_lp: true,
        }
    }
}

/// Result of [`find_iis`].
#[derive(Debug, Clone)]
pub struct IisReport {
    /// Row indices (into `model.constraints()`) of the conflicting subset.
    pub rows: Vec<usize>,
    /// Feasibility probes actually spent.
    pub probes: usize,
    /// True when the subset is irreducible (every single-row deletion was
    /// probed and found to restore feasibility); false when the probe
    /// budget ran out first — the rows are still jointly infeasible, just
    /// possibly not minimal.
    pub minimal: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    Infeasible,
    Feasible,
    Inconclusive,
}

/// Find a small conflicting constraint subset of an infeasible `model`.
///
/// The caller must already know the model is infeasible (this function
/// spends no probes re-proving it); on a feasible model the filter simply
/// fails to delete anything useful and returns a non-minimal full set.
pub fn find_iis(model: &Model, opts: &IisOptions) -> IisReport {
    let n = model.num_constraints();
    let mut keep: Vec<usize> = (0..n).collect();
    let mut probes = 0usize;
    // Restricted models share the full variable set, so a feasible point
    // from one probe is a length-compatible warm start for every later
    // probe (the solver re-validates feasibility per probe and simply
    // drops points the new row subset rejects).
    let mut last_feasible: Option<Vec<f64>> = None;

    let mut probe = |rows: &[usize], probes: &mut usize| -> Probe {
        *probes += 1;
        let mut m = model.restricted_to(rows);
        // Zero objective: any integral feasible point settles the probe.
        m.set_objective(LinExpr::zero(), Sense::Maximize);
        let solver_opts = SolveOptions {
            time_limit: Some(PROBE_TIME_LIMIT),
            node_limit: opts.probe_node_limit,
            dive_limit: 50,
            warm_lp: opts.warm_lp,
            warm_start: if opts.warm_lp { last_feasible.clone() } else { None },
            ..SolveOptions::default()
        };
        match solve_with(&m, &solver_opts) {
            Ok(out) => match out.status {
                SolveStatus::Infeasible => Probe::Infeasible,
                SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::Unbounded => {
                    if let Some(sol) = out.solution {
                        last_feasible = Some(sol.values);
                    }
                    Probe::Feasible
                }
                SolveStatus::Unknown => Probe::Inconclusive,
            },
            Err(_) => Probe::Inconclusive,
        }
    };

    // Geometric block deletion: big blocks first, then halve. The final
    // rounds run at block = 1, which is the classical deletion filter.
    let mut block = (keep.len() / 2).max(1);
    let mut minimal = false;
    'outer: loop {
        let mut deleted_any = false;
        let mut i = 0;
        while i < keep.len() {
            if probes >= opts.max_probes {
                break 'outer;
            }
            let hi = (i + block).min(keep.len());
            let candidate: Vec<usize> = keep[..i]
                .iter()
                .chain(&keep[hi..])
                .copied()
                .collect();
            if probe(&candidate, &mut probes) == Probe::Infeasible {
                keep = candidate;
                deleted_any = true;
                // Stay at index i: the next block slid into place.
            } else {
                i = hi;
            }
        }
        if block == 1 && !deleted_any {
            // A clean single-row pass: every remaining row is necessary.
            minimal = true;
            break;
        }
        if block > 1 {
            block = (block / 2).max(1);
        }
        // At block == 1 with deletions, loop again until a clean pass.
    }

    IisReport { rows: keep, probes, minimal }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    /// x >= 3 and x <= 1 conflict; an unrelated constraint y <= 1 must be
    /// filtered out.
    #[test]
    fn finds_two_row_core() {
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        let lo = m.ge("x_lo", LinExpr::from(x), 3.0);
        let hi = m.le("x_hi", LinExpr::from(x), 1.0);
        let _irrelevant = m.le("y_cap", LinExpr::from(y), 1.0);
        let r = find_iis(&m, &IisOptions::default());
        assert!(r.minimal, "filter should reach an irreducible core");
        assert_eq!(r.rows, vec![lo, hi]);
    }

    /// A three-way conflict: x + y >= 5, x <= 1, y <= 1 (all needed).
    #[test]
    fn keeps_all_rows_of_a_three_way_conflict() {
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        m.ge("sum_lo", LinExpr::from(x) + LinExpr::from(y), 5.0);
        m.le("x_cap", LinExpr::from(x), 1.0);
        m.le("y_cap", LinExpr::from(y), 1.0);
        for k in 0..6 {
            let z = m.integer(format!("pad{k}"), 0.0, 4.0);
            m.le(format!("pad_cap{k}"), LinExpr::from(z), 3.0);
        }
        let r = find_iis(&m, &IisOptions::default());
        assert!(r.minimal);
        let names: Vec<&str> =
            r.rows.iter().map(|&i| m.constraints()[i].name.as_str()).collect();
        assert_eq!(names, vec!["sum_lo", "x_cap", "y_cap"]);
    }

    /// Integer-only infeasibility (LP relaxation feasible): 2x == 1 with
    /// integral x, plus noise.
    #[test]
    fn catches_integrality_conflicts() {
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        let odd = m.eq("odd", LinExpr::term(x, 2.0), 1.0);
        m.le("y_cap", LinExpr::from(y), 5.0);
        let r = find_iis(&m, &IisOptions::default());
        assert!(r.rows.contains(&odd), "rows: {:?}", r.rows);
        assert_eq!(r.rows.len(), 1);
    }

    /// The probe budget is a hard ceiling.
    #[test]
    fn respects_probe_budget() {
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 10.0);
        m.ge("x_lo", LinExpr::from(x), 3.0);
        m.le("x_hi", LinExpr::from(x), 1.0);
        for k in 0..40 {
            let z = m.integer(format!("pad{k}"), 0.0, 4.0);
            m.le(format!("pad_cap{k}"), LinExpr::from(z), 3.0);
        }
        let opts = IisOptions { max_probes: 3, ..IisOptions::default() };
        let r = find_iis(&m, &opts);
        assert!(r.probes <= 3);
        assert!(!r.minimal);
        // Whatever survives must still contain the true conflict.
        assert!(r.rows.iter().any(|&i| m.constraints()[i].name == "x_lo"));
        assert!(r.rows.iter().any(|&i| m.constraints()[i].name == "x_hi"));
    }

    /// The warm probe path (parent-basis LPs + cross-probe incumbent
    /// seeding) must delete the same rows and reach the same core as the
    /// all-cold filter.
    #[test]
    fn warm_probes_find_the_same_core() {
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        m.ge("sum_lo", LinExpr::from(x) + LinExpr::from(y), 5.0);
        m.le("x_cap", LinExpr::from(x), 1.0);
        m.le("y_cap", LinExpr::from(y), 1.0);
        for k in 0..10 {
            let z = m.integer(format!("pad{k}"), 0.0, 4.0);
            m.le(format!("pad_cap{k}"), LinExpr::from(z), 3.0);
        }
        let warm = find_iis(&m, &IisOptions { warm_lp: true, ..IisOptions::default() });
        let cold = find_iis(&m, &IisOptions { warm_lp: false, ..IisOptions::default() });
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(warm.minimal, cold.minimal);
    }

    #[test]
    fn restricted_to_keeps_selected_rows() {
        let mut m = Model::new();
        let x = m.binary("x");
        let a = m.le("a", LinExpr::from(x), 1.0);
        let b = m.ge("b", LinExpr::from(x), 0.0);
        let sub = m.restricted_to(&[b]);
        assert_eq!(sub.num_constraints(), 1);
        assert_eq!(sub.constraints()[0].name, "b");
        assert_eq!(m.constraints()[a].name, "a");
    }
}
