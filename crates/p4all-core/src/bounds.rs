//! Upper bounds for loop unrolling (§4.2).
//!
//! For each count symbolic `v`, the compiler unrolls the loops bounded by
//! `v` at K = 1, 2, … and builds the dependency graph `G_v` over the
//! resulting instances, stopping at the first K where either
//!
//! 1. the longest simple path in `G_v` exceeds the stage count `S`, or
//! 2. the total ALU demand of `G_v` exceeds `(F + L) * S`.
//!
//! The upper bound is then `K - 1` — the largest K whose instances could
//! conceivably all fit (Figure 9's example: at K = 3 the longest path is 4
//! on a 3-stage target, so the bound is 2). Bounds mined from `assume`
//! statements and a configurable hard cap clamp the search.

use std::collections::BTreeMap;

use p4all_lang::diag::Diagnostic;
use p4all_pisa::TargetSpec;

use crate::depgraph::DepGraph;
use crate::elaborate::ProgramInfo;
use crate::ir::{instantiate, ActionInstance};

/// Hard cap on unrolling, protecting against unbounded growth when a loop
/// body has no cross-iteration dependencies and the target has a huge ALU
/// budget. Programs needing more should say so with an `assume`.
pub const DEFAULT_MAX_UNROLL: usize = 64;

/// Compute the unroll upper bound for count symbolic `sym`.
///
/// While probing `sym` at K, every *other* count symbolic is held at one
/// iteration — the most conservative assumption for nested/parallel loops
/// (§4.2, "Nested loops").
fn upper_bound(
    info: &ProgramInfo,
    sym: &str,
    target: &TargetSpec,
    max_unroll: usize,
) -> Result<usize, Diagnostic> {
    let cap = info
        .mined
        .get(sym)
        .and_then(|b| b.hi)
        .map(|h| h as usize)
        .unwrap_or(max_unroll)
        .min(max_unroll);
    if cap == 0 {
        return Ok(0);
    }

    let alu_budget = target.total_alus();
    let costs = &target.alu_costs;

    for k in 1..=cap {
        let mut bounds: BTreeMap<String, usize> = BTreeMap::new();
        for other in info.count_symbolics() {
            bounds.insert(other.to_string(), 1);
        }
        bounds.insert(sym.to_string(), k);
        let unrolled = instantiate(info, &bounds)?;
        // G_v covers only instances inside loops bounded by v.
        let members: Vec<&ActionInstance> = unrolled
            .instances
            .iter()
            .filter(|a| a.iters.iter().any(|it| it.symbolic == sym))
            .collect();
        if members.is_empty() {
            // The symbolic bounds no loop reached from the entry control
            // (e.g. a module library); the mined/hard cap is all we have.
            return Ok(cap);
        }
        let g = DepGraph::build(&members);
        if g.longest_simple_path() > target.stages {
            return Ok(k - 1);
        }
        if g.total_alus(&members, costs) > alu_budget {
            return Ok(k - 1);
        }
    }
    Ok(cap)
}

/// Upper bounds for every count symbolic of the program.
pub fn all_upper_bounds(
    info: &ProgramInfo,
    target: &TargetSpec,
    max_unroll: usize,
) -> Result<BTreeMap<String, usize>, Diagnostic> {
    let mut out = BTreeMap::new();
    for sym in info.count_symbolics() {
        let b = upper_bound(info, sym, target, max_unroll)?;
        // An `assume`d lower bound above the structural upper bound can
        // never be satisfied: report it here, with the declaration span,
        // instead of letting the ILP return a bare "infeasible".
        if let Some(lo) = info.mined.get(sym).and_then(|m| m.lo) {
            if lo as usize > b {
                let span = info
                    .program
                    .symbolics
                    .iter()
                    .find(|s| s.name == sym)
                    .map(|s| s.span);
                let mut d = Diagnostic::error(format!(
                    "unroll bound exceeded: `{sym}` is assumed >= {lo}, but target \
                     `{}` supports at most {b} iteration{} of the loops it bounds",
                    target.name,
                    if b == 1 { "" } else { "s" },
                ))
                .with_note(format!(
                    "the bound comes from the target's {} stages and {} ALUs (unrolling \
                     criteria 1 and 2)",
                    target.stages,
                    target.total_alus(),
                ));
                if let Some(span) = span {
                    d = d.with_span(span);
                }
                return Err(d);
            }
        }
        out.insert(sym.to_string(), b);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use p4all_lang::parse;
    use p4all_pisa::presets;

    const CMS: &str = r#"
        symbolic int rows;
        symbolic int cols;
        header h { bit<32> key; }
        struct metadata {
            bit<32>[rows] index;
            bit<32>[rows] count;
            bit<32> min;
        }
        register<bit<32>>[cols][rows] cms;
        action incr()[int i] {
            meta.index[i] = hash(hdr.key, cols);
            cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
            meta.count[i] = cms[i][meta.index[i]];
        }
        action set_min()[int i] { meta.min = meta.count[i]; }
        control hash_inc() { apply { for (i < rows) { incr()[i]; } } }
        control find_min() {
            apply { for (i < rows) { if (meta.count[i] < meta.min) { set_min()[i]; } } }
        }
        control Main() { apply { hash_inc.apply(); find_min.apply(); } }
    "#;

    /// The worked example of §4.2 / Figure 9: on a three-stage target the
    /// CMS loop unrolls at most twice.
    #[test]
    fn figure_9_bound_is_2() {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let target = presets::paper_example(); // S = 3
        let b = upper_bound(&info, "rows", &target, DEFAULT_MAX_UNROLL).unwrap();
        assert_eq!(b, 2);
    }

    #[test]
    fn more_stages_allow_more_iterations() {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let target = presets::paper_eval(1 << 20); // S = 10
        let b = upper_bound(&info, "rows", &target, DEFAULT_MAX_UNROLL).unwrap();
        // Longest path at K is K+1 (incr_i then the chain of set_mins), so
        // the first violating K is 10 and the bound is 9.
        assert_eq!(b, 9);
    }

    #[test]
    fn assume_caps_the_bound() {
        let src = CMS.replace(
            "symbolic int rows;",
            "symbolic int rows;\nassume rows <= 3;",
        );
        let p = std::sync::Arc::new(parse(&src).unwrap());
        let info = elaborate(&p).unwrap();
        let target = presets::paper_eval(1 << 20);
        let b = upper_bound(&info, "rows", &target, DEFAULT_MAX_UNROLL).unwrap();
        assert_eq!(b, 3);
    }

    #[test]
    fn alu_criterion_bounds_parallel_loops() {
        // Independent per-iteration registers, no cross-iteration deps:
        // only the ALU budget stops unrolling.
        let src = r#"
            symbolic int n;
            header h { bit<32> key; }
            struct metadata { bit<32>[n] idx; }
            register<bit<32>>[64][n] tallies;
            action bump()[int i] {
                meta.idx[i] = hash(hdr.key, 64);
                tallies[i][meta.idx[i]] = tallies[i][meta.idx[i]] + 1;
            }
            control Main() { apply { for (i < n) { bump()[i]; } } }
        "#;
        let p = std::sync::Arc::new(parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let target = presets::paper_example(); // (F+L)*S = 12 ALUs
        let b = upper_bound(&info, "n", &target, DEFAULT_MAX_UNROLL).unwrap();
        // Each bump costs Hash(1) + Rmw(1) = 2 ALUs: 7 iterations exceed 12.
        assert_eq!(b, 6);
    }

    #[test]
    fn hard_cap_applies_without_assumes() {
        let src = r#"
            symbolic int n;
            header h { bit<32> key; }
            struct metadata { bit<32>[n] idx; }
            register<bit<32>>[64][n] tallies;
            action bump()[int i] {
                meta.idx[i] = hash(hdr.key, 64);
                tallies[i][meta.idx[i]] = tallies[i][meta.idx[i]] + 1;
            }
            control Main() { apply { for (i < n) { bump()[i]; } } }
        "#;
        let p = std::sync::Arc::new(parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let target = presets::paper_eval(1 << 20); // 1040 ALUs
        let b = upper_bound(&info, "n", &target, 16).unwrap();
        assert_eq!(b, 16, "hard cap should clamp the ALU-bound search");
    }

    #[test]
    fn all_bounds_covers_every_count_symbolic() {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let target = presets::paper_example();
        let all = all_upper_bounds(&info, &target, DEFAULT_MAX_UNROLL).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all["rows"], 2);
    }
}
