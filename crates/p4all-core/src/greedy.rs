//! Greedy first-fit baseline allocator (ablation for the ILP).
//!
//! Mimics what a careful engineer does by hand: walk the unrolled program
//! in order, put each group in the earliest stage that respects precedence,
//! exclusion, and ALU budgets; stop instantiating further iterations of a
//! loop once one fails to fit; then split each stage's leftover memory
//! evenly among the registers placed there, taking the minimum across
//! instances to honour the equal-row-size rule.
//!
//! The ILP provably dominates this baseline on utility; the ablation
//! table of `p4all-bench` quantifies by how much.

use std::collections::BTreeMap;

use p4all_lang::diag::Diagnostic;
use p4all_pisa::{PipelineUsage, TargetSpec};

use crate::depgraph::DepGraph;
use crate::elaborate::ProgramInfo;
use crate::ir::{Iter, Unrolled};
use crate::solution::{Layout, Placement, RegisterAllocation};

/// Place `unrolled` on `target` greedily. Returns a [`Layout`] comparable
/// with the ILP's (objective is left at 0.0; evaluate utilities with
/// [`crate::pipeline::evaluate_utility`]).
pub fn place_greedy(
    info: &ProgramInfo,
    unrolled: &Unrolled,
    graph: &DepGraph,
    target: &TargetSpec,
) -> Result<Layout, Diagnostic> {
    let stages = target.stages;
    let costs = &target.alu_costs;

    // Per-group ALU demand and iteration tags.
    let n = graph.nodes.len();
    let mut hf = vec![0u32; n];
    let mut hl = vec![0u32; n];
    let mut tag: Vec<Vec<Iter>> = vec![Vec::new(); n];
    for (g, node) in graph.nodes.iter().enumerate() {
        for &m in &node.members {
            let inst = &unrolled.instances[m];
            hf[g] += costs.stateful_cost(inst.ops.iter());
            hl[g] += costs.stateless_cost(inst.ops.iter());
        }
        tag[g] = unrolled.instances[node.members[0]].iters.clone();
    }

    // Minimum memory each group brings into its stage: a fixed-size
    // register demands its full footprint, an elastic one at least its
    // mined `assume` lower bound (default one cell). Charged to the first
    // group touching each register instance, so shared instances are not
    // double-counted; that owner group carries the demand through the
    // stage-fit check below.
    let mut mem_min = vec![0u64; n];
    {
        let mut owner: BTreeMap<(&str, usize), usize> = BTreeMap::new();
        for (g, node) in graph.nodes.iter().enumerate() {
            for &m in &node.members {
                let Some(r) = &unrolled.instances[m].reg else { continue };
                if owner.insert((r.reg.as_str(), r.instance), g).is_some() {
                    continue;
                }
                let Some(decl) = info.program.register(&r.reg) else { continue };
                let min_cells = match &decl.cells {
                    p4all_lang::ast::Size::Const(k) => *k,
                    p4all_lang::ast::Size::Symbolic(s) => {
                        info.mined.get(s).and_then(|b| b.lo).unwrap_or(1).max(1)
                    }
                };
                mem_min[g] += min_cells * decl.elem_bits as u64;
            }
        }
    }

    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &graph.precedence {
        preds[b].push(a);
    }
    let mut excls: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &graph.exclusion {
        excls[a].push(b);
        excls[b].push(a);
    }

    let mut used_f = vec![0u32; stages];
    let mut used_l = vec![0u32; stages];
    let mut used_m = vec![0u64; stages];
    let mut stage_of: Vec<Option<usize>> = vec![None; n];
    // Iterations of a count symbolic that failed: higher iterations of the
    // same symbolic are skipped (in-order rule #16).
    let mut dead_from: BTreeMap<String, usize> = BTreeMap::new();

    'groups: for g in 0..n {
        // Skip iterations past a failed one.
        for it in &tag[g] {
            if let Some(&cut) = dead_from.get(&it.symbolic) {
                if it.index >= cut {
                    continue 'groups;
                }
            }
        }
        // Earliest legal stage.
        let mut lo = 0usize;
        let mut placeable = true;
        for &p in &preds[g] {
            match stage_of[p] {
                Some(s) => lo = lo.max(s + 1),
                None => {
                    placeable = false;
                    break;
                }
            }
        }
        let mut chosen = None;
        if placeable {
            'stage: for s in lo..stages {
                if used_f[s] + hf[g] > target.stateful_alus
                    || used_l[s] + hl[g] > target.stateless_alus
                    || used_m[s] + mem_min[g] > target.memory_bits
                {
                    continue;
                }
                for &e in &excls[g] {
                    if stage_of[e] == Some(s) {
                        continue 'stage;
                    }
                }
                chosen = Some(s);
                break;
            }
        }
        match chosen {
            Some(s) => {
                stage_of[g] = Some(s);
                used_f[s] += hf[g];
                used_l[s] += hl[g];
                used_m[s] += mem_min[g];
            }
            None => {
                if tag[g].is_empty() {
                    return Err(Diagnostic::error(format!(
                        "greedy placement failed: mandatory group `{}` does not fit on \
                         target `{}`",
                        graph.nodes[g].label, target.name
                    ))
                    .with_note(
                        "the greedy baseline only drops elastic loop iterations; a \
                         non-loop group that does not fit makes the program unplaceable",
                    ));
                }
                for it in &tag[g] {
                    let e = dead_from.entry(it.symbolic.clone()).or_insert(usize::MAX);
                    *e = (*e).min(it.index);
                }
                // Unplace earlier groups of this same iteration (coherence).
                for g2 in 0..g {
                    if tag[g2] == tag[g] {
                        if let Some(s2) = stage_of[g2].take() {
                            used_f[s2] -= hf[g2];
                            used_l[s2] -= hl[g2];
                            used_m[s2] -= mem_min[g2];
                        }
                    }
                }
            }
        }
    }

    // --- Memory: split each stage's memory evenly among its registers. ---
    // Collect placed register instances with their stage.
    struct RegSlot {
        reg: String,
        instance: usize,
        elem_bits: u32,
        stage: usize,
        size_sym: Option<String>,
        fixed_cells: Option<u64>,
    }
    let mut slots: Vec<RegSlot> = Vec::new();
    for (g, node) in graph.nodes.iter().enumerate() {
        let Some(s) = stage_of[g] else { continue };
        for &m in &node.members {
            if let Some(r) = &unrolled.instances[m].reg {
                if slots.iter().any(|x| x.reg == r.reg && x.instance == r.instance) {
                    continue;
                }
                let Some(decl) = info.program.register(&r.reg) else {
                    return Err(Diagnostic::internal(format!(
                        "unrolled program references undeclared register `{}`",
                        r.reg
                    )));
                };
                slots.push(RegSlot {
                    reg: r.reg.clone(),
                    instance: r.instance,
                    elem_bits: decl.elem_bits,
                    stage: s,
                    size_sym: decl.cells.symbolic_name().map(str::to_string),
                    fixed_cells: match &decl.cells {
                        p4all_lang::ast::Size::Const(k) => Some(*k),
                        _ => None,
                    },
                });
            }
        }
    }
    // Fixed-size registers take their demand off the top.
    let mut stage_free: Vec<i64> = vec![target.memory_bits as i64; stages];
    for sl in &slots {
        if let Some(k) = sl.fixed_cells {
            stage_free[sl.stage] -= (k * sl.elem_bits as u64) as i64;
        }
    }
    // Elastic registers share the leftover within their stage; each slot
    // is granted its mined `assume` lower bound first (default one cell)
    // and the remainder splits evenly, so registers with different lower
    // bounds do not starve each other. The symbolic's value is the min
    // across its instances (equal-row-size rule).
    let lo_cells_of = |sym: &str| info.mined.get(sym).and_then(|b| b.lo).unwrap_or(1).max(1);
    let mut elastic_count_per_stage = vec![0u64; stages];
    let mut elastic_lo_bits = vec![0u64; stages];
    for sl in &slots {
        if let Some(sym) = &sl.size_sym {
            elastic_count_per_stage[sl.stage] += 1;
            elastic_lo_bits[sl.stage] += lo_cells_of(sym) * sl.elem_bits as u64;
        }
    }
    let mut sym_cells: BTreeMap<String, u64> = BTreeMap::new();
    for sl in &slots {
        let Some(sym) = &sl.size_sym else { continue };
        let peers = elastic_count_per_stage[sl.stage].max(1);
        let free = (stage_free[sl.stage].max(0) as u64).saturating_sub(elastic_lo_bits[sl.stage]);
        let share_bits = lo_cells_of(sym) * sl.elem_bits as u64 + free / peers;
        let cells = share_bits / sl.elem_bits as u64;
        let e = sym_cells.entry(sym.clone()).or_insert(u64::MAX);
        *e = (*e).min(cells);
    }
    // Honour mined bounds from assumes. A share below the lower bound is
    // an honest failure: emitting the register at zero cells (or silently
    // dropping it) would hand back a layout that violates the program's
    // own `assume`s.
    for (sym, cells) in sym_cells.iter_mut() {
        if let Some(b) = info.mined.get(sym) {
            if let Some(hi) = b.hi {
                *cells = (*cells).min(hi);
            }
            if let Some(lo) = b.lo {
                if *cells < lo {
                    return Err(Diagnostic::error(format!(
                        "greedy placement failed: best share for size symbolic `{sym}` \
                         is {cells} cells, below its `assume` lower bound of {lo}"
                    ))
                    .with_note(
                        "the greedy baseline splits stage memory evenly; the ILP may \
                         still find a feasible asymmetric split",
                    ));
                }
            }
        }
    }

    // --- Assemble the layout. ---
    let mut placements = Vec::new();
    let mut usage = PipelineUsage::new(stages);
    let mut live_iters: BTreeMap<String, u64> = BTreeMap::new();
    let mut seen_iter: BTreeMap<(String, usize), bool> = BTreeMap::new();
    for (g, node) in graph.nodes.iter().enumerate() {
        let Some(s) = stage_of[g] else { continue };
        placements.push(Placement { group: g, label: node.label.clone(), stage: s });
        usage.stages[s].stateful_alus += hf[g];
        usage.stages[s].stateless_alus += hl[g];
        for it in &tag[g] {
            seen_iter.insert((it.symbolic.clone(), it.index), true);
        }
    }
    for sym in seen_iter.keys() {
        *live_iters.entry(sym.0.clone()).or_insert(0) = live_iters
            .get(&sym.0)
            .copied()
            .unwrap_or(0)
            .max(sym.1 as u64 + 1);
    }

    let mut registers = Vec::new();
    for sl in &slots {
        let cells = match (&sl.size_sym, sl.fixed_cells) {
            (_, Some(k)) => k,
            (Some(sym), None) => sym_cells.get(sym).copied().unwrap_or(0),
            (None, None) => 0,
        };
        if cells == 0 {
            continue;
        }
        registers.push(RegisterAllocation {
            reg: sl.reg.clone(),
            instance: sl.instance,
            stage: sl.stage,
            cells,
            elem_bits: sl.elem_bits,
        });
        usage.stages[sl.stage].memory_bits += cells * sl.elem_bits as u64;
    }

    let mut symbol_values: BTreeMap<String, u64> = BTreeMap::new();
    for sym in info.count_symbolics() {
        symbol_values.insert(sym.to_string(), live_iters.get(sym).copied().unwrap_or(0));
    }
    for (sym, cells) in &sym_cells {
        symbol_values.insert(sym.clone(), *cells);
    }
    // A size symbolic whose registers were never placed (all the loop
    // iterations touching them were dropped) still needs a value for the
    // layout to be checkable.
    for sym in info.size_symbolics() {
        symbol_values.entry(sym.to_string()).or_insert(0);
    }
    // Dropping iterations can sink a count symbolic below an `assume`
    // lower bound (e.g. `rows >= 1` with every row dropped); that is a
    // greedy failure, not a valid layout.
    for (sym, v) in &symbol_values {
        if let Some(lo) = info.mined.get(sym).and_then(|b| b.lo) {
            if *v < lo {
                return Err(Diagnostic::error(format!(
                    "greedy placement failed: `{sym}` = {v} violates its `assume` \
                     lower bound of {lo}"
                )));
            }
        }
    }

    let mut phv = info.fixed_phv_bits();
    for (sym, _) in seen_iter.keys() {
        phv += info.meta_chunk_bits(sym);
    }
    usage.phv_elastic_bits = phv;

    // Backstop for anything the checks above cannot see (non-minable
    // `assume` shapes, shared register instances whose owning group was
    // unplaced): a greedy `Ok` must mean a genuinely valid layout.
    if let Err(violations) = crate::verify::assumes_hold(&info.program, &symbol_values) {
        return Err(Diagnostic::error(format!(
            "greedy placement failed: {}",
            violations.join("; ")
        )));
    }
    if let Err(violations) = p4all_pisa::validate(&usage, target) {
        let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        return Err(Diagnostic::error(format!(
            "greedy placement failed: layout does not fit `{}`: {}",
            target.name,
            rendered.join("; ")
        )));
    }

    Ok(Layout { symbol_values, placements, registers, objective: 0.0, usage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::build_full;
    use crate::elaborate::elaborate;
    use crate::ir::instantiate;
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

    #[test]
    fn greedy_layout_is_feasible() {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), 2);
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let target = presets::paper_example();
        let layout = place_greedy(&info, &u, &g, &target).unwrap();
        p4all_pisa::validate(&layout.usage, &target)
            .unwrap_or_else(|e| panic!("greedy produced invalid layout: {e:?}"));
        assert!(layout.symbol_values["rows"] >= 1);
        assert!(layout.symbol_values["cols"] >= 1);
    }

    #[test]
    fn greedy_respects_precedence() {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), 2);
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let target = presets::paper_eval(1 << 20);
        let layout = place_greedy(&info, &u, &g, &target).unwrap();
        let s_incr0 = layout.stage_of("incr[0]").unwrap();
        let s_min0 = layout.stage_of("set_min[0]").unwrap();
        assert!(s_incr0 < s_min0);
        // Exclusion between set_mins.
        let s_min1 = layout.stage_of("set_min[1]").unwrap();
        assert_ne!(s_min0, s_min1);
    }

    /// Two fixed 1536-bit registers fit a 2048-bit stage individually but
    /// not together; the ALU budget alone would co-locate them. Found by
    /// fuzzing (corpus case `greedy-layout-invalid-6e`): greedy used to
    /// place stages memory-blind and return an overflowing layout as `Ok`.
    #[test]
    fn greedy_is_memory_aware_for_fixed_registers() {
        let src = r#"
            header h { bit<32> key; }
            register<bit<64>>[24] a;
            register<bit<64>>[24] b;
            action fa() { a[0] = a[0] + 1; }
            action fb() { b[0] = b[0] + 1; }
            control Main() { apply { fa(); fb(); } }
        "#;
        let p = std::sync::Arc::new(parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let u = instantiate(&info, &BTreeMap::new()).unwrap();
        let g = build_full(&u);
        let target = presets::paper_example();
        let layout = place_greedy(&info, &u, &g, &target).unwrap();
        p4all_pisa::validate(&layout.usage, &target)
            .unwrap_or_else(|e| panic!("greedy produced invalid layout: {e:?}"));
        let s_a = layout.stage_of("fa").unwrap();
        let s_b = layout.stage_of("fb").unwrap();
        assert_ne!(s_a, s_b, "1536 + 1536 bits cannot share a 2048-bit stage");
    }

    /// A lower bound the even split cannot honour is a greedy *failure*,
    /// not a licence to emit the register with zero cells (corpus case
    /// `greedy-layout-invalid-b7`).
    #[test]
    fn greedy_fails_honestly_when_a_lower_bound_cannot_be_met() {
        let src = r#"
            symbolic int cols;
            assume cols >= 1024;
            header h { bit<32> key; }
            struct metadata { bit<32> idx; }
            register<bit<32>>[cols] tab;
            action touch() {
                meta.idx = hash(hdr.key, cols);
                tab[meta.idx] = tab[meta.idx] + 1;
            }
            control Main() { apply { touch(); } }
        "#;
        let p = std::sync::Arc::new(parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let u = instantiate(&info, &BTreeMap::new()).unwrap();
        let g = build_full(&u);
        // 1024 cells x 32 bits = 32768 bits >> 2048 per stage.
        let err = place_greedy(&info, &u, &g, &presets::paper_example()).unwrap_err();
        assert!(
            err.to_string().contains("greedy placement failed"),
            "expected an honest greedy failure, got: {err}"
        );
    }

    #[test]
    fn greedy_drops_iterations_that_do_not_fit() {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), 8); // way beyond a 3-stage pipeline
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let target = presets::paper_example();
        let layout = place_greedy(&info, &u, &g, &target).unwrap();
        assert!(layout.symbol_values["rows"] < 8);
        p4all_pisa::validate(&layout.usage, &target).unwrap();
    }
}
