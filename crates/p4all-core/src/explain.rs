//! Infeasibility explanations.
//!
//! When the placement ILP of Figure 10 is infeasible, "no layout" is the
//! correct answer but a useless one: the programmer wants to know *which*
//! elastic structures collide on *which* PISA resource, and *where* in the
//! source the conflict originates. This module turns the bare
//! `Infeasible` verdict into that answer:
//!
//! 1. run the bounded deletion-filter IIS from `p4all-ilp`
//!    ([`p4all_ilp::find_iis`]) to shrink the model to a small jointly
//!    infeasible row core;
//! 2. map every surviving row back through its [`RowProvenance`],
//!    rendered from the origin the generator recorded for it — symbolic
//!    values, resource kind (S/M/F/L/P), source span;
//! 3. aggregate those into one [`Diagnostic`] naming the conflicting
//!    elastic structures, the exhausted resources, and at least one
//!    source anchor.
//!
//! The explanation is *bounded*: the caller fixes the probe budget (see
//! [`IisOptions`]), and the compile driver additionally clamps the
//! per-probe node limit so the whole filter costs at most about twice the
//! original solve.

use p4all_ilp::{find_iis, IisOptions};
use p4all_lang::diag::Diagnostic;
use p4all_pisa::TargetSpec;

use crate::ilpgen::{Encoding, ResourceKind, RowProvenance};

/// One IIS member mapped back to its origin.
#[derive(Debug, Clone)]
pub struct ExplainedRow {
    /// Row index into the encoding's model.
    pub row: usize,
    /// The constraint's model name (e.g. `stage_mem_s2`).
    pub name: String,
    /// Generator provenance, when the row has one (every generated row
    /// does; `None` only for rows added outside the generator).
    pub provenance: Option<RowProvenance>,
}

/// Why a program does not fit: a conflicting constraint core plus the
/// aggregated, human-readable diagnostic built from it.
#[derive(Debug, Clone)]
pub struct Infeasibility {
    /// The rendered explanation (message, notes, spans).
    pub diagnostic: Diagnostic,
    /// The conflicting rows, mapped through provenance.
    pub rows: Vec<ExplainedRow>,
    /// Distinct resource kinds implicated, in S/M/F/L/P order.
    pub resources: Vec<ResourceKind>,
    /// Distinct symbolic values implicated, sorted.
    pub symbolics: Vec<String>,
    /// Distinct tenants implicated (joint compiles only), sorted. Derived
    /// from row provenance and symbolic `tenant::` prefixes.
    pub tenants: Vec<String>,
    /// Feasibility probes the deletion filter spent.
    pub probes: usize,
    /// True when the core is irreducible (the filter ran to completion).
    pub minimal: bool,
}

/// Explain an infeasible encoding. The caller must already hold an
/// `Infeasible` solver verdict for `enc.model`; this runs the bounded IIS
/// filter and aggregates provenance into a diagnostic.
pub fn explain_infeasible(
    enc: &Encoding,
    target: &TargetSpec,
    opts: &IisOptions,
) -> Infeasibility {
    let report = find_iis(&enc.model, opts);

    let rows: Vec<ExplainedRow> = report
        .rows
        .iter()
        .map(|&i| ExplainedRow {
            row: i,
            name: enc.model.constraints()[i].name.clone(),
            provenance: enc.provenance_of(i),
        })
        .collect();

    let mut symbolics: Vec<String> = rows
        .iter()
        .filter_map(|r| r.provenance.as_ref())
        .flat_map(|p| p.symbolics.iter().cloned())
        .collect();
    symbolics.sort();
    symbolics.dedup();

    let mut resources: Vec<ResourceKind> = rows
        .iter()
        .filter_map(|r| r.provenance.as_ref())
        .map(|p| p.resource)
        .collect();

    // Capacity limits folded into *column* bounds never show up as IIS
    // rows; when a core symbolic is clamped by one, the clamp is part of
    // the conflict and its resource must be named too.
    let implicated_bounds: Vec<&crate::ilpgen::DerivedBound> = enc
        .derived_bounds
        .iter()
        .filter(|b| symbolics.contains(&b.symbolic))
        .collect();
    resources.extend(implicated_bounds.iter().map(|b| b.resource));
    resources.sort();
    resources.dedup();

    // Tenants implicated by the core: from each row's derived tenant and
    // from the `tenant::` prefixes of the conflicting symbolics.
    let mut tenants: Vec<String> = rows
        .iter()
        .filter_map(|r| r.provenance.as_ref())
        .filter_map(|p| p.tenant.clone())
        .chain(symbolics.iter().filter_map(|s| p4all_lang::tenant_of(s).map(str::to_string)))
        .collect();
    tenants.sort();
    tenants.dedup();

    let mut d = Diagnostic::error(format!(
        "program does not fit on target `{}`: no assignment of its elastic \
         parameters satisfies every placement constraint",
        target.name
    ));

    if tenants.len() > 1 {
        let list: Vec<String> = tenants.iter().map(|t| format!("`{t}`")).collect();
        d = d.with_note(format!(
            "tenants {} conflict over shared pipeline capacity",
            list.join(", ")
        ));
    }

    if !symbolics.is_empty() {
        let list: Vec<String> = symbolics.iter().map(|s| format!("`{s}`")).collect();
        d = d.with_note(format!(
            "the conflict involves the elastic structure{} sized by {}",
            if symbolics.len() == 1 { "" } else { "s" },
            list.join(", ")
        ));
    }

    let physical: Vec<&'static str> =
        resources.iter().filter(|r| r.is_physical()).map(|r| r.describe()).collect();
    if !physical.is_empty() {
        d = d.with_note(format!("exhausted target resources: {}", physical.join(", ")));
    }
    for b in &implicated_bounds {
        d = match b.span {
            Some(span) => d.with_note_at(b.detail.clone(), span),
            None => d.with_note(b.detail.clone()),
        };
    }
    if resources.contains(&ResourceKind::Assumption) {
        d = d.with_note(
            "user `assume` constraints participate in the conflict; relaxing \
             them may restore feasibility",
        );
    }

    // Anchor the diagnostic at the first spanned row and attach up to four
    // of the most informative rows (spanned, non-structural first) as
    // spanned notes the renderer can show snippets for. In a joint compile
    // the first pass anchors one row per conflicting tenant — a two-tenant
    // SRAM fight must show *both* tenants' source spans, not four spans
    // from whichever tenant sorts first — and the second pass fills the
    // remaining slots in quality order.
    let mut anchored = 0usize;
    let mut best_first: Vec<&ExplainedRow> = rows.iter().collect();
    best_first.sort_by_key(|r| match r.provenance.as_ref() {
        Some(p) if p.span.is_some() && p.resource.is_physical() => 0,
        Some(p) if p.span.is_some() => 1,
        Some(_) => 2,
        None => 3,
    });
    let mut seen: Vec<(String, p4all_lang::Span)> = Vec::new();
    let mut tenants_anchored: Vec<&str> = Vec::new();
    let mut anchor = |d: &mut Diagnostic, p: &RowProvenance, span: p4all_lang::Span| {
        if d.span.is_none() {
            *d = d.clone().with_span(span);
        }
        // A single logical constraint often contributes several model rows
        // (e.g. the big-M pair of a precedence constraint); show it once.
        if anchored < 4 && !seen.contains(&(p.detail.clone(), span)) {
            seen.push((p.detail.clone(), span));
            *d = d.clone().with_note_at(format!("conflicting constraint: {}", p.detail), span);
            anchored += 1;
        }
    };
    if tenants.len() > 1 {
        for r in &best_first {
            let Some(p) = r.provenance.as_ref() else { continue };
            let (Some(span), Some(t)) = (p.span, p.tenant.as_deref()) else { continue };
            if !tenants_anchored.contains(&t) {
                tenants_anchored.push(t);
                anchor(&mut d, p, span);
            }
        }
    }
    for r in &best_first {
        let Some(p) = r.provenance.as_ref() else { continue };
        let Some(span) = p.span else { continue };
        anchor(&mut d, p, span);
    }

    if d.span.is_none() {
        if let Some(span) = implicated_bounds.iter().find_map(|b| b.span) {
            d = d.with_span(span);
        }
    }

    d = d.with_note(format!(
        "conflict core: {} of {} constraints{}",
        rows.len(),
        enc.model.num_constraints(),
        if report.minimal { " (irreducible)" } else { " (probe budget reached)" }
    ));

    Infeasibility {
        diagnostic: d,
        rows,
        resources,
        symbolics,
        tenants,
        probes: report.probes,
        minimal: report.minimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::build_full;
    use crate::elaborate::elaborate;
    use crate::ilpgen::encode;
    use crate::ir::instantiate;
    use p4all_pisa::presets;
    use std::collections::BTreeMap;

    /// Four sequentially dependent mandatory statements cannot fit three
    /// stages; the explanation must name the stage resource and carry at
    /// least one span.
    #[test]
    fn explains_a_stage_chain_conflict() {
        let src = r#"
            header h { bit<32> key; }
            struct metadata { bit<32> a; bit<32> b; bit<32> c; bit<32> d; }
            control Main() {
                apply {
                    meta.a = hdr.key;
                    meta.b = meta.a + 1;
                    meta.c = meta.b + 1;
                    meta.d = meta.c + 1;
                }
            }
        "#;
        let p = std::sync::Arc::new(p4all_lang::parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let target = presets::paper_example();
        let bounds = BTreeMap::new();
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let enc = encode(&info, &u, &g, &target).unwrap();
        let x = explain_infeasible(&enc, &target, &IisOptions::default());
        assert!(!x.rows.is_empty());
        assert!(
            x.resources.contains(&ResourceKind::Stages),
            "stage conflict must implicate S, got {:?}",
            x.resources
        );
        let has_span = x.diagnostic.span.is_some()
            || x.diagnostic.notes.iter().any(|n| n.span.is_some());
        assert!(has_span, "explanation must carry a source anchor");
        let text = x.diagnostic.render(src, "<test>");
        assert!(text.contains("does not fit"), "{text}");
        assert!(text.contains("pipeline stages (S)"), "{text}");
    }
}
