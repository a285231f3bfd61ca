//! Multi-tenant joint compilation: N elastic programs, one PISA pipeline.
//!
//! A production switch rarely runs a single program. This module compiles
//! N independent P4All programs — each a *tenant* with a utility weight —
//! into ONE jointly-optimal layout:
//!
//! 1. each tenant's source is validated standalone through the front half
//!    (parse → elaborate → bounds → unroll → depgraph), so errors are
//!    reported against the tenant's own source with its own spans;
//! 2. the tenant programs are namespaced (`tenant::name`) and merged into
//!    one program ([`p4all_lang::merge_programs`]) whose objective is the
//!    weighted sum `Σ weight_t · optimize_t` and whose entry control
//!    applies every tenant's pipeline in descending-weight order;
//! 3. the merged program runs through the ordinary [`CompileCtx::compile`]
//!    pipeline — ONE ILP whose stage/SRAM/ALU/PHV capacity rows are shared
//!    by all tenants, so the solver trades resources *between* tenants
//!    exactly as Figure 10 trades them between structures;
//! 4. the joint layout is split back into per-tenant reports: each
//!    tenant's own (unweighted) utility at the joint symbolic values and
//!    its symbolic values under their original local names.
//!
//! Single-program compilation is the N=1 case of this path (one tenant,
//! weight 1); nothing here is a bolt-on shim — the merged program is an
//! ordinary [`p4all_lang::ast::Program`] all the way down, and an
//! infeasible joint compile explains itself with tenant-aware IIS
//! provenance (see [`crate::explain`]).

use std::collections::BTreeMap;

use p4all_lang::ast::Program;
use p4all_lang::{merge_programs, namespace_program, Tenant};
use p4all_pisa::TargetSpec;

use crate::passes::{CompileCtx, CompileTrace};
use crate::pipeline::{evaluate_utility, Compilation, CompileError};
use crate::solution::Layout;
use crate::verify::{assumes_hold, verify_layout};

/// One tenant's input to a joint compile: its identity/weight plus its
/// standalone P4All source text.
#[derive(Debug, Clone)]
pub struct TenantProgram {
    pub tenant: Tenant,
    pub src: String,
}

impl TenantProgram {
    pub fn new(tenant: Tenant, src: impl Into<String>) -> Self {
        TenantProgram { tenant, src: src.into() }
    }
}

/// The merged form of N tenant programs: the per-tenant parsed ASTs (in
/// descending-weight merge order), the merged AST, and its printed source
/// — what the back half actually compiles, and what diagnostics for the
/// *joint* program render against.
#[derive(Debug, Clone)]
pub struct JointSource {
    /// `(tenant, un-namespaced program)` in merge (descending-weight) order.
    pub tenants: Vec<(Tenant, Program)>,
    /// The namespaced, weight-summed, single-entry merged program.
    pub merged: Program,
    /// `merged` printed back to P4All source text.
    pub src: String,
}

/// Parse and merge N tenant programs into one joint source.
///
/// Fails on zero tenants, duplicate tenant names, or a tenant whose
/// source does not parse (the error names the offending tenant).
pub fn merge_tenants(tenants: &[TenantProgram]) -> Result<JointSource, CompileError> {
    if tenants.is_empty() {
        return Err(CompileError::Source(p4all_lang::diag::Diagnostic::error(
            "joint compile needs at least one tenant program",
        )));
    }
    let mut parsed: Vec<(Tenant, Program)> = Vec::with_capacity(tenants.len());
    for t in tenants {
        let program = p4all_lang::parse(&t.src).map_err(|e| in_tenant(e, &t.tenant.name))?;
        parsed.push((t.tenant.clone(), program));
    }
    let merged = merge_programs(&parsed)?;
    // Re-establish merge order locally (merge_programs sorts internally).
    parsed.sort_by(|a, b| {
        b.0.weight.partial_cmp(&a.0.weight).unwrap_or(std::cmp::Ordering::Equal)
    });
    let src = p4all_lang::printer::print_program(&merged);
    Ok(JointSource { tenants: parsed, merged, src })
}

/// Prefix a tenant's own source error so a joint compile says *whose*
/// program is broken.
fn in_tenant(e: p4all_lang::errors::LangError, tenant: &str) -> CompileError {
    let d: p4all_lang::diag::Diagnostic = e.into();
    CompileError::Source(d.with_note(format!("in tenant `{tenant}`")))
}

/// One tenant's slice of a joint layout.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub name: String,
    pub weight: f64,
    /// The tenant's own (unweighted) `optimize` value at the joint
    /// symbolic values; `None` when the tenant has no `optimize` or it
    /// does not evaluate.
    pub utility: Option<f64>,
    /// The tenant's symbolic values under their original local names.
    pub symbol_values: BTreeMap<String, u64>,
}

/// A successful joint compilation: the merged-program compilation plus
/// the per-tenant utility split.
pub struct JointCompilation {
    pub compilation: Compilation,
    pub joint: JointSource,
    /// One report per tenant, in merge (descending-weight) order.
    pub tenants: Vec<TenantReport>,
}

impl JointCompilation {
    /// `Σ weight_t · utility_t` over tenants whose utility evaluates —
    /// equals the ILP objective when every tenant's does.
    pub fn weighted_utility(&self) -> f64 {
        self.tenants
            .iter()
            .filter_map(|t| t.utility.map(|u| t.weight * u))
            .sum()
    }
}

impl CompileCtx {
    /// Jointly compile N tenant programs into one layout on `target`.
    ///
    /// Each tenant's source first runs the front half standalone (errors
    /// carry the tenant's own spans; artifacts warm the front-half cache);
    /// the merged program then compiles through the ordinary pipeline.
    /// Single-program compilation is exactly `compile_joint` with one
    /// weight-1 tenant, minus the namespacing.
    pub fn compile_joint(
        &mut self,
        tenants: &[TenantProgram],
        target: &TargetSpec,
    ) -> Result<JointCompilation, CompileError> {
        // Standalone front-half validation per tenant. A tenant whose
        // program is malformed must be named before any merged-source
        // diagnostic (whose spans point into generated text) appears.
        for t in tenants {
            let mut scratch = CompileTrace::default();
            self.front(&t.src, target, &mut scratch).map_err(|e| match e {
                CompileError::Source(d) => {
                    CompileError::Source(d.with_note(format!("in tenant `{}`", t.tenant.name)))
                }
                other => other,
            })?;
        }

        let joint = merge_tenants(tenants)?;
        let compilation = self.compile(&joint.src, target)?;
        let tenants = tenant_reports(&joint, &compilation.layout);
        Ok(JointCompilation { compilation, joint, tenants })
    }
}

/// Split a joint layout into per-tenant reports (merge order).
fn tenant_reports(joint: &JointSource, layout: &Layout) -> Vec<TenantReport> {
    joint
        .tenants
        .iter()
        .map(|(tenant, program)| {
            let ns = namespace_program(program, &tenant.name);
            let utility = ns
                .optimize
                .as_ref()
                .and_then(|opt| evaluate_utility(opt, &layout.symbol_values));
            let prefix = format!("{}::", tenant.name);
            let symbol_values = layout
                .symbol_values
                .iter()
                .filter_map(|(k, v)| k.strip_prefix(&prefix).map(|l| (l.to_string(), *v)))
                .collect();
            TenantReport {
                name: tenant.name.clone(),
                weight: tenant.weight,
                utility,
                symbol_values,
            }
        })
        .collect()
}

/// Verify a joint layout: the merged program's full layout check
/// ([`verify_layout`]) plus every tenant's `assume`s independently, so a
/// violation is attributed to the tenant whose contract broke.
pub fn verify_joint(
    joint: &JointSource,
    layout: &Layout,
    target: &TargetSpec,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    if let Err(mut v) = verify_layout(&joint.merged, layout, target) {
        violations.append(&mut v);
    }
    for (tenant, program) in &joint.tenants {
        let ns = namespace_program(program, &tenant.name);
        if let Err(v) = assumes_hold(&ns, &layout.symbol_values) {
            violations
                .extend(v.into_iter().map(|m| format!("tenant `{}`: {m}", tenant.name)));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CompileOptions;
    use crate::verify::ilp_dominates_greedy;
    use p4all_pisa::presets;

    const CMS: &str = r#"
        symbolic int rows;
        symbolic int cols;
        assume rows >= 1 && rows <= 4;
        assume cols >= 4;
        optimize rows * cols;
        header h { bit<32> key; }
        struct metadata { bit<32>[rows] index; }
        register<bit<32>>[cols][rows] cms;
        action bump()[int i] {
            meta.index[i] = hash(hdr.key, cols);
            cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
        }
        control Main() { apply { for (i < rows) { bump()[i]; } } }
    "#;

    fn tp(name: &str, weight: f64, src: &str) -> TenantProgram {
        TenantProgram::new(Tenant::new(name, weight).unwrap(), src)
    }

    #[test]
    fn two_tenant_joint_compile_splits_utility() {
        let mut ctx = CompileCtx::new(CompileOptions::default());
        let target = presets::paper_eval(1 << 14);
        let jc = ctx
            .compile_joint(&[tp("cache", 2.0, CMS), tp("tele", 1.0, CMS)], &target)
            .unwrap();

        // Per-tenant reports: merge order, local names, evaluable utility.
        assert_eq!(jc.tenants.len(), 2);
        assert_eq!(jc.tenants[0].name, "cache");
        assert!(jc.tenants[0].symbol_values.contains_key("rows"));
        let u0 = jc.tenants[0].utility.expect("cache utility evaluates");
        let u1 = jc.tenants[1].utility.expect("tele utility evaluates");
        assert!(u0 >= 4.0 && u1 >= 4.0, "both tenants get a live structure");

        // The weighted sum is the ILP objective.
        assert!(
            (jc.weighted_utility() - jc.compilation.layout.objective).abs() < 1e-6,
            "weighted utility {} vs objective {}",
            jc.weighted_utility(),
            jc.compilation.layout.objective
        );

        // The higher-weight tenant gets at least as much utility.
        assert!(u0 >= u1, "weight-2 tenant got {u0}, weight-1 tenant {u1}");

        // The merged layout verifies against every tenant's assumes.
        verify_joint(&jc.joint, &jc.compilation.layout, &target).unwrap();
    }

    #[test]
    fn joint_compile_matches_single_compile_at_n1() {
        // One weight-1 tenant must land on the same objective as the
        // plain single-program path (names differ; the optimum does not).
        let target = presets::paper_example();
        let mut ctx = CompileCtx::new(CompileOptions::default());
        let single = ctx.compile(CMS, &target).unwrap();
        let mut ctx2 = CompileCtx::new(CompileOptions::default());
        let joint = ctx2.compile_joint(&[tp("solo", 1.0, CMS)], &target).unwrap();
        assert!(
            (single.layout.objective - joint.compilation.layout.objective).abs() < 1e-6,
            "single {} vs joint {}",
            single.layout.objective,
            joint.compilation.layout.objective
        );
        assert_eq!(joint.tenants[0].symbol_values.len(), single.layout.symbol_values.len());
    }

    #[test]
    fn joint_greedy_respects_weight_order_and_is_dominated() {
        // The merged program's declaration order IS descending-weight
        // order, so the greedy first-fit baseline allocates high-weight
        // tenants first — and the exact ILP still dominates it.
        let target = presets::paper_eval(1 << 13);
        let joint =
            merge_tenants(&[tp("light", 1.0, CMS), tp("heavy", 3.0, CMS)]).unwrap();
        assert_eq!(joint.tenants[0].0.name, "heavy");
        assert!(joint.merged.symbolics[0].name.starts_with("heavy::"));

        let mut ctx = CompileCtx::new(CompileOptions::default());
        let c = ctx.compile(&joint.src, &target).unwrap();
        let (greedy, _trace) = ctx.compile_greedy(&joint.src, &target).unwrap();
        let gap = ilp_dominates_greedy(&joint.merged, &c.layout, &greedy).unwrap();
        assert!(gap.is_some(), "joint utility must evaluate on both layouts");
    }

    #[test]
    fn tenant_source_errors_name_the_tenant() {
        let mut ctx = CompileCtx::new(CompileOptions::default());
        let err = ctx
            .compile_joint(
                &[tp("ok", 1.0, CMS), tp("broken", 1.0, "symbolic int x; assume x >= oops;")],
                &presets::paper_example(),
            )
            .err()
            .expect("a broken tenant must fail the joint compile");
        let d = err.diagnostic().expect("source error carries a diagnostic");
        let text = format!("{d:?}");
        assert!(text.contains("broken"), "diagnostic must name the tenant: {text}");
    }

    #[test]
    fn merge_tenants_rejects_empty_and_duplicates() {
        assert!(merge_tenants(&[]).is_err());
        let err = merge_tenants(&[tp("x", 1.0, CMS), tp("x", 2.0, CMS)]);
        assert!(err.is_err());
    }
}
