//! The four-way differential oracle.
//!
//! Each [`FuzzCase`] is pushed through three independent closed loops:
//!
//! 0. **Round-trip** — the printed source must parse back to the exact
//!    AST the generator built (modulo spans).
//! 1. **ILP** — compile under the exact solver; a feasible answer must
//!    survive [`p4all_core::verify_layout`], dominate the greedy
//!    allocator on the program's own utility, and agree on the objective
//!    with the solver's two reference configurations (all LPs cold; cut
//!    engine off). An infeasible answer must be corroborated: greedy may
//!    not find a valid layout, and both reference configurations must
//!    agree.
//! 2. **Simulation** — a random trace replays through the reference
//!    interpreter, the bytecode backend, and (when `rustc` is
//!    available) the native-codegen backend in lockstep (per-packet PHV
//!    and fault equivalence, final register equality), then through
//!    `run_trace` at 1 shard (interp), 4 shards (bytecode delta-sum
//!    merge), and 1 shard again on the native engine, all of which must
//!    reproduce the lockstep register state and drop count. Before the
//!    trace, every install contract of the program is tried once at its
//!    limit: each engine must refuse it with the same typed error and
//!    keep its table as it was.
//!
//! Native divergences carry `native-diverge-*` kinds so shrunk corpus
//! cases are attributable at a glance; [`OracleOptions::native`] is the
//! `--no-native` escape hatch, and a missing `rustc` downgrades the
//! oracle to three-way silently per case (the fuzzgen binary logs the
//! reason once at startup).
//!
//! Every phase runs under `catch_unwind`, so a compiler or simulator
//! panic is itself a reportable divergence, not a harness crash.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use p4all_core::{
    merge_tenants, verify_joint, verify_layout, CompileCtx, CompileError, CompileOptions,
    Compiler, TenantProgram,
};
use p4all_ilp::SolveStatus;
use p4all_lang::ast::Program;
use p4all_lang::Tenant;
use p4all_pisa::TargetSpec;
use p4all_sim::{Backend, SimError, Switch};

use crate::gen::{gen_trace, EntrySpec, FuzzCase, JointFuzzCase};

/// Solver budget and scope knobs for one oracle run.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Branch-and-bound node cap per solve; hitting it is a skip, not a
    /// divergence.
    pub node_limit: usize,
    /// Wall-clock cap per solve.
    pub time_limit: Duration,
    /// Run the warm/cold and cuts-on/off solver cross-checks (on for
    /// fuzzing; the shrinker keeps them on so the bug class is preserved).
    pub cross_checks: bool,
    /// Include the native-codegen backend in the sim phase (the
    /// `--no-native` escape hatch turns this off). Ignored when `rustc`
    /// is unavailable at runtime: the case silently runs three-way.
    pub native: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            node_limit: 20_000,
            time_limit: Duration::from_secs(10),
            cross_checks: true,
            native: true,
        }
    }
}

/// A reference solver configuration the baseline verdict (default
/// options) is re-checked under, and the divergence kinds a disagreement
/// is filed as. The one table behind the cross-check loops and the
/// cross-check entries of [`KNOWN_KINDS`].
struct CrossCheck {
    warm_lp: bool,
    /// The whole cut-and-branch engine (cut separation and pseudocost
    /// branching); off is plain branch-and-bound.
    cuts: bool,
    /// Both proved `Optimal`, at different objectives.
    objective_kind: &'static str,
    /// One side found a layout, the other proved none exists or failed.
    status_kind: &'static str,
}

const CROSS_CHECKS: &[CrossCheck] = &[
    CrossCheck {
        warm_lp: false,
        cuts: true,
        objective_kind: "warm-cold-objective",
        status_kind: "warm-cold-status",
    },
    CrossCheck {
        warm_lp: true,
        cuts: false,
        objective_kind: "cuts-off-objective",
        status_kind: "cuts-off-status",
    },
];

/// The divergence kinds the oracle names by literal.
const LITERAL_KINDS: &[&str] = &[
    "roundtrip-parse",
    "roundtrip-ast",
    "compile-panic",
    "compile-reject",
    "compile-unknown",
    "internal-error",
    "solver-numerical",
    "layout-invalid",
    "greedy-panic",
    "greedy-layout-invalid",
    "greedy-beats-ilp",
    "infeasible-vs-greedy",
    "sim-build",
    "sim-panic",
    "sim-status",
    "sim-phv",
    "sim-registers",
    "sim-replay1",
    "sim-sharded",
    "sim-batched",
    "sim-contract",
    "native-diverge-build",
    "native-diverge-status",
    "native-diverge-phv",
    "native-diverge-registers",
    "native-diverge-replay",
    "joint-merge",
    "joint-compile-panic",
    "joint-compile-reject",
    "joint-verify",
    "joint-utility",
];

/// Every divergence kind the oracle can currently emit: the literal ones
/// and the two of each solver cross-check (`CROSS_CHECKS`). Corpus
/// loading validates `.meta` kinds against this list so a renamed or
/// retired check fails loudly, naming the stale file, instead of silently
/// replaying under a dead class.
pub const KNOWN_KINDS: &[&str] = &{
    let mut kinds = [""; LITERAL_KINDS.len() + 2 * CROSS_CHECKS.len()];
    let mut i = 0;
    while i < LITERAL_KINDS.len() {
        kinds[i] = LITERAL_KINDS[i];
        i += 1;
    }
    let mut c = 0;
    while c < CROSS_CHECKS.len() {
        kinds[i] = CROSS_CHECKS[c].objective_kind;
        kinds[i + 1] = CROSS_CHECKS[c].status_kind;
        i += 2;
        c += 1;
    }
    kinds
};

/// One observed disagreement between two things that must agree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Stable machine-readable class (`sim-registers`,
    /// `greedy-beats-ilp`, ...) — the shrinker's interestingness key and
    /// the corpus file prefix.
    pub kind: String,
    pub detail: String,
}

impl Divergence {
    fn new(kind: &str, detail: impl Into<String>) -> Divergence {
        Divergence { kind: kind.into(), detail: detail.into() }
    }

    /// Same bug class? Kind equality, plus a digit-insensitive first-line
    /// match for kinds whose detail *is* the identity (panic messages,
    /// rejection diagnostics) — line numbers and generated names shift
    /// while shrinking, so digits are ignored.
    pub fn same_bug(&self, other: &Divergence) -> bool {
        if self.kind != other.kind {
            return false;
        }
        match self.kind.as_str() {
            "compile-reject" | "internal-error" | "compile-panic" | "greedy-panic"
            | "sim-panic" | "solver-numerical" => {
                digit_free_first_line(&self.detail) == digit_free_first_line(&other.detail)
            }
            _ => true,
        }
    }
}

fn digit_free_first_line(s: &str) -> String {
    s.lines().next().unwrap_or("").chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// Result of one oracle run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// All three loops closed. `feasible` records which ILP branch ran.
    Clean { feasible: bool },
    /// The solver hit its node/time budget — no verdict either way.
    Skipped { reason: String },
    Divergence(Divergence),
}

impl Outcome {
    pub fn divergence(&self) -> Option<&Divergence> {
        match self {
            Outcome::Divergence(d) => Some(d),
            _ => None,
        }
    }
}

fn make_compiler(target: &TargetSpec, warm_lp: bool, cuts: bool, opts: &OracleOptions) -> Compiler {
    let mut o = CompileOptions::default();
    o.solver.node_limit = opts.node_limit;
    o.solver.time_limit = Some(opts.time_limit);
    o.solver.warm_lp = warm_lp;
    o.solver.cuts = cuts;
    // Infeasibility explanations (IIS probing) cost extra solves the
    // oracle does not read; the *status* is the oracle's input.
    o.explain_infeasible = false;
    Compiler::with_options(target.clone(), o)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Relative objective agreement: exact solvers on the same model must
/// land on the same optimum.
fn objectives_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Run the full oracle on one case.
pub fn run_case(case: &FuzzCase, opts: &OracleOptions) -> Outcome {
    let src = case.source();

    // Phase 0: print -> parse round trip.
    let parsed = match p4all_lang::parse(&src) {
        Ok(p) => p,
        Err(e) => {
            return Outcome::Divergence(Divergence::new(
                "roundtrip-parse",
                format!("{}\nsource:\n{src}", e.render(&src)),
            ))
        }
    };
    if parsed.strip_spans() != case.program.strip_spans() {
        return Outcome::Divergence(Divergence::new(
            "roundtrip-ast",
            format!("parse(print(p)) != p for seed {}\nsource:\n{src}", case.seed),
        ));
    }

    // Phase 1: the exact solver, verified and cross-checked.
    let target = case.target.to_spec();
    let compiler = make_compiler(&target, true, true, opts);
    let res = match catch_unwind(AssertUnwindSafe(|| compiler.compile(&src))) {
        Ok(r) => r,
        Err(p) => {
            return Outcome::Divergence(Divergence::new(
                "compile-panic",
                format!("{}\nsource:\n{src}", panic_message(p)),
            ))
        }
    };

    match res {
        Ok(c) => {
            if let Err(violations) = verify_layout(&parsed, &c.layout, &target) {
                return Outcome::Divergence(Divergence::new(
                    "layout-invalid",
                    violations.join("\n"),
                ));
            }
            match catch_unwind(AssertUnwindSafe(|| compiler.compile_greedy(&src))) {
                Err(p) => {
                    return Outcome::Divergence(Divergence::new(
                        "greedy-panic",
                        panic_message(p),
                    ))
                }
                Ok(Ok(g)) => {
                    if let Err(violations) = verify_layout(&parsed, &g, &target) {
                        return Outcome::Divergence(Divergence::new(
                            "greedy-layout-invalid",
                            violations.join("\n"),
                        ));
                    }
                    if let Err(msg) = p4all_core::ilp_dominates_greedy(&parsed, &c.layout, &g) {
                        return Outcome::Divergence(Divergence::new("greedy-beats-ilp", msg));
                    }
                }
                // Greedy is an incomplete heuristic: failing where the
                // exact solver succeeds is its documented weakness.
                Ok(Err(_)) => {}
            }

            if opts.cross_checks && c.solve_stats.status == SolveStatus::Optimal {
                for check in CROSS_CHECKS {
                    if let Some(d) = cross_check(&src, &target, opts, check, c.layout.objective) {
                        return Outcome::Divergence(d);
                    }
                }
            }

            // Phase 2: differential simulation.
            if let Err(d) = sim_phase(case, &c.concrete, &parsed, opts) {
                return Outcome::Divergence(d);
            }
            Outcome::Clean { feasible: true }
        }
        Err(CompileError::Infeasible(_)) => {
            // Corroborate: greedy must not find a *valid* layout, and
            // other solver configurations must agree on infeasibility.
            match catch_unwind(AssertUnwindSafe(|| compiler.compile_greedy(&src))) {
                Err(p) => {
                    return Outcome::Divergence(Divergence::new(
                        "greedy-panic",
                        panic_message(p),
                    ))
                }
                Ok(Ok(g)) => {
                    return Outcome::Divergence(match verify_layout(&parsed, &g, &target) {
                        Ok(()) => Divergence::new(
                            "infeasible-vs-greedy",
                            format!(
                                "exact solver says infeasible but greedy found a valid layout: {:?}",
                                g.symbol_values
                            ),
                        ),
                        Err(violations) => {
                            Divergence::new("greedy-layout-invalid", violations.join("\n"))
                        }
                    });
                }
                Ok(Err(_)) => {}
            }
            if opts.cross_checks {
                for check in CROSS_CHECKS {
                    if let Some(d) = cross_check_infeasible(&src, &target, opts, check) {
                        return Outcome::Divergence(d);
                    }
                }
            }
            Outcome::Clean { feasible: false }
        }
        Err(CompileError::SolverLimit(m)) => Outcome::Skipped { reason: m },
        Err(CompileError::Source(d)) => Outcome::Divergence(Divergence::new(
            "compile-reject",
            format!("{d}\n{}", d.render(&src, "<fuzzgen>")),
        )),
        Err(CompileError::Internal(d)) => Outcome::Divergence(Divergence::new(
            "internal-error",
            format!("{d}\n{}", d.render(&src, "<fuzzgen>")),
        )),
        Err(CompileError::SolverNumerical(m)) => {
            Outcome::Divergence(Divergence::new("solver-numerical", m))
        }
        Err(other) => {
            Outcome::Divergence(Divergence::new("compile-unknown", other.to_string()))
        }
    }
}

fn tenant_programs(case: &JointFuzzCase) -> Vec<TenantProgram> {
    case.tenants
        .iter()
        .map(|(name, weight, sub)| {
            TenantProgram::new(
                Tenant::new(name, *weight).expect("generated tenant names are valid idents"),
                sub.source(),
            )
        })
        .collect()
}

/// Lower a joint case to an ordinary [`FuzzCase`] over the *merged*
/// program: control-plane entries are re-addressed to each tenant's
/// namespaced table, action, and action-data names. The merged program
/// is a plain [`Program`], so the result shrinks and replays through the
/// whole single-program machinery (and its corpus format) unchanged.
pub fn merged_case(case: &JointFuzzCase) -> Result<FuzzCase, Divergence> {
    let joint = merge_tenants(&tenant_programs(case)).map_err(|e| {
        Divergence::new("joint-merge", format!("merge of generated tenants failed: {e}"))
    })?;
    let entries = case
        .tenants
        .iter()
        .flat_map(|(name, _, sub)| {
            sub.entries.iter().map(move |e| EntrySpec {
                table: format!("{name}::{}", e.table),
                key: e.key,
                action: format!("{name}::{}", e.action),
                data: e.data.iter().map(|(n, v)| (format!("{name}::{n}"), *v)).collect(),
            })
        })
        .collect();
    Ok(FuzzCase {
        seed: case.seed,
        program: joint.merged,
        target: case.target,
        entries,
        trace_seed: case.trace_seed,
        trace_len: case.trace_len,
    })
}

/// Run the joint-compilation oracle on one multi-tenant case.
///
/// Joint-specific invariants come first: `compile_joint` must not panic
/// or reject well-formed tenants, its layout must pass
/// [`p4all_core::verify_joint`] (every tenant's assumes independently),
/// and the per-tenant utility split must re-sum to the ILP objective.
/// The case is then lowered via [`merged_case`] and pushed through the
/// full single-program oracle — round trip, exact-vs-greedy ILP with
/// cross-checks, and the four-way lockstep/sharded replay — so every
/// existing divergence class also guards the joint path.
pub fn run_joint_case(case: &JointFuzzCase, opts: &OracleOptions) -> Outcome {
    let merged = match merged_case(case) {
        Ok(m) => m,
        Err(d) => return Outcome::Divergence(d),
    };
    let target = case.target.to_spec();
    let mut o = CompileOptions::default();
    o.solver.node_limit = opts.node_limit;
    o.solver.time_limit = Some(opts.time_limit);
    o.explain_infeasible = false;

    let tenants = tenant_programs(case);
    let res = catch_unwind(AssertUnwindSafe(|| {
        CompileCtx::new(o).compile_joint(&tenants, &target)
    }));
    match res {
        Err(p) => {
            return Outcome::Divergence(Divergence::new("joint-compile-panic", panic_message(p)))
        }
        Ok(Ok(jc)) => {
            if let Err(violations) = verify_joint(&jc.joint, &jc.compilation.layout, &target) {
                return Outcome::Divergence(Divergence::new(
                    "joint-verify",
                    violations.join("\n"),
                ));
            }
            // When every tenant that declares an `optimize` got an
            // evaluable utility, the weighted split must re-sum to the
            // joint objective.
            let all_eval = jc
                .joint
                .tenants
                .iter()
                .zip(&jc.tenants)
                .all(|((_, p), r)| p.optimize.is_none() || r.utility.is_some());
            if jc.joint.merged.optimize.is_some()
                && all_eval
                && !objectives_agree(jc.weighted_utility(), jc.compilation.layout.objective)
            {
                return Outcome::Divergence(Divergence::new(
                    "joint-utility",
                    format!(
                        "per-tenant split sums to {} but the joint objective is {}",
                        jc.weighted_utility(),
                        jc.compilation.layout.objective
                    ),
                ));
            }
        }
        // Infeasibility is corroborated by the merged-case delegation
        // below (greedy must fail too; cross-checks must agree).
        Ok(Err(CompileError::Infeasible(_))) => {}
        Ok(Err(CompileError::SolverLimit(m))) => return Outcome::Skipped { reason: m },
        Ok(Err(e)) => {
            // Generated tenants are well-formed by construction, so any
            // rejection is a namespacing or merge bug, not a bad input.
            return Outcome::Divergence(Divergence::new("joint-compile-reject", e.to_string()));
        }
    }

    run_case(&merged, opts)
}

/// Re-solve with a different solver configuration; an `Optimal` answer
/// must match the baseline objective, and no configuration may flip to
/// infeasible.
fn cross_check(
    src: &str,
    target: &TargetSpec,
    opts: &OracleOptions,
    check: &CrossCheck,
    baseline_objective: f64,
) -> Option<Divergence> {
    let CrossCheck { warm_lp, cuts, objective_kind, status_kind } = *check;
    let compiler = make_compiler(target, warm_lp, cuts, opts);
    match catch_unwind(AssertUnwindSafe(|| compiler.compile(src))) {
        Err(p) => Some(Divergence::new("compile-panic", panic_message(p))),
        Ok(Ok(c2)) => {
            if c2.solve_stats.status == SolveStatus::Optimal
                && !objectives_agree(baseline_objective, c2.layout.objective)
            {
                Some(Divergence::new(
                    objective_kind,
                    format!(
                        "baseline objective {baseline_objective} vs {} under warm_lp={warm_lp} cuts={cuts}",
                        c2.layout.objective
                    ),
                ))
            } else {
                None
            }
        }
        Ok(Err(CompileError::SolverLimit(_))) => None,
        Ok(Err(e)) => Some(Divergence::new(
            status_kind,
            format!("baseline feasible but warm_lp={warm_lp} cuts={cuts} failed: {e}"),
        )),
    }
}

/// The infeasible mirror of [`cross_check`]: no configuration may find a
/// layout where the baseline proved none exists.
fn cross_check_infeasible(
    src: &str,
    target: &TargetSpec,
    opts: &OracleOptions,
    check: &CrossCheck,
) -> Option<Divergence> {
    let CrossCheck { warm_lp, cuts, status_kind, .. } = *check;
    let compiler = make_compiler(target, warm_lp, cuts, opts);
    match catch_unwind(AssertUnwindSafe(|| compiler.compile(src))) {
        Err(p) => Some(Divergence::new("compile-panic", panic_message(p))),
        Ok(Ok(c2)) => Some(Divergence::new(
            status_kind,
            format!(
                "baseline infeasible but warm_lp={warm_lp} cuts={cuts} found objective {}",
                c2.layout.objective
            ),
        )),
        Ok(Err(CompileError::Infeasible(_))) | Ok(Err(CompileError::SolverLimit(_))) => None,
        Ok(Err(e)) => Some(Divergence::new(
            status_kind,
            format!("baseline infeasible but warm_lp={warm_lp} cuts={cuts} errored differently: {e}"),
        )),
    }
}

/// The header-assignment plan for a program: field `i` (in declaration
/// order) reads trace column `i % 4`. A single-program case declares
/// exactly the generator's four fields, reproducing the classic
/// `[key, val, d, aux]` mapping; each tenant block of a merged program
/// declares the same four (namespaced) fields in order, so every
/// co-tenant replays the same trace row through its own header.
fn header_plan(parsed: &Program) -> Vec<(String, usize)> {
    parsed
        .headers
        .iter()
        .flat_map(|h| h.fields.iter())
        .enumerate()
        .map(|(i, (name, _))| (name.clone(), i % 4))
        .collect()
}

fn step(sw: &mut Switch, plan: &[(String, usize)], pkt: &[u64; 4]) -> Result<(), SimError> {
    sw.begin_packet();
    for (name, col) in plan {
        sw.set_header(name, pkt[*col]).expect("program header fields always exist");
    }
    sw.run_packet()
}

/// For every install contract (`Switch::install_contracts`), one install
/// at the contract's limit into the program's first table: every engine
/// must refuse it with the same `DataOutOfRange` and leave the table's
/// length as it was. A program without a table has no install to try.
fn contract_lane(parsed: &Program, engines: &mut [&mut Switch]) -> Result<(), Divergence> {
    let Some((table, action)) = parsed.tables.first().and_then(|t| Some((t, t.actions.first()?)))
    else {
        return Ok(());
    };
    let contracts: Vec<(String, u64)> =
        engines[0].install_contracts().map(|(f, limit)| (f.to_string(), limit)).collect();
    for (field, limit) in &contracts {
        let mut refusal: Option<SimError> = None;
        for sw in engines.iter_mut() {
            let before = sw.table_len(&table.name);
            let key = vec![u64::MAX; table.keys.len()];
            let got = sw.install_entry(&table.name, key, action, &[(field, *limit)]);
            let detail = format!("install of {field} = {limit} on {:?}: {got:?}", sw.backend());
            match got {
                Err(e @ SimError::DataOutOfRange { .. }) if sw.table_len(&table.name) == before => {
                    if refusal.get_or_insert_with(|| e.clone()) != &e {
                        let detail = format!("{detail}, not {refusal:?}");
                        return Err(Divergence::new("sim-contract", detail));
                    }
                }
                _ => return Err(Divergence::new("sim-contract", detail)),
            }
        }
    }
    Ok(())
}

/// Phase 2: lockstep interp-vs-bytecode-vs-native replay, then
/// whole-trace replay at 1 shard (interp), 4 shards (bytecode,
/// delta-sum merge), and 1 shard on the native engine.
fn sim_phase(
    case: &FuzzCase,
    concrete: &p4all_core::ConcreteProgram,
    parsed: &Program,
    opts: &OracleOptions,
) -> Result<(), Divergence> {
    let run = catch_unwind(AssertUnwindSafe(|| sim_phase_inner(case, concrete, parsed, opts)));
    match run {
        Ok(r) => r,
        Err(p) => Err(Divergence::new("sim-panic", panic_message(p))),
    }
}

fn sim_phase_inner(
    case: &FuzzCase,
    concrete: &p4all_core::ConcreteProgram,
    parsed: &Program,
    opts: &OracleOptions,
) -> Result<(), Divergence> {
    let build = |backend: Backend| -> Result<Switch, Divergence> {
        let mut sw = Switch::build(concrete, parsed)
            .map_err(|e| Divergence::new("sim-build", e.to_string()))?;
        sw.set_backend(backend);
        for e in &case.entries {
            let data: Vec<(&str, u64)> = e.data.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            sw.install_entry(&e.table, vec![e.key], &e.action, &data)
                .map_err(|err| Divergence::new("sim-build", err.to_string()))?;
        }
        Ok(sw)
    };
    let mut interp = build(Backend::Interp)?;
    let mut fast = build(Backend::Compiled)?;
    // The fourth way: generated Rust compiled by the in-container rustc.
    // A missing rustc downgrades to three-way (the binary logs why once);
    // any other preparation failure is a codegen bug and diverges.
    let mut native = if opts.native && p4all_sim::rustc_available() {
        let mut sw = build(Backend::Native)?;
        match sw.prepare_native() {
            Ok(_) => Some(sw),
            Err(p4all_sim::NativeError::RustcMissing(_)) => None,
            Err(e) => return Err(Divergence::new("native-diverge-build", e.to_string())),
        }
    } else {
        None
    };

    let mut engines: Vec<&mut Switch> = vec![&mut interp, &mut fast];
    engines.extend(native.as_mut());
    contract_lane(parsed, &mut engines)?;

    let plan = header_plan(parsed);
    let trace = gen_trace(case.trace_seed, case.trace_len);
    let mut dropped = 0u64;
    for (i, pkt) in trace.iter().enumerate() {
        let ri = step(&mut interp, &plan, pkt);
        let rf = step(&mut fast, &plan, pkt);
        if ri != rf {
            return Err(Divergence::new(
                "sim-status",
                format!("packet {i} {pkt:?}: interp {ri:?} vs compiled {rf:?}"),
            ));
        }
        if ri.is_ok() {
            if interp.phv_snapshot() != fast.phv_snapshot() {
                return Err(Divergence::new(
                    "sim-phv",
                    format!(
                        "packet {i} {pkt:?}: PHV diverges\ninterp:   {:?}\ncompiled: {:?}",
                        interp.phv_snapshot(),
                        fast.phv_snapshot()
                    ),
                ));
            }
        } else {
            dropped += 1;
        }
        if let Some(nat) = native.as_mut() {
            let rn = step(nat, &plan, pkt);
            if rn != ri {
                return Err(Divergence::new(
                    "native-diverge-status",
                    format!("packet {i} {pkt:?}: interp {ri:?} vs native {rn:?}"),
                ));
            }
            if ri.is_ok() && nat.phv_snapshot() != interp.phv_snapshot() {
                return Err(Divergence::new(
                    "native-diverge-phv",
                    format!(
                        "packet {i} {pkt:?}: PHV diverges\ninterp: {:?}\nnative: {:?}",
                        interp.phv_snapshot(),
                        nat.phv_snapshot()
                    ),
                ));
            }
        }
    }
    let baseline = interp.registers_snapshot();
    if baseline != fast.registers_snapshot() {
        return Err(Divergence::new(
            "sim-registers",
            format!(
                "final registers diverge\ninterp:   {:?}\ncompiled: {:?}",
                baseline,
                fast.registers_snapshot()
            ),
        ));
    }

    if let Some(nat) = &native {
        if nat.registers_snapshot() != baseline {
            return Err(Divergence::new(
                "native-diverge-registers",
                format!(
                    "final registers diverge\ninterp: {:?}\nnative: {:?}",
                    baseline,
                    nat.registers_snapshot()
                ),
            ));
        }
    }

    // Whole-trace replay must reproduce the lockstep result: 1 shard on
    // the interpreter, 4 shards (flow-hash partitioning + delta-sum
    // register merge) on the bytecode engine, SoA batch mode (width 64)
    // on the bytecode engine, and 1 shard again on the native engine
    // (threads > 1 always runs bytecode, so 1 shard is the native replay
    // path). The batched pass reuses the compiled switch after the sharded
    // pass, so it cannot live in the same borrow list.
    let run_replay = |label: &str,
                      sw: &mut Switch,
                      threads: usize|
     -> Result<(), Divergence> {
        let pkts: Result<Vec<_>, _> = trace
            .iter()
            .map(|pkt| {
                let assigns: Vec<(&str, u64)> =
                    plan.iter().map(|(name, col)| (name.as_str(), pkt[*col])).collect();
                sw.make_packet(&assigns)
            })
            .collect();
        let pkts = pkts.map_err(|e| Divergence::new("sim-build", e.to_string()))?;
        sw.reset();
        let stats = sw.run_trace(&pkts, threads);
        if stats.dropped != dropped {
            return Err(Divergence::new(
                label,
                format!(
                    "{threads}-shard replay dropped {} packets, lockstep dropped {dropped}",
                    stats.dropped
                ),
            ));
        }
        if sw.registers_snapshot() != baseline {
            return Err(Divergence::new(
                label,
                format!(
                    "{threads}-shard replay registers diverge from lockstep\nreplay:   {:?}\nlockstep: {:?}",
                    sw.registers_snapshot(),
                    baseline
                ),
            ));
        }
        Ok(())
    };
    run_replay("sim-replay1", &mut interp, 1)?;
    run_replay("sim-sharded", &mut fast, 4)?;
    // Batched replay must reproduce the lockstep result on every program.
    fast.set_batch_width(64);
    let batched = run_replay("sim-batched", &mut fast, 1);
    fast.set_batch_width(0);
    batched?;
    if let Some(nat) = native.as_mut() {
        run_replay("native-diverge-replay", nat, 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bug_compares_kinds_and_digitless_details() {
        let a = Divergence::new("sim-registers", "whatever 1");
        let b = Divergence::new("sim-registers", "entirely different");
        assert!(a.same_bug(&b));
        let c = Divergence::new("sim-phv", "whatever 1");
        assert!(!a.same_bug(&c));
        let p1 = Divergence::new("compile-panic", "index out of bounds: 12 > 4");
        let p2 = Divergence::new("compile-panic", "index out of bounds: 3 > 2");
        let p3 = Divergence::new("compile-panic", "attempt to divide by zero");
        assert!(p1.same_bug(&p2));
        assert!(!p1.same_bug(&p3));
    }

    /// A kind the oracle emits but `KNOWN_KINDS` lacks would make
    /// `corpus::load_dir` reject the first witness saved under it.
    #[test]
    fn every_kind_the_oracle_emits_is_a_known_kind() {
        for kind in ["warm-cold-objective", "warm-cold-status", "cuts-off-objective", "cuts-off-status"] {
            assert!(KNOWN_KINDS.contains(&kind), "{kind} witnesses would not load");
        }
        assert!(!KNOWN_KINDS.iter().any(|k| k.starts_with("threads-")), "retired with the search");
        // Every kind named by literal where a divergence is constructed.
        let source = include_str!("oracle.rs");
        let (code, _tests) = source.split_once("#[cfg(test)]").expect("this module");
        let mut literals = 0;
        for after in code.split(concat!("Divergence::", "new(")).skip(1) {
            if let Some(kind) = after.trim_start().strip_prefix('"').and_then(|r| r.split('"').next()) {
                assert!(KNOWN_KINDS.contains(&kind), "`{kind}` is emitted but not in KNOWN_KINDS");
                literals += 1;
            }
        }
        assert!(literals >= 20, "the scan found only {literals} literal kinds");
        for (i, kind) in KNOWN_KINDS.iter().enumerate() {
            assert!(!KNOWN_KINDS[..i].contains(kind), "{kind} listed twice");
        }
    }

    #[test]
    fn objective_tolerance_is_relative() {
        assert!(objectives_agree(1e7, 1e7 + 1.0));
        assert!(!objectives_agree(64.0, 65.0));
    }

    #[test]
    fn merged_case_namespaces_entries() {
        let case = crate::gen::generate_joint(2, 8);
        let merged = merged_case(&case).expect("generated tenants merge");
        for e in &merged.entries {
            assert!(e.table.contains("::"), "table not namespaced: {}", e.table);
            assert!(e.action.contains("::"), "action not namespaced: {}", e.action);
            for (n, _) in &e.data {
                assert!(n.contains("::"), "action datum not namespaced: {n}");
            }
        }
        // Each tenant contributes the generator's four header fields, so
        // the merged header plan covers every trace column per tenant.
        let plan = header_plan(&merged.program);
        assert_eq!(plan.len(), 4 * case.tenants.len());
        assert!(plan.iter().all(|(n, _)| n.contains("::")));
    }

    #[test]
    fn joint_cases_run_clean() {
        // A cheap in-tree fuzz pass: a few seeds through the whole joint
        // oracle (cross-checks and the native backend are exercised by
        // the fuzzgen binary and CI, not per unit-test run).
        let opts =
            OracleOptions { cross_checks: false, native: false, ..OracleOptions::default() };
        for seed in 0..3u64 {
            let case = crate::gen::generate_joint(seed, 12);
            let out = run_joint_case(&case, &opts);
            assert!(
                !matches!(out, Outcome::Divergence(_)),
                "joint seed {seed} diverged: {out:?}"
            );
        }
    }
}
