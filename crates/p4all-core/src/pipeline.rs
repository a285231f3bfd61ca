//! The end-to-end compile driver (Figure 8 of the paper).
//!
//! `P4All program + target spec  →  parse → elaborate → upper bounds →
//! unroll → dependency graph → ILP encode → solve → layout → concrete P4`.
//!
//! Each stage runs as a named pass through [`CompileCtx`] (see
//! [`crate::passes`]), producing a [`CompileTrace`] alongside the
//! [`Compilation`]. Failures are typed [`CompileError`]s carrying
//! span-annotated [`Diagnostic`]s; an infeasible ILP is explained by a
//! bounded IIS (see [`crate::explain`]) rather than reported bare.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use p4all_ilp::{IisOptions, ModelStats, SolveOptions, SolveStatus, SolveTelemetry};
use p4all_lang::ast::Expr;
use p4all_lang::diag::{Diagnostic, Severity};
use p4all_lang::errors::LangError;
use p4all_pisa::TargetSpec;

use crate::bounds::DEFAULT_MAX_UNROLL;
use crate::codegen::{concretize, print_p4, ConcreteProgram};
use crate::explain::{explain_infeasible, Infeasibility};
use crate::ilpgen::encode;
use crate::passes::{CompileCtx, CompileTrace};
use crate::solution::{extract, Layout};

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Hard cap on per-loop unrolling (see [`crate::bounds`]).
    pub max_unroll: usize,
    /// MIP solver knobs.
    pub solver: SolveOptions,
    /// Explain infeasible programs with a bounded IIS (deletion filter)
    /// instead of reporting bare infeasibility.
    pub explain_infeasible: bool,
    /// IIS probe budget. The driver additionally clamps the per-probe
    /// node limit to roughly `2 × original solve nodes / max_probes`, so
    /// the whole explanation costs at most about twice the failed solve.
    pub iis: IisOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        // Utilities reach 1e7 (memory bits); proving the last millionth of
        // the objective on a flat plateau is wasted work for a compiler.
        let solver = SolveOptions { rel_gap: 1e-6, ..SolveOptions::default() };
        CompileOptions {
            max_unroll: DEFAULT_MAX_UNROLL,
            solver,
            explain_infeasible: true,
            iis: IisOptions::default(),
        }
    }
}

impl CompileOptions {
    /// Does nothing: the solver has one search and no thread count. Kept
    /// only because the frozen benchmark driver calls it
    /// (`crates/bench/src/bin/e2e/compile.rs`, `options()` — its one
    /// caller in the repository); delete it with that call.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

/// Why a compilation failed.
///
/// Marked `#[non_exhaustive]`: future compiler versions may add failure
/// classes, so downstream matches need a wildcard arm. Each variant maps
/// to a stable process exit class (see [`CompileError::exit_class`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// The source program is invalid (lexing, parsing, elaboration,
    /// unrolling, or encoding rejected it). Carries the full
    /// span-annotated diagnostic.
    Source(Diagnostic),
    /// The ILP has no feasible layout on this target; carries the IIS
    /// explanation (conflicting rows, resources, symbolics, spans).
    Infeasible(Box<Infeasibility>),
    /// The solver failed numerically (singular basis, LP error).
    SolverNumerical(String),
    /// The solver stopped at a node/time limit without a definite answer.
    SolverLimit(String),
    /// A compiler invariant was violated — a bug in the compiler, never
    /// in the user's program.
    Internal(Diagnostic),
}

impl CompileError {
    /// The diagnostic form of this error, when it has one (`Source`,
    /// `Infeasible`, and `Internal` do).
    pub fn diagnostic(&self) -> Option<&Diagnostic> {
        match self {
            CompileError::Source(d) | CompileError::Internal(d) => Some(d),
            CompileError::Infeasible(x) => Some(&x.diagnostic),
            _ => None,
        }
    }

    /// Stable per-failure-class process exit code: `2` invalid source,
    /// `3` infeasible, `4` solver failure/limit, `5` internal error.
    /// (`0` is success and `1` a usage error, both owned by the CLI.)
    pub fn exit_class(&self) -> u8 {
        match self {
            CompileError::Source(_) => 2,
            CompileError::Infeasible(_) => 3,
            CompileError::SolverNumerical(_) | CompileError::SolverLimit(_) => 4,
            CompileError::Internal(_) => 5,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Source(d) => write!(f, "{d}"),
            CompileError::Infeasible(_) => {
                write!(f, "no layout satisfies the target constraints and assumes")
            }
            CompileError::SolverNumerical(m) => write!(f, "solver failure: {m}"),
            CompileError::SolverLimit(m) => write!(f, "solver failure: {m}"),
            CompileError::Internal(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<Diagnostic> for CompileError {
    fn from(d: Diagnostic) -> Self {
        if d.severity == Severity::Internal {
            CompileError::Internal(d)
        } else {
            CompileError::Source(d)
        }
    }
}

impl From<LangError> for CompileError {
    fn from(e: LangError) -> Self {
        CompileError::Source(e.into())
    }
}

/// Phase timings of one compilation (aggregated from the pass trace; the
/// full per-pass breakdown lives in [`Compilation::trace`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    pub parse: Duration,
    pub analysis: Duration,
    pub encode: Duration,
    pub solve: Duration,
    pub total: Duration,
}

/// MIP solve statistics surfaced in reports.
#[derive(Debug, Clone)]
pub struct SolveStats {
    pub status: SolveStatus,
    pub nodes: usize,
    pub lp_solves: usize,
    /// Full solve telemetry: LP work, cut counters, the root dive, the
    /// incumbent timeline, and the final optimality gap (the CLI's
    /// `--stats` solve summary renders this).
    pub telemetry: SolveTelemetry,
}

/// A successful compilation.
pub struct Compilation {
    /// The chosen layout (symbolic values, placements, memory).
    pub layout: Layout,
    /// Loop-free structured program (input to the simulator).
    pub concrete: ConcreteProgram,
    /// Generated P4 source text.
    pub p4_text: String,
    /// Computed unroll upper bounds per count symbolic.
    pub upper_bounds: BTreeMap<String, usize>,
    /// ILP size (the Fig. 11 `(vars, constraints)` column).
    pub ilp_stats: ModelStats,
    pub solve_stats: SolveStats,
    pub timings: Timings,
    /// Per-pass wall time, artifact sizes, and cache hits.
    pub trace: CompileTrace,
}

impl CompileCtx {
    /// Compile P4All source for `target`, reusing cached front-half
    /// artifacts when only the target's memory/PHV (or nothing) changed
    /// since the previous call.
    pub fn compile(
        &mut self,
        src: &str,
        target: &TargetSpec,
    ) -> Result<Compilation, CompileError> {
        let t_total = Instant::now();
        let mut trace = CompileTrace::default();
        let front = self.front(src, target, &mut trace)?;

        let t = Instant::now();
        let enc = encode(&front.info, &front.unrolled, &front.graph, target)?;
        let ilp_stats = enc.model.stats();
        trace.record(
            "encode",
            false,
            t.elapsed(),
            format!("{} vars, {} rows", ilp_stats.num_vars, ilp_stats.num_constraints),
        );

        let t = Instant::now();
        // Warm start: the greedy allocator's layout (when it succeeds and
        // is feasible for the encoding) seeds the incumbent, so the branch
        // and bound can prune from the first node. On a reused context
        // (e.g. a memory sweep) the previous solve's incumbent competes
        // with the greedy seed: whichever scores better on *this*
        // encoding's objective wins. Either candidate is re-validated
        // against the fresh model, so a stale incumbent from a different
        // program or a shrunken target is silently dropped.
        let mut solver_opts = self.options.solver.clone();
        let sgn = match enc.model.sense() {
            p4all_ilp::Sense::Maximize => 1.0,
            p4all_ilp::Sense::Minimize => -1.0,
        };
        let score = |v: &[f64]| -> Option<f64> {
            (v.len() == enc.model.num_vars() && enc.model.check_feasible(v, 1e-6).is_ok())
                .then(|| sgn * enc.model.objective_value(v))
        };
        let greedy_seed =
            crate::greedy::place_greedy(&front.info, &front.unrolled, &front.graph, target)
                .ok()
                .map(|gl| crate::ilpgen::warm_start_from_layout(&enc, &gl));
        let prev_seed = self.last_incumbent.as_deref();
        solver_opts.warm_start = match (prev_seed.and_then(score), &greedy_seed) {
            (Some(ps), Some(g)) if score(g).is_some_and(|gs| gs >= ps) => greedy_seed,
            (Some(_), _) => prev_seed.map(<[f64]>::to_vec),
            // No usable previous incumbent: keep the historical behavior
            // of handing the solver the greedy seed unconditionally (it
            // validates and drops infeasible seeds itself).
            (None, _) => greedy_seed,
        };
        let out = p4all_ilp::solve_with(&enc.model, &solver_opts)
            .map_err(|e| CompileError::SolverNumerical(e.to_string()))?;
        let solve_time = t.elapsed();
        trace.record(
            "solve",
            false,
            solve_time,
            format!("{:?}, {} nodes, {} LPs", out.status, out.nodes, out.lp_solves),
        );

        let sol = match (out.status, out.solution) {
            (SolveStatus::Optimal | SolveStatus::Feasible, Some(s)) => s,
            (SolveStatus::Infeasible, _) => {
                if !self.options.explain_infeasible {
                    return Err(CompileError::Infeasible(Box::new(Infeasibility {
                        diagnostic: Diagnostic::error(format!(
                            "program does not fit on target `{}`",
                            target.name
                        )),
                        rows: Vec::new(),
                        resources: Vec::new(),
                        symbolics: Vec::new(),
                        tenants: Vec::new(),
                        probes: 0,
                        minimal: false,
                    })));
                }
                let t = Instant::now();
                // Bound the whole filter to ~2x the failed solve: each of
                // the `max_probes` probes gets a slice of twice the node
                // budget the original search spent (floor 50 so root-LP
                // infeasibilities still resolve).
                let mut iis_opts = self.options.iis.clone();
                let per_probe =
                    (2 * out.nodes.max(1)).div_ceil(iis_opts.max_probes.max(1)).max(50);
                iis_opts.probe_node_limit = iis_opts.probe_node_limit.min(per_probe);
                let x = explain_infeasible(&enc, target, &iis_opts);
                trace.record(
                    "explain",
                    false,
                    t.elapsed(),
                    format!("{} core rows, {} probes", x.rows.len(), x.probes),
                );
                return Err(CompileError::Infeasible(Box::new(x)));
            }
            (status, _) => {
                return Err(CompileError::SolverLimit(format!(
                    "solver ended with status {status:?} and no solution"
                )))
            }
        };

        // Remember the incumbent for the next compile on this context
        // (the cross-solve warm start of parameter sweeps).
        self.last_incumbent = Some(sol.values.clone());

        let t = Instant::now();
        let layout = extract(&enc, &front.info, &sol, target);
        trace.record(
            "extract",
            false,
            t.elapsed(),
            format!("{} placements, {} registers", layout.placements.len(), layout.registers.len()),
        );

        let t = Instant::now();
        let concrete = concretize(&front.info, &front.unrolled, &layout, target.stages)?;
        let p4_text = print_p4(&concrete);
        trace.record(
            "codegen",
            false,
            t.elapsed(),
            format!("{} actions, {} LoC", concrete.num_actions(), crate::codegen::loc(&p4_text)),
        );

        let timings = timings_from(&trace, t_total.elapsed());
        Ok(Compilation {
            layout,
            concrete,
            p4_text,
            upper_bounds: front.bounds,
            ilp_stats,
            solve_stats: SolveStats {
                status: out.status,
                nodes: out.nodes,
                lp_solves: out.lp_solves,
                telemetry: out.telemetry,
            },
            timings,
            trace,
        })
    }

    /// Compile with the greedy first-fit allocator instead of the ILP
    /// (the ablation baseline). Shares the front-half cache with
    /// [`CompileCtx::compile`], so an ILP run followed by a greedy run
    /// re-executes only the placement itself.
    pub fn compile_greedy(
        &mut self,
        src: &str,
        target: &TargetSpec,
    ) -> Result<(Layout, CompileTrace), CompileError> {
        let mut trace = CompileTrace::default();
        let front = self.front(src, target, &mut trace)?;
        let t = Instant::now();
        let layout =
            crate::greedy::place_greedy(&front.info, &front.unrolled, &front.graph, target)?;
        trace.record(
            "greedy",
            false,
            t.elapsed(),
            format!("{} placements", layout.placements.len()),
        );
        Ok((layout, trace))
    }
}

/// Aggregate the pass trace into the coarse [`Timings`] quadrants.
fn timings_from(trace: &CompileTrace, total: Duration) -> Timings {
    let get = |name: &str| trace.pass(name).map(|p| p.duration).unwrap_or_default();
    Timings {
        parse: get("parse"),
        analysis: get("elaborate") + get("bounds") + get("unroll") + get("depgraph"),
        encode: get("encode"),
        solve: get("solve"),
        total,
    }
}

/// The P4All compiler for a fixed target.
///
/// A thin wrapper over a [`CompileCtx`] pinned to one [`TargetSpec`].
/// Repeated `compile`/`compile_greedy` calls on the same `Compiler` share
/// the front-half artifact cache; to share it across *targets* (e.g. a
/// memory sweep), use a [`CompileCtx`] directly.
pub struct Compiler {
    pub target: TargetSpec,
    pub options: CompileOptions,
    ctx: Mutex<CompileCtx>,
}

impl Compiler {
    pub fn new(target: TargetSpec) -> Self {
        Self::with_options(target, CompileOptions::default())
    }

    pub fn with_options(target: TargetSpec, options: CompileOptions) -> Self {
        let ctx = Mutex::new(CompileCtx::new(options.clone()));
        Compiler { target, options, ctx }
    }

    /// Compile P4All source text.
    pub fn compile(&self, src: &str) -> Result<Compilation, CompileError> {
        // A poisoned lock only means a previous compile panicked; the
        // cache is still structurally valid (worst case: stale miss).
        self.ctx.lock().unwrap_or_else(|p| p.into_inner()).compile(src, &self.target)
    }

    /// Compile with the greedy first-fit allocator instead of the ILP
    /// (the ablation baseline).
    pub fn compile_greedy(&self, src: &str) -> Result<Layout, CompileError> {
        self.ctx
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .compile_greedy(src, &self.target)
            .map(|(layout, _trace)| layout)
    }
}

/// Evaluate a utility expression at concrete symbolic values (used to
/// compare ILP and greedy layouts on equal footing).
pub fn evaluate_utility(utility: &Expr, values: &BTreeMap<String, u64>) -> Option<f64> {
    match utility {
        Expr::Int(v) => Some(*v as f64),
        Expr::Float(v) => Some(*v),
        Expr::Symbolic(s) => values.get(s).map(|&v| v as f64),
        Expr::Unary { op: p4all_lang::ast::UnOp::Neg, operand } => {
            evaluate_utility(operand, values).map(|v| -v)
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = evaluate_utility(lhs, values)?;
            let b = evaluate_utility(rhs, values)?;
            use p4all_lang::ast::BinOp::*;
            match op {
                Add => Some(a + b),
                Sub => Some(a - b),
                Mul => Some(a * b),
                Div if b != 0.0 => Some(a / b),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilpgen::ResourceKind;
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
    fn end_to_end_cms_on_paper_example() {
        let compiler = Compiler::new(presets::paper_example());
        let c = compiler.compile(CMS).unwrap();
        assert_eq!(c.upper_bounds["rows"], 2);
        let rows = c.layout.symbol_values["rows"];
        let cols = c.layout.symbol_values["cols"];
        // Two co-optimal layouts exist (2x32 or 1x64); utility is 64.
        assert_eq!(rows * cols, 64);
        assert!((c.layout.objective - 64.0).abs() < 1e-6);
        // Validate the layout independently.
        p4all_pisa::validate(&c.layout.usage, &compiler.target).unwrap();
        // Every live iteration contributes an incr and a set_min.
        assert_eq!(c.concrete.num_actions() as u64, 2 * rows);
        // Generated P4 mentions the first register instance.
        assert!(c.p4_text.contains("cms_0"));
        assert!(c.solve_stats.status == SolveStatus::Optimal);
        // Cold compile: every pass ran, none cached.
        assert_eq!(c.trace.cache_hits(), 0);
        assert!(c.trace.pass("solve").is_some());
    }

    #[test]
    fn elastic_stretch_with_memory() {
        // More per-stage memory -> more columns (Figure 12's mechanism).
        let small = Compiler::new({
            let mut t = presets::paper_example();
            t.memory_bits = 1024;
            t
        });
        let big = Compiler::new({
            let mut t = presets::paper_example();
            t.memory_bits = 8192;
            t
        });
        let cs = small.compile(CMS).unwrap();
        let cb = big.compile(CMS).unwrap();
        assert!(
            cb.layout.symbol_values["cols"] > cs.layout.symbol_values["cols"],
            "cols must stretch with memory: {} vs {}",
            cb.layout.symbol_values["cols"],
            cs.layout.symbol_values["cols"]
        );
    }

    #[test]
    fn memory_sweep_reuses_front_half() {
        // One context, two memory points: the second compile must serve
        // the whole front half from cache and re-run only encode+solve.
        let mut ctx = CompileCtx::new(CompileOptions::default());
        let mut target = presets::paper_example();
        target.memory_bits = 1024;
        let c1 = ctx.compile(CMS, &target).unwrap();
        assert_eq!(c1.trace.cache_hits(), 0, "cold compile must run every pass");
        target.memory_bits = 8192;
        let c2 = ctx.compile(CMS, &target).unwrap();
        for pass in ["parse", "elaborate", "bounds", "unroll", "depgraph"] {
            assert!(c2.trace.cached(pass), "pass `{pass}` should be cached on point 2");
        }
        for pass in ["encode", "solve", "extract", "codegen"] {
            assert!(!c2.trace.cached(pass), "pass `{pass}` must re-run on point 2");
        }
        assert!(c2.layout.symbol_values["cols"] > c1.layout.symbol_values["cols"]);
    }

    #[test]
    fn memory_sweep_threads_previous_incumbent() {
        // Sweeping memory upward on one context: the previous point's
        // layout stays feasible, so each later point starts from an
        // accepted warm-start incumbent. Sweeping back down invalidates
        // the cached incumbent (it no longer fits) and the compile must
        // silently fall back rather than fail.
        let mut ctx = CompileCtx::new(CompileOptions::default());
        let mut target = presets::paper_example();
        target.memory_bits = 1024;
        let c1 = ctx.compile(CMS, &target).unwrap();
        assert!(ctx.last_incumbent.is_some(), "a successful solve must cache its incumbent");
        target.memory_bits = 8192;
        let c2 = ctx.compile(CMS, &target).unwrap();
        assert!(
            c2.solve_stats.telemetry.warm_start_accepted(),
            "point 2 of an upward sweep must seed from a warm start"
        );
        assert!(c2.layout.objective >= c1.layout.objective);
        target.memory_bits = 512;
        let c3 = ctx.compile(CMS, &target).unwrap();
        assert!(c3.layout.objective <= c2.layout.objective);
    }

    #[test]
    fn repeated_compile_on_one_compiler_hits_the_cache() {
        let compiler = Compiler::new(presets::paper_example());
        let _ = compiler.compile(CMS).unwrap();
        let c2 = compiler.compile(CMS).unwrap();
        assert!(c2.trace.cached("parse"));
        // Greedy shares the same cache.
        let layout = compiler.compile_greedy(CMS).unwrap();
        assert!(layout.symbol_values["rows"] >= 1);
    }

    #[test]
    fn plain_p4_compiles_through_the_same_pipeline() {
        let src = r#"
            header h { bit<32> dst; }
            struct metadata { bit<32> port; }
            register<bit<32>>[64] counters;
            action count_pkt() {
                counters[meta.port] = counters[meta.port] + 1;
            }
            control Main() { apply { count_pkt(); } }
        "#;
        let compiler = Compiler::new(presets::paper_example());
        let c = compiler.compile(src).unwrap();
        assert_eq!(c.concrete.num_actions(), 1);
        assert_eq!(c.layout.registers[0].cells, 64);
    }

    #[test]
    fn infeasible_when_mandatory_work_exceeds_target() {
        // Four sequentially dependent inline statements on a 3-stage target.
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
        let compiler = Compiler::new(presets::paper_example());
        match compiler.compile(src) {
            Err(CompileError::Infeasible(x)) => {
                assert!(
                    x.resources.contains(&ResourceKind::Stages),
                    "stage-chain conflict must implicate S, got {:?}",
                    x.resources
                );
                assert!(!x.rows.is_empty());
            }
            other => panic!("expected infeasible, got {:?}", other.err().map(|e| e.to_string())),
        }
    }

    #[test]
    fn utility_evaluation_matches_ilp_objective() {
        let compiler = Compiler::new(presets::paper_example());
        let c = compiler.compile(CMS).unwrap();
        let program = p4all_lang::parse(CMS).unwrap();
        let u = evaluate_utility(program.optimize.as_ref().unwrap(), &c.layout.symbol_values)
            .unwrap();
        assert!(
            (u - c.layout.objective).abs() < 1e-6,
            "utility {} vs ILP objective {}",
            u,
            c.layout.objective
        );
    }

    #[test]
    fn greedy_never_beats_ilp() {
        let compiler = Compiler::new(presets::paper_example());
        let ilp = compiler.compile(CMS).unwrap();
        let greedy = compiler.compile_greedy(CMS).unwrap();
        let program = p4all_lang::parse(CMS).unwrap();
        let opt = program.optimize.as_ref().unwrap();
        let u_ilp = evaluate_utility(opt, &ilp.layout.symbol_values).unwrap();
        let u_greedy = evaluate_utility(opt, &greedy.symbol_values).unwrap();
        assert!(
            u_ilp >= u_greedy - 1e-9,
            "ILP utility {u_ilp} must dominate greedy {u_greedy}"
        );
    }

    #[test]
    fn source_errors_carry_spans() {
        let src = "symbolic int rows;\nassume rows >= oops;";
        match Compiler::new(presets::paper_example()).compile(src) {
            Err(CompileError::Source(d)) => {
                assert_eq!(d.span.expect("source errors are spanned").line, 2);
                assert!(d.render(src, "<test>").contains("assume rows >= oops;"));
            }
            other => panic!(
                "expected a spanned source error, got {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
    }

    #[test]
    fn exit_classes_are_stable() {
        assert_eq!(CompileError::Source(Diagnostic::error("x")).exit_class(), 2);
        assert_eq!(CompileError::SolverNumerical("x".into()).exit_class(), 4);
        assert_eq!(CompileError::SolverLimit("x".into()).exit_class(), 4);
        assert_eq!(
            CompileError::Internal(Diagnostic::internal("x")).exit_class(),
            5
        );
        // Display stays CLI-compatible.
        let compiler = Compiler::new(presets::paper_example());
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
        let err = compiler.compile(src).err().expect("infeasible");
        assert_eq!(err.exit_class(), 3);
        assert_eq!(
            err.to_string(),
            "no layout satisfies the target constraints and assumes"
        );
    }
}
