//! The compile phase: one compile unit of a workload, checked.
//!
//! Untraced, a unit goes through the calls a user makes
//! (`CompileCtx::compile`, `compile_joint`). Traced, the same work is
//! done pass by pass through the public function of each pass, with a
//! span around each, so every layer gets its own time without any probe
//! inside the compiler. Both ways every layout must be proved optimal,
//! pass `verify_layout`/`verify_joint`, and reach the pinned objective.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use p4all_core::bounds::all_upper_bounds;
use p4all_core::codegen::{concretize, loc, print_p4, ConcreteProgram};
use p4all_core::depgraph::{build_full, DepGraph};
use p4all_core::elaborate::{elaborate, ProgramInfo};
use p4all_core::greedy::place_greedy;
use p4all_core::ilpgen::{encode, warm_start_from_layout};
use p4all_core::ir::{instantiate, Unrolled};
use p4all_core::solution::{extract, Layout};
use p4all_core::{
    merge_tenants, verify_joint, verify_layout, Compilation, CompileCtx, CompileOptions,
};
use p4all_ilp::{
    presolve, solve_lp, solve_with, ModelStats, Presolved, Sense, SolveStatus, SolveTelemetry,
};
use p4all_lang::ast::Program;
use p4all_pisa::TargetSpec;

use crate::manifest::{App, Joint, Unit};
use crate::record::{Op, Recorder};
use crate::spans::Tracer;

/// What the rest of the path needs from a compile.
pub struct Compiled {
    pub program: Arc<Program>,
    pub concrete: ConcreteProgram,
}

/// Solver threads are pinned so node and pivot counts repeat exactly.
pub fn options(threads: usize) -> CompileOptions {
    CompileOptions::default().with_threads(threads)
}

/// Counts of one compile unit, summed over its solves.
#[derive(Default)]
struct Facts {
    vars: usize,
    rows: usize,
    p4_loc: usize,
    cache_hits: usize,
    nodes: usize,
    lp_solves: usize,
    pivots: usize,
    refactorizations: usize,
    warm_solves: usize,
    cold_fallbacks: usize,
    cuts_applied: usize,
    strong_branch_lps: usize,
    warm_accepted: usize,
    gap_rel: f64,
    solve_s: f64,
    probe_s: f64,
}

impl Facts {
    fn add_solve(
        &mut self,
        stats: &ModelStats,
        nodes: usize,
        lp_solves: usize,
        t: &SolveTelemetry,
        solve_s: f64,
    ) {
        self.vars += stats.num_vars;
        self.rows += stats.num_constraints;
        self.nodes += nodes;
        self.lp_solves += lp_solves;
        self.pivots += t.total_pivots();
        self.refactorizations += t.total_refactorizations();
        self.warm_solves += t.total_warm_solves();
        self.cold_fallbacks += t.total_cold_fallbacks();
        self.cuts_applied += t.cuts.applied;
        self.strong_branch_lps += t.cuts.strong_branch_lps;
        self.warm_accepted += usize::from(t.warm_start_accepted());
        self.gap_rel = self.gap_rel.max(t.gap_rel.unwrap_or(0.0));
        self.solve_s += solve_s;
    }

    fn add_compilation(&mut self, c: &Compilation) {
        let s = &c.solve_stats;
        self.add_solve(
            &c.ilp_stats,
            s.nodes,
            s.lp_solves,
            &s.telemetry,
            c.timings.solve.as_secs_f64(),
        );
        self.p4_loc += loc(&c.p4_text);
        self.cache_hits += c.trace.cache_hits();
    }

    fn record(&self, traced: bool, rec: &mut Recorder) {
        let counts: [(&'static str, usize); 12] = [
            ("core.encode_vars", self.vars),
            ("core.encode_rows", self.rows),
            ("core.p4_loc", self.p4_loc),
            ("ilp.nodes", self.nodes),
            ("ilp.lp_solves", self.lp_solves),
            ("ilp.pivots", self.pivots),
            ("ilp.refactorizations", self.refactorizations),
            ("ilp.warm_solves", self.warm_solves),
            ("ilp.cold_fallbacks", self.cold_fallbacks),
            ("ilp.cuts_applied", self.cuts_applied),
            ("ilp.strong_branch_lps", self.strong_branch_lps),
            ("ilp.warm_start_accepted", self.warm_accepted),
        ];
        for (name, v) in counts {
            rec.push(name, v as f64);
        }
        rec.push("ilp.gap_rel", self.gap_rel);
        if self.solve_s > 0.0 {
            rec.push("ilp.pivots_per_s", self.pivots as f64 / self.solve_s);
        }
        // Only `CompileCtx` has a front-half cache to hit.
        if !traced {
            rec.push("core.front_cache_hits", self.cache_hits as f64);
        }
    }
}

fn app_row(name: &str) -> Option<&'static str> {
    match name {
        "netcache" => Some("core.compile.netcache_s"),
        "sketchlearn" => Some("core.compile.sketchlearn_s"),
        "precision" => Some("core.compile.precision_s"),
        "conquest" => Some("core.compile.conquest_s"),
        _ => None,
    }
}

/// The correctness gate of every compile.
fn check_layout(
    op: &mut Op,
    status: SolveStatus,
    verified: Result<(), Vec<String>>,
    objective: f64,
    pinned: f64,
) {
    op.expect(status == SolveStatus::Optimal, || format!("status {status:?}, not Optimal"));
    if let Err(violations) = verified {
        op.fail(format!("layout does not verify: {}", violations.join("; ")));
    }
    op.expect((objective - pinned).abs() <= 1e-9 * pinned.abs().max(1.0), || {
        format!("objective {objective}, pinned {pinned}")
    });
}

// ------------------------------------------------------------- pass by pass

/// Everything up to the dependency graph: what `CompileCtx` caches.
struct Front {
    info: ProgramInfo,
    unrolled: Unrolled,
    graph: DepGraph,
}

fn front(src: &str, target: &TargetSpec, tr: &mut Tracer) -> Result<Front, String> {
    let max_unroll = options(1).max_unroll;
    let program = tr.leaf("lang.parse", || p4all_lang::parse(src)).0.map_err(|e| e.to_string())?;
    let program = Arc::new(program);
    let info = tr.leaf("core.elaborate", || elaborate(&program)).0.map_err(|e| e.to_string())?;
    let bounds: BTreeMap<String, usize> = tr
        .leaf("core.bounds", || all_upper_bounds(&info, target, max_unroll))
        .0
        .map_err(|e| e.to_string())?;
    let unrolled =
        tr.leaf("core.unroll", || instantiate(&info, &bounds)).0.map_err(|e| e.to_string())?;
    let graph = tr.leaf("core.depgraph", || build_full(&unrolled)).0;
    Ok(Front { info, unrolled, graph })
}

struct Back {
    status: SolveStatus,
    layout: Layout,
    concrete: ConcreteProgram,
    incumbent: Vec<f64>,
}

/// `encode` onward, seeded as `CompileCtx::compile` seeds it: the greedy
/// layout, unless the previous point's incumbent scores better on this
/// encoding.
fn back(
    f: &Front,
    target: &TargetSpec,
    previous: Option<&[f64]>,
    facts: &mut Facts,
    tr: &mut Tracer,
) -> Result<Back, String> {
    let enc = tr
        .leaf("core.encode", || encode(&f.info, &f.unrolled, &f.graph, target))
        .0
        .map_err(|e| e.to_string())?;
    let stats = enc.model.stats();
    let greedy = tr
        .leaf("core.greedy", || {
            place_greedy(&f.info, &f.unrolled, &f.graph, target)
                .ok()
                .map(|layout| warm_start_from_layout(&enc, &layout))
        })
        .0;

    // Presolve and the root LP run again inside `solve_with`; timing them
    // from outside costs a second execution, which the round's wall time
    // is later relieved of.
    let (presolved, presolve_s) = tr.leaf("ilp.presolve", || presolve(&enc.model));
    let mut root_s = 0.0;
    if let Presolved::Bounds(bounds) = &presolved {
        root_s = tr.leaf("ilp.root_lp", || solve_lp(&enc.model, bounds)).1;
    }
    facts.probe_s += presolve_s + root_s;

    let mut solver = options(1).solver;
    let (out, solve_s) = tr.leaf("ilp.solve", || {
        let sign = match enc.model.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let score = |v: &[f64]| {
            (v.len() == enc.model.num_vars() && enc.model.check_feasible(v, 1e-6).is_ok())
                .then(|| sign * enc.model.objective_value(v))
        };
        solver.warm_start = match (previous.and_then(score), &greedy) {
            (Some(prev), Some(g)) if score(g).is_some_and(|gs| gs >= prev) => greedy.clone(),
            (Some(_), _) => previous.map(<[f64]>::to_vec),
            (None, _) => greedy.clone(),
        };
        solve_with(&enc.model, &solver)
    });
    let out = out.map_err(|e| e.to_string())?;
    facts.add_solve(&stats, out.nodes, out.lp_solves, &out.telemetry, solve_s);
    let solution =
        out.solution.ok_or_else(|| format!("solver ended {:?} without a solution", out.status))?;

    let layout = tr.leaf("core.extract", || extract(&enc, &f.info, &solution, target)).0;
    let (concrete, p4_text) = tr
        .leaf("core.codegen", || {
            concretize(&f.info, &f.unrolled, &layout, target.stages).map(|c| {
                let text = print_p4(&c);
                (c, text)
            })
        })
        .0
        .map_err(|e| e.to_string())?;
    facts.p4_loc += loc(&p4_text);
    Ok(Back { status: out.status, layout, concrete, incumbent: solution.values })
}

// ------------------------------------------------------------ one program

/// Compile one app, through `ctx` when untraced and pass by pass when
/// traced; `shared` carries the front half and incumbent along a sweep.
fn compile_app(
    app: &App,
    program: &Arc<Program>,
    ctx: &mut CompileCtx,
    shared: &mut Option<(Front, Vec<f64>)>,
    facts: &mut Facts,
    tr: &mut Tracer,
    rec: &mut Recorder,
) -> Option<Compiled> {
    let t = Instant::now();
    let mut op = Op::new(format!("compile {} at {} bits", app.name, app.target.memory_bits));
    let done = if tr.enabled {
        let built = match shared.take() {
            Some((f, incumbent)) => Ok((f, Some(incumbent))),
            None => front(&app.src, &app.target, tr).map(|f| (f, None)),
        };
        built.and_then(|(f, previous)| {
            let b = back(&f, &app.target, previous.as_deref(), facts, tr)?;
            let verified =
                tr.leaf("core.verify", || verify_layout(&f.info.program, &b.layout, &app.target)).0;
            check_layout(&mut op, b.status, verified, b.layout.objective, app.objective);
            let program = f.info.program.clone();
            *shared = Some((f, b.incumbent));
            Ok(Compiled { program, concrete: b.concrete })
        })
    } else {
        ctx.compile(&app.src, &app.target).map_err(|e| e.to_string()).map(|c| {
            let verified = verify_layout(program, &c.layout, &app.target);
            check_layout(
                &mut op,
                c.solve_stats.status,
                verified,
                c.layout.objective,
                app.objective,
            );
            facts.add_compilation(&c);
            Compiled { program: program.clone(), concrete: c.concrete }
        })
    };
    let done = done.map_err(|e| op.fail(e)).ok();
    rec.finish(op);
    if let Some(row) = app_row(app.name) {
        rec.push(row, t.elapsed().as_secs_f64());
    }
    done
}

// ------------------------------------------------------------------ joint

/// One checked `compile_joint` on a fresh context: the compilation and
/// the merged program it is for.
pub fn compile_joint(
    joint: &Joint,
    threads: usize,
    rec: &mut Recorder,
) -> Option<(Compilation, Arc<Program>)> {
    let Joint { tenants, target, objective } = joint;
    let mut op =
        Op::new(format!("compile_joint of {} tenants, {threads} thread(s)", tenants.len()));
    let done = match CompileCtx::new(options(threads)).compile_joint(tenants, target) {
        Err(e) => {
            op.fail(e.to_string());
            None
        }
        Ok(jc) => {
            let c = jc.compilation;
            let verified = verify_joint(&jc.joint, &c.layout, target);
            check_layout(&mut op, c.solve_stats.status, verified, c.layout.objective, *objective);
            Some((c, Arc::new(jc.joint.merged)))
        }
    };
    rec.finish(op);
    done
}

/// The joint once more on two solver threads, inside `limit_s` seconds.
/// A search that two threads do not close in that time is not a solve
/// time: the row is `null` and says so.
pub fn solve_threads2(joint: &Joint, limit_s: f64, rec: &mut Recorder) {
    const ROW: &str = "ilp.threads2_solve_s";
    let Joint { tenants, target, objective } = joint;
    let mut opts = options(2);
    opts.solver.time_limit = Some(Duration::from_secs_f64(limit_s));
    let t = Instant::now();
    let done = CompileCtx::new(opts).compile_joint(tenants, target);
    let closed =
        matches!(&done, Ok(jc) if jc.compilation.solve_stats.status == SolveStatus::Optimal);
    if !closed && t.elapsed().as_secs_f64() >= limit_s {
        rec.null(
            ROW,
            format!("two threads did not close the tree in the {limit_s:.1} s one thread takes"),
        );
        return;
    }
    let mut op = Op::new("compile_joint, 2 threads");
    match done {
        Err(e) => op.fail(e.to_string()),
        Ok(jc) => {
            let c = jc.compilation;
            let verified = verify_joint(&jc.joint, &c.layout, target);
            check_layout(&mut op, c.solve_stats.status, verified, c.layout.objective, *objective);
            rec.push(ROW, c.timings.solve.as_secs_f64());
        }
    }
    rec.finish(op);
}

fn joint_unit(
    joint: &Joint,
    facts: &mut Facts,
    tr: &mut Tracer,
    rec: &mut Recorder,
) -> Option<Compiled> {
    if !tr.enabled {
        return compile_joint(joint, 1, rec).map(|(c, program)| {
            facts.add_compilation(&c);
            Compiled { program, concrete: c.concrete }
        });
    }
    let Joint { tenants, target, objective } = joint;
    let mut op = Op::new("compile_joint, pass by pass");
    let result: Result<Compiled, String> = (|| {
        // As `compile_joint` does: each tenant's front half standalone
        // first, so a broken tenant is named before the merged text is.
        for t in tenants {
            front(&t.src, target, tr)?;
        }
        let merged = tr
            .leaf("core.merge_tenants", || merge_tenants(tenants))
            .0
            .map_err(|e| e.to_string())?;
        let f = front(&merged.src, target, tr)?;
        let b = back(&f, target, None, facts, tr)?;
        let verified = tr.leaf("core.verify_joint", || verify_joint(&merged, &b.layout, target)).0;
        check_layout(&mut op, b.status, verified, b.layout.objective, *objective);
        Ok(Compiled { program: Arc::new(merged.merged), concrete: b.concrete })
    })();
    let done = result.map_err(|e| op.fail(e)).ok();
    rec.finish(op);
    done
}

// ------------------------------------------------------------------- unit

/// Run one compile unit and record `compile_s`, the per-program rows and
/// the unit's counts. Returns the program the rest of the path runs, and
/// the seconds spent on outside probes that the untraced unit never runs.
pub fn compile_unit(
    unit: &Unit,
    parsed: &[Arc<Program>],
    rotate: usize,
    tr: &mut Tracer,
    rec: &mut Recorder,
) -> (Option<Compiled>, f64) {
    let mut facts = Facts::default();
    let t = Instant::now();
    tr.begin("compile_unit");
    let replayed = match unit {
        Unit::Apps { apps, replay } => {
            let mut replayed = None;
            for k in 0..apps.len() {
                let i = (rotate + k) % apps.len();
                // A fresh context each: nothing is served from cache.
                let mut ctx = CompileCtx::new(options(1));
                let done =
                    compile_app(&apps[i], &parsed[i], &mut ctx, &mut None, &mut facts, tr, rec);
                if i == *replay {
                    replayed = done;
                }
            }
            replayed
        }
        Unit::Sweep { points, replay } => {
            let mut ctx = CompileCtx::new(options(1));
            let mut shared = None;
            let mut replayed = None;
            for (i, (app, program)) in points.iter().zip(parsed).enumerate() {
                let done = compile_app(app, program, &mut ctx, &mut shared, &mut facts, tr, rec);
                if i == *replay {
                    replayed = done;
                }
            }
            replayed
        }
        Unit::Joint(joint) => joint_unit(joint, &mut facts, tr, rec),
    };
    tr.end();
    let probe_s = facts.probe_s;
    rec.push("compile_s", t.elapsed().as_secs_f64() - probe_s);
    facts.record(tr.enabled, rec);
    (replayed, probe_s)
}

/// Parse every source of a unit once, for `verify_layout` and
/// `Switch::build` on the untraced path (`Compilation` keeps no AST).
pub fn parse_unit(unit: &Unit) -> Result<Vec<Arc<Program>>, String> {
    let apps: &[App] = match unit {
        Unit::Apps { apps, .. } => apps,
        Unit::Sweep { points, .. } => points,
        Unit::Joint(_) => &[],
    };
    apps.iter()
        .map(|a| p4all_lang::parse(&a.src).map(Arc::new).map_err(|e| format!("{}: {e}", a.name)))
        .collect()
}
