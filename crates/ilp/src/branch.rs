//! Branch-and-bound driver for mixed-integer programs.
//!
//! One search: a depth-first walk over bound-tightened subproblems, each
//! relaxed and solved by the [simplex](crate::simplex) module. A root
//! diving heuristic finds an early incumbent so the LP bound can prune
//! aggressively; root cut rounds and reliability-initialized pseudocost
//! branching (see [`SolveOptions::cuts`]) shrink the tree; each node's LP
//! starts from its parent's basis (see [`SolveOptions::warm_lp`]), which
//! waits on the stack as its nonzeros and is expanded when the node is
//! popped.
//!
//! Every solve records [`SolveTelemetry`]: LP work counters, the
//! incumbent-improvement timeline, and the final optimality gap.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cuts::{self, Cut, CutCounters, CutPool};
use crate::model::{Model, Sense, Solution, VarKind};
use crate::presolve::{presolve, Presolved};
use crate::simplex::{Basis, LpError, LpResult, LpWorkspace, StoredBasis};
use crate::telemetry::{
    DiveTelemetry, DiveWork, FaceDiveEnd, IncumbentEvent, IncumbentSource, LpWork, SolveTelemetry,
    WarmDiveEnd,
};

/// Fractional root candidates initialized by reliability (strong)
/// branching — two LPs each, warm-started from the root basis.
const STRONG_BRANCH_MAX: usize = 8;
/// First node count at which the tree search attempts node-level cut
/// separation; subsequent events at 4x intervals.
const NODE_SEP_BASE: usize = 256;
/// Maximum node-level separation events per solve (each one
/// invalidates the stacked warm bases, so they are rationed).
const NODE_SEP_EVENTS: usize = 4;
/// Relative bound improvement below which the root cut loop stops.
const CUT_TAILOFF: f64 = 1e-7;
/// Values within this distance of an integer count as integral.
const INT_TOL: f64 = 1e-6;
/// A node is pruned when its LP bound cannot beat the incumbent by more
/// than this amount (or by `rel_gap` of it, whichever is larger).
const GAP_TOL: f64 = 1e-6;

/// Knobs for [`solve_with`].
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Give up (returning the incumbent, if any) after this wall-clock time.
    pub time_limit: Option<Duration>,
    /// Give up after exploring this many nodes.
    pub node_limit: usize,
    /// Relative optimality gap: additionally prune nodes whose bound is
    /// within `rel_gap * |incumbent|` of the incumbent. Zero for exact
    /// proofs; compilers use ~1e-6 (a millionth of the utility).
    pub rel_gap: f64,
    /// Maximum depth of the root diving heuristic (0 disables it).
    pub dive_limit: usize,
    /// Optional warm-start assignment (one value per variable). If it is
    /// feasible for the model it seeds the incumbent, activating bound
    /// pruning from the first node.
    pub warm_start: Option<Vec<f64>>,
    /// Warm-start each LP after the root from a previous optimal basis
    /// and re-optimize with the dual simplex (on by default — typically an
    /// order of magnitude fewer pivots per LP): tree nodes from their
    /// parent's basis, cut rounds from the last round's, and both passes
    /// of the root dive as chains from the root basis (see `root_dive`).
    /// `false` solves every LP cold from the slack basis: a
    /// reference configuration for tests and the fuzz oracle, which
    /// reaches the same optimum and is compared by objective.
    pub warm_lp: bool,
    /// Run the cut-and-branch engine (on by default): Gomory mixed-integer
    /// cuts from the simplex tableau and knapsack cover cuts from
    /// capacity rows, separated in rounds at the root (and sparingly at
    /// tree nodes), pooled, and activated by violation under a budget;
    /// and branching on pseudocost scores, reliability-initialized by
    /// bounded strong branching at the root. Cuts tighten the LP
    /// relaxation and pseudocosts pick better variables, so the tree
    /// needs fewer nodes. `false` is plain branch-and-bound on the most
    /// fractional variable: a reference configuration for tests and the
    /// fuzz oracle, which reaches the same optimum and is compared by
    /// objective.
    pub cuts: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            time_limit: Some(Duration::from_secs(300)),
            node_limit: 200_000,
            rel_gap: 0.0,
            dive_limit: 400,
            warm_start: None,
            warm_lp: true,
            cuts: true,
        }
    }
}

/// Final status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// A feasible solution was found but a limit stopped the proof.
    Feasible,
    /// No integral assignment satisfies the constraints.
    Infeasible,
    /// The relaxation (and the MIP) is unbounded.
    Unbounded,
    /// A limit was reached before any feasible solution was found.
    Unknown,
}

/// Outcome of [`solve`] / [`solve_with`].
#[derive(Debug, Clone)]
pub struct MipOutcome {
    pub status: SolveStatus,
    /// Best solution found (present for `Optimal` and `Feasible`).
    pub solution: Option<Solution>,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total LP relaxations solved (including heuristic dives).
    pub lp_solves: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// LP work counters, incumbent timeline, final gap.
    pub telemetry: SolveTelemetry,
}

/// Solve with default options.
pub fn solve(model: &Model) -> Result<MipOutcome, LpError> {
    solve_with(model, &SolveOptions::default())
}

struct Node {
    bounds: Vec<(f64, f64)>,
    /// LP bound inherited from the parent (in "higher is better" score).
    parent_score: f64,
    /// The parent's optimal basis, stored once and shared by both
    /// children. `None` at the root (its LP takes the root basis dense),
    /// when `warm_lp` is off, or when no basis was representable.
    basis: Option<Arc<StoredBasis>>,
    /// How this node was created, for pseudocost updates once its LP is
    /// solved. `None` at the root; carried but unused when
    /// `SolveOptions::cuts` is off.
    branch: Option<BranchInfo>,
}

/// Branching decision that created a node: variable, fractional distance
/// the bound moved (`f` for the down child, `1 − f` for up), direction.
#[derive(Debug, Clone, Copy)]
struct BranchInfo {
    var: usize,
    dist: f64,
    up: bool,
}

/// Per-variable pseudocost statistics: observed objective degradation per
/// unit of bound movement, kept separately for the down and up children.
/// Variables without observations fall back to the average over
/// initialized ones (or 1.0 when nothing is initialized yet), which
/// reduces the selection to most-fractional until data arrives.
#[derive(Debug, Clone)]
struct Pseudocosts {
    dn_sum: Vec<f64>,
    dn_n: Vec<u32>,
    up_sum: Vec<f64>,
    up_n: Vec<u32>,
}

impl Pseudocosts {
    fn new(num_vars: usize) -> Self {
        Pseudocosts {
            dn_sum: vec![0.0; num_vars],
            dn_n: vec![0; num_vars],
            up_sum: vec![0.0; num_vars],
            up_n: vec![0; num_vars],
        }
    }

    /// Record one observation: branching `var` in `up` direction cost
    /// `per_unit` objective per unit of bound movement.
    fn record(&mut self, var: usize, up: bool, per_unit: f64) {
        if up {
            self.up_sum[var] += per_unit;
            self.up_n[var] += 1;
        } else {
            self.dn_sum[var] += per_unit;
            self.dn_n[var] += 1;
        }
    }

    fn averages(&self) -> (f64, f64) {
        let mean = |sums: &[f64], ns: &[u32]| {
            let (mut s, mut n) = (0.0f64, 0u64);
            for (v, &c) in sums.iter().zip(ns) {
                if c > 0 {
                    s += v / c as f64;
                    n += 1;
                }
            }
            if n > 0 { s / n as f64 } else { 1.0 }
        };
        (mean(&self.dn_sum, &self.dn_n), mean(&self.up_sum, &self.up_n))
    }

    /// Pseudocost branching: among fractional integer variables, pick the
    /// one with the largest product of estimated down/up degradations.
    /// Branch priority and the binaries-first class still dominate, as in
    /// the most-fractional rule; degradation ties (common when
    /// every observed move was degenerate) fall back to fractionality, so
    /// zero information reduces the rule to most-fractional, and exact
    /// ties keep the lowest index.
    fn pick(&self, ctx: &SearchCtx<'_>, x: &[f64], tol: f64) -> Option<(usize, f64)> {
        let (avg_dn, avg_up) = self.averages();
        let mut best: Option<(usize, (i32, u8, f64, f64))> = None;
        for &j in &ctx.int_vars {
            let f = (x[j] - x[j].round()).abs();
            if f > tol {
                let var = ctx.model.var(crate::VarId(j));
                let class = match var.kind {
                    VarKind::Binary => 0u8,
                    _ => 1,
                };
                let fr = x[j] - x[j].floor();
                let dn = if self.dn_n[j] > 0 { self.dn_sum[j] / self.dn_n[j] as f64 } else { avg_dn };
                let up = if self.up_n[j] > 0 { self.up_sum[j] / self.up_n[j] as f64 } else { avg_up };
                let score = (dn * fr).max(1e-6) * (up * (1.0 - fr)).max(1e-6);
                let fr_score = 0.5 - (fr - 0.5).abs();
                let key = (-var.branch_priority, class, -score, -fr_score);
                match &best {
                    Some((_, bk)) if key >= *bk => {}
                    _ => best = Some((j, key)),
                }
            }
        }
        best.map(|(j, _)| (j, x[j]))
    }
}

/// State of the cut-and-branch engine threaded through the search: the
/// cut-extended model the LPs solve against, the cut pool, pseudocost
/// statistics, and the engine counters. Empty (and inert) when
/// `SolveOptions { cuts: false }`.
struct SearchAux {
    /// The original model plus activated cut rows; `None` while no cut
    /// has been activated (LPs then solve the original model).
    cut_model: Option<Model>,
    /// Separated-but-inactive cuts, selectable at later events.
    pool: CutPool,
    /// Pseudocost statistics; `Some` iff `SolveOptions::cuts`.
    pseudo: Option<Pseudocosts>,
    counters: CutCounters,
}

impl SearchAux {
    fn new(num_vars: usize, opts: &SolveOptions) -> Self {
        SearchAux {
            cut_model: None,
            pool: CutPool::default(),
            pseudo: opts.cuts.then(|| Pseudocosts::new(num_vars)),
            counters: CutCounters::default(),
        }
    }

    /// Record a pseudocost observation for a solved child node.
    fn observe(&mut self, node_branch: Option<BranchInfo>, parent_score: f64, score: f64) {
        if let (Some(pc), Some(b)) = (self.pseudo.as_mut(), node_branch) {
            if b.dist > 1e-6 {
                let per_unit = (parent_score - score).max(0.0) / b.dist;
                pc.record(b.var, b.up, per_unit);
                self.counters.pseudocost_updates += 1;
            }
        }
    }

    /// Activate `picked`: append them to the cut model (a copy of `base`
    /// at the first cut) and rebuild `lp` for the grown model, once for
    /// every LP that follows.
    fn apply_cuts(&mut self, base: &Model, picked: &[Cut], lp: &mut LpWorkspace) {
        let work = self.cut_model.get_or_insert_with(|| base.clone());
        for cut in picked {
            cuts::apply_cut(work, cut, self.counters.applied);
            self.counters.applied += 1;
        }
        *lp = LpWorkspace::new(work);
    }

    /// Variable selection: pseudocost when the engine is on, else most
    /// fractional.
    fn pick(&self, ctx: &SearchCtx<'_>, x: &[f64], tol: f64) -> Option<(usize, f64)> {
        match &self.pseudo {
            Some(pc) => pc.pick(ctx, x, tol),
            None => ctx.pick_branch_var(x, tol),
        }
    }
}

/// Shared per-solve context: the model, options, the sense sign that maps
/// objectives into "higher is better" scores, and the branch ordering.
struct SearchCtx<'a> {
    model: &'a Model,
    opts: &'a SolveOptions,
    sgn: f64,
    int_vars: Vec<usize>,
    start: Instant,
}

impl<'a> SearchCtx<'a> {
    fn new(model: &'a Model, opts: &'a SolveOptions) -> Self {
        let sgn = match model.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        // Integral variables, binaries first so we branch on placements
        // before memory sizes.
        let mut int_vars: Vec<usize> = model
            .vars()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_integral())
            .map(|(j, _)| j)
            .collect();
        int_vars.sort_by_key(|&j| match model.var(crate::VarId(j)).kind {
            VarKind::Binary => 0u8,
            VarKind::Integer => 1,
            VarKind::Continuous => 2,
        });
        SearchCtx { model, opts, sgn, int_vars, start: Instant::now() }
    }

    /// Selection key: highest branch priority, then binaries before
    /// general integers, then most fractional.
    fn pick_branch_var(&self, x: &[f64], tol: f64) -> Option<(usize, f64)> {
        let frac_of = |v: f64| (v - v.round()).abs();
        let mut best: Option<(usize, (i32, u8, f64))> = None;
        for &j in &self.int_vars {
            let f = frac_of(x[j]);
            if f > tol {
                let var = self.model.var(crate::VarId(j));
                let class = match var.kind {
                    VarKind::Binary => 0u8,
                    _ => 1,
                };
                let fr_score = 0.5 - (x[j] - x[j].floor() - 0.5).abs();
                let key = (-var.branch_priority, class, -fr_score);
                match &best {
                    Some((_, bk)) if key >= *bk => {}
                    _ => best = Some((j, key)),
                }
            }
        }
        best.map(|(j, _)| (j, x[j]))
    }

    /// Round every integral variable to the nearest integer.
    fn snap(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .enumerate()
            .map(|(j, &v)| {
                if self.model.var(crate::VarId(j)).is_integral() {
                    v.round()
                } else {
                    v
                }
            })
            .collect()
    }

    /// Map an internal score back to objective units.
    fn score_to_objective(&self, score: f64) -> f64 {
        self.sgn * score
    }

    /// The prune threshold against an incumbent score.
    fn prune_gap(&self, inc_score: f64) -> f64 {
        GAP_TOL.max(self.opts.rel_gap * inc_score.abs())
    }
}

/// Everything the tree search needs after the root phase: tightened
/// bounds, the root LP score, the seeded incumbent, and the LP/event
/// bookkeeping accumulated so far.
struct Prepared {
    root_bounds: Vec<(f64, f64)>,
    root_score: f64,
    incumbent: Option<(f64, Vec<f64>)>,
    lp_solves: usize,
    events: Vec<IncumbentEvent>,
    /// Optimal basis of the root LP, seed for warm-started children.
    root_basis: Option<Arc<Basis>>,
    /// LP work done during the root phase (root LP + dives).
    lp_work: LpWork,
}

/// Root phase: presolve, warm start, root LP, integrality shortcut,
/// diving heuristic (see [`root_dive`]).
enum RootPhase {
    Done(MipOutcome),
    /// The tree search's input, and what the root dive did (`None` when
    /// it did not run).
    Search(Prepared, Option<DiveTelemetry>),
}

/// Whether an incumbent of `score` closes the gap to `root_score`: then
/// the tree search would prune the root node at once. Increasing in
/// `score` (for `rel_gap < 1`), which is what lets a dive's LP bound
/// stand in for every incumbent below it.
fn closes_root_gap(ctx: &SearchCtx<'_>, root_score: f64, score: f64) -> bool {
    root_score <= score + ctx.prune_gap(score)
}

/// An incumbent the root dive settled on: the pass it came from, its
/// score, its values.
type DiveIncumbent = (IncumbentSource, f64, Vec<f64>);

/// How one pass of [`run_dive`] ended.
enum DiveEnd {
    /// An integral LP point whose snapped vector is feasible, with its score.
    Incumbent(f64, Vec<f64>),
    /// Only with a give-up score: this LP's score no longer closes the
    /// root gap.
    GaveUp(f64),
    /// Both sides infeasible, an unsafe snap, or the depth limit.
    Nothing,
}

/// One root dive over the LPs of `lp`: repeatedly fix the branch
/// variable to its nearest integer (backtracking once to the other side on
/// infeasibility) until the LP point is integral, then return the snapped
/// point's score if it is feasible for the original model.
///
/// With `link = None` every LP is solved cold from the slack basis. With
/// `link = Some(basis)` each LP starts from the previous LP's optimal
/// basis (first link: the root's), a handful of dual pivots where the cold
/// solve pays for the root LP again. Warm solves are equally exact but can
/// land on other co-optimal vertices and steer the dive somewhere else.
/// With `give_up = Some(root_score)` the pass stops as soon as one of its
/// LPs scores `z` with `!closes_root_gap(z)`: dive bounds only tighten,
/// every later LP and the incumbent at the end score at most `z`, and
/// [`closes_root_gap`] is increasing — the pass can no longer win.
#[allow(clippy::too_many_arguments)]
fn run_dive(
    ctx: &SearchCtx<'_>,
    lp: &mut LpWorkspace,
    root_bounds: &[(f64, f64)],
    root_x: &[f64],
    give_up: Option<f64>,
    mut link: Option<Basis>,
    lp_solves: &mut usize,
    lp_work: &mut LpWork,
) -> Result<DiveEnd, LpError> {
    let model = ctx.model;
    let opts = ctx.opts;
    let mut dive_bounds = root_bounds.to_vec();
    let mut cur = root_x.to_vec();
    // A link is used once, so its inverse moves into the solver; when the
    // LP leaves no basis behind (infeasible side), what stays in the link
    // still warm-starts the other side at one refactorization.
    let mut dive_solve = |bounds: &[(f64, f64)], lp_work: &mut LpWork| -> Result<LpResult, LpError> {
        let sol = match link.as_mut() {
            Some(basis) => lp.solve_take(bounds, basis)?,
            None => lp.solve(bounds, None)?,
        };
        lp_work.add(&sol.stats);
        if let (Some(slot), Some(next)) = (link.as_mut(), sol.basis) {
            *slot = next;
        }
        Ok(sol.result)
    };
    for _ in 0..opts.dive_limit {
        match ctx.pick_branch_var(&cur, INT_TOL) {
            None => {
                let vals = ctx.snap(&cur);
                if model.check_feasible(&vals, 1e-5).is_ok() {
                    let obj = model.objective_value(&vals);
                    return Ok(DiveEnd::Incumbent(ctx.sgn * obj, vals));
                }
                return Ok(DiveEnd::Nothing);
            }
            Some((j, v)) => {
                // Round to the nearest integer and fix; on infeasibility
                // backtrack once to the other side before giving up.
                let (lo, hi) = dive_bounds[j];
                let r = v.round().clamp(lo, hi);
                dive_bounds[j] = (r, r);
                *lp_solves += 1;
                let (x, obj) = match dive_solve(&dive_bounds, lp_work)? {
                    LpResult::Optimal { x, obj } => (x, obj),
                    _ => {
                        let alt = if r > v { v.floor() } else { v.ceil() };
                        let alt = alt.clamp(lo, hi);
                        if alt == r {
                            return Ok(DiveEnd::Nothing);
                        }
                        dive_bounds[j] = (alt, alt);
                        *lp_solves += 1;
                        match dive_solve(&dive_bounds, lp_work)? {
                            LpResult::Optimal { x, obj } => (x, obj),
                            _ => return Ok(DiveEnd::Nothing), // both sides infeasible
                        }
                    }
                };
                let z = ctx.sgn * obj;
                if give_up.is_some_and(|r| !closes_root_gap(ctx, r, z)) {
                    return Ok(DiveEnd::GaveUp(z));
                }
                cur = x;
            }
        }
    }
    Ok(DiveEnd::Nothing)
}

/// The root diving heuristic: a warm pass, then a face dive.
///
/// The **warm pass** is [`run_dive`] over the model, giving up once its LP
/// bound can no longer close the root gap. If its incumbent closes the
/// root gap the solve is over. Otherwise (it gave up, found nothing, or
/// fell short) the **face dive** runs: the same dive over a copy of the
/// model with one more row, `score ≥ root_score − prune_gap(root_score)`,
/// which holds every LP of the dive on the face of the root bound. Under
/// `warm_lp` the warm pass chains from the root basis and the face dive
/// from the root basis extended by the new row's slack (dual feasible by
/// construction, and the root point lies on the face); under `warm_lp:
/// false` both passes solve every LP cold, so the two configurations run
/// the same passes and differ only in how each LP starts. The warm pass
/// solves through `lp`, the face dive through a workspace of its own.
/// Returns the best incumbent either pass found, with its source, and the
/// record of what ran.
#[allow(clippy::too_many_arguments)]
fn root_dive(
    ctx: &SearchCtx<'_>,
    lp: &mut LpWorkspace,
    root_bounds: &[(f64, f64)],
    root_x: &[f64],
    root_score: f64,
    root_basis: Option<&Basis>,
    lp_solves: &mut usize,
    lp_work: &mut LpWork,
) -> Result<(Option<DiveIncumbent>, DiveTelemetry), LpError> {
    let mut pass = |lp: &mut LpWorkspace, give_up, link| -> Result<(DiveEnd, DiveWork), LpError> {
        let (lps, pivots) = (*lp_solves, lp_work.pivots);
        let end = run_dive(ctx, lp, root_bounds, root_x, give_up, link, lp_solves, lp_work)?;
        Ok((end, DiveWork { lps: *lp_solves - lps, pivots: lp_work.pivots - pivots }))
    };
    // Keeps the better of the passes' incumbents; says whether this one
    // closes the root gap (`None`: the pass found no incumbent).
    let mut best: Option<DiveIncumbent> = None;
    let mut keep = |source, end: DiveEnd| {
        let DiveEnd::Incumbent(score, vals) = end else { return None };
        if best.as_ref().is_none_or(|(_, b, _)| score > *b) {
            best = Some((source, score, vals));
        }
        Some(closes_root_gap(ctx, root_score, score))
    };
    let link = root_basis.filter(|_| ctx.opts.warm_lp);
    let (end, work) = pass(lp, Some(root_score), link.cloned())?;
    let how = match end {
        DiveEnd::GaveUp(z) => WarmDiveEnd::GaveUp {
            bound: ctx.score_to_objective(z),
            root: ctx.score_to_objective(root_score),
        },
        end => match keep(IncumbentSource::WarmDive, end) {
            Some(true) => WarmDiveEnd::ClosedGap,
            _ => WarmDiveEnd::LeftGapOpen,
        },
    };
    let warm = (how, work);
    if how == WarmDiveEnd::ClosedGap {
        return Ok((best, DiveTelemetry { warm, face: None }));
    }
    let mut face_model = ctx.model.clone();
    let mut face_row = ctx.model.objective().clone() * ctx.sgn;
    face_row.constant = 0.0;
    face_model.ge("root_face", face_row, root_score - ctx.prune_gap(root_score));
    let mut face_lp = LpWorkspace::new(&face_model);
    let (end, work) = pass(&mut face_lp, None, link.map(|b| b.with_new_rows(1)))?;
    let end = match keep(IncumbentSource::FaceDive, end) {
        Some(true) => FaceDiveEnd::ClosedGap,
        Some(false) => FaceDiveEnd::FellShort,
        None => FaceDiveEnd::Empty,
    };
    Ok((best, DiveTelemetry { warm, face: Some((end, work)) }))
}

fn root_phase(ctx: &SearchCtx<'_>, lp: &mut LpWorkspace) -> Result<RootPhase, LpError> {
    let model = ctx.model;
    let opts = ctx.opts;
    let trivial = |nodes: usize, lp_solves: usize, lp: LpWork, status: SolveStatus| MipOutcome {
        status,
        solution: None,
        nodes,
        lp_solves,
        elapsed: ctx.start.elapsed(),
        telemetry: SolveTelemetry { lp, ..Default::default() },
    };

    let root_bounds = match presolve(model) {
        Presolved::Bounds(b) => b,
        Presolved::Infeasible { .. } => {
            return Ok(RootPhase::Done(trivial(0, 0, LpWork::default(), SolveStatus::Infeasible)));
        }
    };

    let mut lp_work = LpWork::default();
    let mut lp_solves = 0usize;
    let mut events = Vec::new();
    let mut incumbent: Option<(f64, Vec<f64>)> = None;

    // Seed the incumbent from a caller-provided warm start, if feasible.
    // A rejected point (wrong length, infeasible) is simply not used;
    // acceptance shows in telemetry as an `IncumbentSource::WarmStart` event.
    if let Some(ws) = &opts.warm_start {
        if ws.len() == model.num_vars() && model.check_feasible(ws, 1e-5).is_ok() {
            let obj = model.objective_value(ws);
            incumbent = Some((ctx.sgn * obj, ws.clone()));
            events.push(IncumbentEvent {
                elapsed: ctx.start.elapsed(),
                objective: obj,
                source: IncumbentSource::WarmStart,
            });
        }
    }

    // --- Root LP (always cold: there is no prior basis) ---
    lp_solves += 1;
    let root_solve = lp.solve(&root_bounds, None)?;
    lp_work.add(&root_solve.stats);
    let root_basis: Option<Arc<Basis>> = root_solve.basis.map(Arc::new);
    let (root_x, root_score) = match root_solve.result {
        LpResult::Infeasible => {
            return Ok(RootPhase::Done(trivial(1, lp_solves, lp_work, SolveStatus::Infeasible)));
        }
        LpResult::Unbounded => {
            return Ok(RootPhase::Done(trivial(1, lp_solves, lp_work, SolveStatus::Unbounded)));
        }
        LpResult::Optimal { x, obj } => (x, ctx.sgn * obj),
    };

    // Integral already?
    if ctx.pick_branch_var(&root_x, INT_TOL).is_none() {
        let vals = ctx.snap(&root_x);
        if model.check_feasible(&vals, 1e-5).is_ok() {
            let obj = model.objective_value(&vals);
            let mut out = trivial(1, lp_solves, lp_work, SolveStatus::Optimal);
            out.solution = Some(Solution { values: vals, objective: obj });
            out.telemetry.incumbents.push(IncumbentEvent {
                elapsed: ctx.start.elapsed(),
                objective: obj,
                source: IncumbentSource::Node,
            });
            out.telemetry.best_bound = Some(obj);
            out.telemetry.set_gap(Some(obj));
            return Ok(RootPhase::Done(out));
        }
    }

    // --- Root diving heuristic for an early incumbent ---
    // Skipped entirely when the seeded incumbent already closes the root
    // gap (a cross-solve warm start re-solving a sweep point needs only
    // the root LP).
    let mut dive = None;
    let seeded = incumbent.as_ref().is_some_and(|(s, _)| closes_root_gap(ctx, root_score, *s));
    if opts.dive_limit > 0 && !seeded {
        let (found, telemetry) = root_dive(
            ctx,
            lp,
            &root_bounds,
            &root_x,
            root_score,
            root_basis.as_deref(),
            &mut lp_solves,
            &mut lp_work,
        )?;
        dive = Some(telemetry);
        if let Some((source, score, vals)) = found {
            if incumbent.as_ref().is_none_or(|(b, _)| score > *b) {
                events.push(IncumbentEvent {
                    elapsed: ctx.start.elapsed(),
                    objective: ctx.score_to_objective(score),
                    source,
                });
                incumbent = Some((score, vals));
            }
        }
    }

    let prepared =
        Prepared { root_bounds, root_score, incumbent, lp_solves, events, root_basis, lp_work };
    Ok(RootPhase::Search(prepared, dive))
}

/// Solve `model` to proven optimality (subject to limits).
///
/// One [`LpWorkspace`] holds the LP of the model the search solves against
/// — `model`, then the cut-extended model once cuts are active — and every
/// relaxation of the solve goes through it: the root LP, the root dive's
/// warm pass, cut rounds, strong branching and tree nodes.
pub fn solve_with(model: &Model, opts: &SolveOptions) -> Result<MipOutcome, LpError> {
    let ctx = SearchCtx::new(model, opts);
    let mut lp = LpWorkspace::new(model);
    let (mut prepared, dive) = match root_phase(&ctx, &mut lp)? {
        RootPhase::Done(out) => return Ok(out),
        RootPhase::Search(p, dive) => (p, dive),
    };
    let mut aux = SearchAux::new(model.num_vars(), opts);
    if opts.cuts && !root_gap_closed(&ctx, &prepared) {
        run_cut_loop(&ctx, &mut lp, &mut prepared, &mut aux)?;
    }
    if opts.cuts && !root_gap_closed(&ctx, &prepared) {
        reliability_init(&ctx, &mut lp, &mut prepared, &mut aux)?;
    }
    let mut out = tree_search(&ctx, &mut lp, prepared, aux)?;
    out.telemetry.dive = dive;
    Ok(out)
}

/// Whether the incumbent already closes the root gap — then the tree
/// search terminates immediately and root cut/strong-branching work would
/// be pure overhead (the common case for warm-started re-solves).
fn root_gap_closed(ctx: &SearchCtx<'_>, prepared: &Prepared) -> bool {
    prepared
        .incumbent
        .as_ref()
        .is_some_and(|(s, _)| closes_root_gap(ctx, prepared.root_score, *s))
}

/// Root cut loop: separate Gomory and cover cuts at the (cut-extended)
/// root LP optimum, activate the most violated pool cuts under the
/// activation budget, re-solve, and repeat until no violated cut remains,
/// the bound tails off, or the round budget is exhausted. The LP model
/// grows monotonically; the incumbent is always validated against the
/// original model, so cuts tighten the relaxation without touching
/// correctness.
fn run_cut_loop(
    ctx: &SearchCtx<'_>,
    lp: &mut LpWorkspace,
    prepared: &mut Prepared,
    aux: &mut SearchAux,
) -> Result<(), LpError> {
    let opts = ctx.opts;
    let int_mask: Vec<bool> = ctx.model.vars().iter().map(|v| v.is_integral()).collect();
    let orig_rows = ctx.model.num_constraints();
    let mut prev_score = prepared.root_score;
    let mut stalls = 0u32;
    let saved_basis = prepared.root_basis.clone();
    let saved_score = prepared.root_score;
    for round in 0..cuts::MAX_CUT_ROUNDS {
        let lp_model = aux.cut_model.as_ref().unwrap_or(ctx.model);
        let warm = if opts.warm_lp { prepared.root_basis.as_deref() } else { None };
        prepared.lp_solves += 1;
        let tab = lp.solve_tableau(
            &prepared.root_bounds,
            warm,
            &int_mask,
            INT_TOL,
            cuts::GOMORY_ROWS_PER_ROUND,
        )?;
        prepared.lp_work.add(&tab.stats);
        let (x, score) = match &tab.result {
            // Cuts are valid for every integer point, so an infeasible or
            // unbounded cut LP here is numerical trouble, not a proof:
            // throw the cuts away and search the original relaxation.
            LpResult::Infeasible | LpResult::Unbounded => {
                if aux.cut_model.take().is_some() {
                    *lp = LpWorkspace::new(ctx.model);
                }
                prepared.root_basis = saved_basis;
                prepared.root_score = saved_score;
                return Ok(());
            }
            LpResult::Optimal { x, obj } => (x.clone(), ctx.sgn * obj),
        };
        prepared.root_basis = tab.basis.clone().map(Arc::new);
        prepared.root_score = prepared.root_score.min(score);
        // Integral cut-LP optimum: feasible for the original model means
        // the gap is closed and the search below will only confirm it.
        if ctx.pick_branch_var(&x, INT_TOL).is_none() {
            let vals = ctx.snap(&x);
            if ctx.model.check_feasible(&vals, 1e-5).is_ok() {
                let s = ctx.sgn * ctx.model.objective_value(&vals);
                if prepared.incumbent.as_ref().is_none_or(|(b, _)| s > *b + 1e-12) {
                    prepared.events.push(IncumbentEvent {
                        elapsed: ctx.start.elapsed(),
                        objective: ctx.score_to_objective(s),
                        source: IncumbentSource::CutRound,
                    });
                    prepared.incumbent = Some((s, vals));
                }
            }
            break;
        }
        if root_gap_closed(ctx, prepared) {
            break;
        }
        // Tail-off: two consecutive rounds without meaningful bound
        // movement mean further rounds only bloat the LP.
        if round > 0 {
            if prev_score - score < CUT_TAILOFF * score.abs().max(1.0) {
                stalls += 1;
                if stalls >= 2 {
                    break;
                }
            } else {
                stalls = 0;
            }
        }
        prev_score = score;
        if round + 1 == cuts::MAX_CUT_ROUNDS {
            break; // no point separating cuts the loop will never solve
        }
        for cut in cuts::separate_gomory(lp_model, &tab, &prepared.root_bounds, &int_mask) {
            if aux.pool.offer(cut) {
                aux.counters.separated += 1;
            }
        }
        for cut in cuts::separate_covers(lp_model, orig_rows, &x, &prepared.root_bounds, &int_mask)
        {
            if aux.pool.offer(cut) {
                aux.counters.separated += 1;
            }
        }
        let picked = aux.pool.select(&x, cuts::ACTIVATION_BUDGET, &mut aux.counters);
        if picked.is_empty() {
            break;
        }
        aux.apply_cuts(ctx.model, &picked, lp);
        // Extend the basis over the new rows (new slacks basic) so the
        // next round re-solves warm with the dual simplex.
        prepared.root_basis = prepared
            .root_basis
            .take()
            .map(|b| Arc::new(b.with_new_rows(picked.len())));
    }
    Ok(())
}

/// Reliability initialization of the pseudocosts: bounded strong
/// branching on the most fractional root candidates — both child LPs of
/// each, warm-started from the root basis — seeds the statistics the
/// tree search branches on. A child proven infeasible tightens the root
/// bound on its variable (globally valid), which can shrink the tree on
/// its own.
fn reliability_init(
    ctx: &SearchCtx<'_>,
    lp: &mut LpWorkspace,
    prepared: &mut Prepared,
    aux: &mut SearchAux,
) -> Result<(), LpError> {
    let Some(pseudo) = aux.pseudo.as_mut() else {
        return Ok(());
    };
    let opts = ctx.opts;
    let warm = if opts.warm_lp { prepared.root_basis.as_deref() } else { None };
    // Re-derive the root vertex (warm: typically zero pivots).
    prepared.lp_solves += 1;
    let sol = lp.solve(&prepared.root_bounds, warm)?;
    prepared.lp_work.add(&sol.stats);
    let root_basis = sol.basis.map(Arc::new).or_else(|| prepared.root_basis.clone());
    let (x, root_score) = match sol.result {
        LpResult::Optimal { x, obj } => (x, ctx.sgn * obj),
        _ => return Ok(()),
    };
    let mut cands: Vec<(f64, usize)> = ctx
        .int_vars
        .iter()
        .filter_map(|&j| {
            let f = x[j] - x[j].floor();
            (f > INT_TOL && f < 1.0 - INT_TOL)
                .then(|| (0.5 - (f - 0.5).abs(), j))
        })
        .collect();
    cands.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    cands.truncate(STRONG_BRANCH_MAX);
    let warm_sb = if opts.warm_lp { root_basis.as_deref() } else { None };
    for (_, j) in cands {
        let v = x[j];
        let f = v - v.floor();
        // Down child: x_j <= floor(v).
        let mut down = prepared.root_bounds.to_vec();
        down[j].1 = down[j].1.min(v.floor());
        prepared.lp_solves += 1;
        aux.counters.strong_branch_lps += 1;
        let d = lp.solve(&down, warm_sb)?;
        prepared.lp_work.add(&d.stats);
        match d.result {
            LpResult::Optimal { obj, .. } => {
                pseudo.record(j, false, (root_score - ctx.sgn * obj).max(0.0) / f.max(1e-6));
                aux.counters.pseudocost_updates += 1;
            }
            LpResult::Infeasible => {
                // No LP point below: x_j >= ceil(v) everywhere.
                let lo = v.floor() + 1.0;
                if lo <= prepared.root_bounds[j].1 {
                    prepared.root_bounds[j].0 = prepared.root_bounds[j].0.max(lo);
                }
            }
            LpResult::Unbounded => {}
        }
        // Up child: x_j >= ceil(v).
        let mut up = prepared.root_bounds.to_vec();
        up[j].0 = up[j].0.max(v.floor() + 1.0);
        prepared.lp_solves += 1;
        aux.counters.strong_branch_lps += 1;
        let u = lp.solve(&up, warm_sb)?;
        prepared.lp_work.add(&u.stats);
        match u.result {
            LpResult::Optimal { obj, .. } => {
                pseudo.record(j, true, (root_score - ctx.sgn * obj).max(0.0) / (1.0 - f).max(1e-6));
                aux.counters.pseudocost_updates += 1;
            }
            LpResult::Infeasible => {
                let hi = v.floor();
                if hi >= prepared.root_bounds[j].0 {
                    prepared.root_bounds[j].1 = prepared.root_bounds[j].1.min(hi);
                }
            }
            LpResult::Unbounded => {}
        }
    }
    Ok(())
}

/// The depth-first tree search: the child nearest the LP value first,
/// parent-bound and LP-bound pruning against the incumbent, node-level
/// cut separation at geometrically spaced node counts.
fn tree_search(
    ctx: &SearchCtx<'_>,
    lp: &mut LpWorkspace,
    prepared: Prepared,
    mut aux: SearchAux,
) -> Result<MipOutcome, LpError> {
    let model = ctx.model;
    let opts = ctx.opts;
    let Prepared {
        root_bounds,
        root_score,
        mut incumbent,
        mut lp_solves,
        mut events,
        root_basis,
        mut lp_work,
    } = prepared;

    // Node-level separation state: root bounds keep node cuts globally
    // valid, `int_mask` drives the tableau scan.
    let sep_root_bounds = opts.cuts.then(|| root_bounds.clone());
    let int_mask: Vec<bool> = if opts.cuts {
        model.vars().iter().map(|v| v.is_integral()).collect()
    } else {
        Vec::new()
    };
    let orig_rows = model.num_constraints();
    let mut next_sep_at = NODE_SEP_BASE;
    let mut sep_events = 0usize;

    let mut nodes = 0usize;
    // Bases are kept only under `warm_lp`, the one configuration that
    // reads them. The root node is popped first and its LP takes the root
    // basis as it is, dense, like every direct hand-off: a tree that ends
    // at the root stores nothing.
    let mut root_warm = root_basis.filter(|_| opts.warm_lp).map(Arc::unwrap_or_clone);
    let mut stack: Vec<Node> =
        vec![Node { bounds: root_bounds, parent_score: root_score, basis: None, branch: None }];
    let mut proven = true;
    let mut remaining_bound: Option<f64> = None;

    while let Some(node) = stack.pop() {
        if nodes >= opts.node_limit {
            proven = false;
            stack.push(node);
            break;
        }
        if let Some(limit) = opts.time_limit {
            if ctx.start.elapsed() > limit {
                proven = false;
                stack.push(node);
                break;
            }
        }
        // Parent-bound prune (cheap, before the LP).
        if let Some((inc_score, _)) = &incumbent {
            if node.parent_score <= *inc_score + ctx.prune_gap(*inc_score) {
                continue;
            }
        }
        nodes += 1;
        lp_solves += 1;
        // The parent's basis, expanded for this node alone: its inverse
        // moves into the solver, statuses and row order stay in `warm`.
        let mut warm = match node.basis.as_deref() {
            Some(stored) => Some(stored.expand()),
            None => root_warm.take(),
        };
        let sol = match warm.as_mut() {
            Some(basis) => lp.solve_take(&node.bounds, basis)?,
            None => lp.solve(&node.bounds, None)?,
        };
        lp_work.add(&sol.stats);
        // Children warm-start from this node's optimal basis; if it was
        // not representable, what is left of the parent's (statuses and
        // row order) is still dual-feasible.
        let mut child_basis = if opts.warm_lp { sol.basis.or(warm) } else { None };
        let (x, score) = match sol.result {
            LpResult::Infeasible => continue,
            LpResult::Unbounded => {
                return Ok(MipOutcome {
                    status: SolveStatus::Unbounded,
                    solution: None,
                    nodes,
                    lp_solves,
                    elapsed: ctx.start.elapsed(),
                    telemetry: SolveTelemetry {
                        lp: lp_work,
                        incumbents: events,
                        cuts: aux.counters,
                        ..Default::default()
                    },
                });
            }
            LpResult::Optimal { x, obj } => (x, ctx.sgn * obj),
        };
        aux.observe(node.branch, node.parent_score, score);
        if let Some((inc_score, _)) = &incumbent {
            if score <= *inc_score + ctx.prune_gap(*inc_score) {
                continue;
            }
        }
        // Node-level separation: at geometrically spaced node counts,
        // re-derive the tableau at this vertex (warm: typically zero
        // pivots) and harvest fresh cuts for the shared LP model.
        if opts.cuts && sep_events < NODE_SEP_EVENTS && nodes >= next_sep_at {
            sep_events += 1;
            next_sep_at *= 4;
            let warm = child_basis.as_ref();
            lp_solves += 1;
            let lpm = aux.cut_model.as_ref().unwrap_or(model);
            let tab = lp.solve_tableau(
                &node.bounds,
                warm,
                &int_mask,
                INT_TOL,
                cuts::GOMORY_ROWS_PER_ROUND,
            )?;
            lp_work.add(&tab.stats);
            if let LpResult::Optimal { x: tx, .. } = &tab.result {
                let rb = sep_root_bounds.as_deref().unwrap_or(&node.bounds);
                for cut in cuts::separate_gomory(lpm, &tab, rb, &int_mask) {
                    if aux.pool.offer(cut) {
                        aux.counters.separated += 1;
                    }
                }
                for cut in cuts::separate_covers(lpm, orig_rows, tx, rb, &int_mask) {
                    if aux.pool.offer(cut) {
                        aux.counters.separated += 1;
                    }
                }
                let picked = aux.pool.select(tx, cuts::ACTIVATION_BUDGET, &mut aux.counters);
                if !picked.is_empty() {
                    aux.apply_cuts(model, &picked, lp);
                    // Keep this subtree warm across the new rows; stale
                    // bases elsewhere in the stack fall back cold.
                    child_basis = child_basis.map(|b| b.with_new_rows(picked.len()));
                }
            }
        }
        match aux.pick(ctx, &x, INT_TOL) {
            None => {
                let vals = ctx.snap(&x);
                if model.check_feasible(&vals, 1e-5).is_ok() {
                    let s = ctx.sgn * model.objective_value(&vals);
                    let better = incumbent.as_ref().is_none_or(|(b, _)| s > *b + 1e-12);
                    if better {
                        events.push(IncumbentEvent {
                            elapsed: ctx.start.elapsed(),
                            objective: ctx.score_to_objective(s),
                            source: IncumbentSource::Node,
                        });
                        incumbent = Some((s, vals));
                    }
                }
                // If snapping broke feasibility the LP point was integral
                // within tolerance but unsafe; treat as explored.
            }
            Some((j, v)) => {
                debug_assert!(
                    v >= node.bounds[j].0 - 1e-5 && v <= node.bounds[j].1 + 1e-5,
                    "LP value {} for variable {} escapes node bounds {:?}",
                    v, j, node.bounds[j]
                );
                let floor = v.floor();
                let f = v - floor;
                let mut down = node.bounds.clone();
                down[j].1 = down[j].1.min(floor);
                let mut up = node.bounds.clone();
                up[j].0 = up[j].0.max(floor + 1.0);
                let dn_branch = Some(BranchInfo { var: j, dist: f, up: false });
                let up_branch = Some(BranchInfo { var: j, dist: 1.0 - f, up: true });
                let child_basis = child_basis.as_ref().map(|b| Arc::new(StoredBasis::new(b)));
                // Explore the child nearest the LP value first (pushed last).
                let (first, fb, second, sb) = if f <= 0.5 {
                    (up, up_branch, down, dn_branch)
                } else {
                    (down, dn_branch, up, up_branch)
                };
                if first[j].0 <= first[j].1 {
                    stack.push(Node {
                        bounds: first,
                        parent_score: score,
                        basis: child_basis.clone(),
                        branch: fb,
                    });
                }
                if second[j].0 <= second[j].1 {
                    stack.push(Node {
                        bounds: second,
                        parent_score: score,
                        basis: child_basis,
                        branch: sb,
                    });
                }
            }
        }
    }
    if !proven {
        // Bound on anything still unexplored (for gap reporting).
        remaining_bound = stack
            .iter()
            .map(|n| n.parent_score)
            .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.max(s))));
    }

    // Assemble the outcome from the incumbent and the proof state.
    let mut telemetry = SolveTelemetry {
        lp: lp_work,
        incumbents: events,
        cuts: aux.counters,
        ..Default::default()
    };
    let (status, solution) = match incumbent {
        Some((inc_score, values)) => {
            let objective = model.objective_value(&values);
            telemetry.best_bound = Some(if proven {
                objective
            } else {
                // The true optimum is bracketed by the incumbent and the
                // best unexplored bound.
                ctx.score_to_objective(remaining_bound.map_or(inc_score, |b| b.max(inc_score)))
            });
            telemetry.set_gap(Some(objective));
            let status = if proven { SolveStatus::Optimal } else { SolveStatus::Feasible };
            (status, Some(Solution { values, objective }))
        }
        None => {
            telemetry.best_bound = remaining_bound.map(|b| ctx.score_to_objective(b));
            (if proven { SolveStatus::Infeasible } else { SolveStatus::Unknown }, None)
        }
    };
    Ok(MipOutcome { status, solution, nodes, lp_solves, elapsed: ctx.start.elapsed(), telemetry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{brute_force, LinExpr, Model, Sense};

    fn assert_matches_brute_force(m: &Model) {
        let bf = brute_force(m, 5_000_000);
        let out = solve(m).expect("solve");
        match bf {
            None => assert_eq!(out.status, SolveStatus::Infeasible, "expected infeasible"),
            Some(ref_sol) => {
                assert_eq!(out.status, SolveStatus::Optimal);
                let got = out.solution.expect("solution");
                assert!(
                    (got.objective - ref_sol.objective).abs() < 1e-5,
                    "solver found {}, brute force found {}",
                    got.objective,
                    ref_sol.objective
                );
                m.check_feasible(&got.values, 1e-5).expect("solver solution feasible");
            }
        }
    }

    #[test]
    fn knapsack_small() {
        let mut m = Model::new();
        let weights = [4.0, 3.0, 5.0, 6.0, 2.0];
        let values = [7.0, 4.0, 9.0, 10.0, 3.0];
        let xs: Vec<_> = (0..5).map(|i| m.binary(format!("x{i}"))).collect();
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for i in 0..5 {
            cap += LinExpr::term(xs[i], weights[i]);
            obj += LinExpr::term(xs[i], values[i]);
        }
        m.le("cap", cap, 10.0);
        m.set_objective(obj, Sense::Maximize);
        assert_matches_brute_force(&m);
    }

    #[test]
    fn integer_variables_branching() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6, x,y integer >= 0.
        // LP optimum (3, 1.5); ILP optimum (3, 1) = 19? check (2,2): 18. (4,0): 20>24? 6*4=24<=24, x+2y=4<=6 -> obj 20.
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        m.le("c1", LinExpr::term(x, 6.0) + LinExpr::term(y, 4.0), 24.0);
        m.le("c2", LinExpr::from(x) + LinExpr::term(y, 2.0), 6.0);
        m.set_objective(LinExpr::term(x, 5.0) + LinExpr::term(y, 4.0), Sense::Maximize);
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert!((out.solution.unwrap().objective - 20.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.binary("y");
        m.ge("ge", LinExpr::from(x) + LinExpr::from(y), 2.0);
        m.le("le", LinExpr::from(x) + LinExpr::from(y), 1.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_mip() {
        let mut m = Model::new();
        let x = m.integer("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Unbounded);
    }

    #[test]
    fn minimization_set_cover() {
        // Min-cost cover of {1,2,3} by sets A={1,2} ($3), B={2,3} ($3), C={1,3} ($3), D={1,2,3} ($5).
        // Optimum: two of A/B/C for $6 vs D+nothing ($5)? D covers all -> $5.
        let mut m = Model::new();
        let a = m.binary("A");
        let b = m.binary("B");
        let c = m.binary("C");
        let d = m.binary("D");
        m.ge("e1", LinExpr::from(a) + LinExpr::from(c) + LinExpr::from(d), 1.0);
        m.ge("e2", LinExpr::from(a) + LinExpr::from(b) + LinExpr::from(d), 1.0);
        m.ge("e3", LinExpr::from(b) + LinExpr::from(c) + LinExpr::from(d), 1.0);
        m.set_objective(
            LinExpr::term(a, 3.0) + LinExpr::term(b, 3.0) + LinExpr::term(c, 3.0)
                + LinExpr::term(d, 5.0),
            Sense::Minimize,
        );
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert!((out.solution.unwrap().objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn equality_linked_integers() {
        // x == 3y, maximize x with x <= 10 -> x=9, y=3.
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        m.eq("link", LinExpr::from(x) - LinExpr::term(y, 3.0), 0.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let sol = out.solution.unwrap();
        assert_eq!(sol.int_value(x), 9);
        assert_eq!(sol.int_value(y), 3);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x binary, y continuous <= 1.5, x + y <= 2 -> x=1, y=1 -> 3.
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.continuous("y", 0.0, 1.5);
        m.le("cap", LinExpr::from(x) + LinExpr::from(y), 2.0);
        m.set_objective(LinExpr::term(x, 2.0) + LinExpr::from(y), Sense::Maximize);
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let sol = out.solution.unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert_eq!(sol.int_value(x), 1);
        assert!((sol.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_reports_feasible_or_unknown() {
        let mut m = Model::new();
        let xs: Vec<_> = (0..14).map(|i| m.binary(format!("x{i}"))).collect();
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            cap += LinExpr::term(x, (i % 5 + 1) as f64 + 0.5);
            obj += LinExpr::term(x, (i % 7 + 1) as f64 + 0.3);
        }
        m.le("cap", cap, 17.0);
        m.set_objective(obj, Sense::Maximize);
        // Plain branch-and-bound: the root cut loop can close this model
        // at the root, and the point here is the budget-limited statuses.
        let opts =
            SolveOptions { node_limit: 2, dive_limit: 0, cuts: false, ..Default::default() };
        let out = solve_with(&m, &opts).unwrap();
        assert!(matches!(out.status, SolveStatus::Feasible | SolveStatus::Unknown));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // stage loops mirror the math
    fn placement_like_structure() {
        // Mimic a tiny stage-placement ILP: two actions, three stages,
        // precedence a before b, maximize placements.
        let mut m = Model::new();
        let a: Vec<_> = (0..3).map(|s| m.binary(format!("a_{s}"))).collect();
        let b: Vec<_> = (0..3).map(|s| m.binary(format!("b_{s}"))).collect();
        let sum_a = LinExpr::from(a[0]) + LinExpr::from(a[1]) + LinExpr::from(a[2]);
        let sum_b = LinExpr::from(b[0]) + LinExpr::from(b[1]) + LinExpr::from(b[2]);
        m.le("a_once", sum_a.clone(), 1.0);
        m.le("b_once", sum_b.clone(), 1.0);
        // b in stage s implies a placed in an earlier stage.
        for s in 0..3 {
            let mut earlier = LinExpr::zero();
            for t in 0..s {
                earlier += LinExpr::from(a[t]);
            }
            m.le(format!("prec_{s}"), LinExpr::from(b[s]) - earlier, 0.0);
        }
        m.set_objective(sum_a + sum_b, Sense::Maximize);
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let sol = out.solution.unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
        // b must come strictly after a.
        let a_stage = (0..3).find(|&s| sol.int_value(a[s]) == 1).unwrap();
        let b_stage = (0..3).find(|&s| sol.int_value(b[s]) == 1).unwrap();
        assert!(a_stage < b_stage);
    }

    #[test]
    fn solve_is_reproducible() {
        // Two runs must agree on everything the search determines — node
        // count, LP count, LP work, and the value vector.
        let mut m = Model::new();
        let xs: Vec<_> = (0..12).map(|i| m.binary(format!("x{i}"))).collect();
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            cap += LinExpr::term(x, ((i * 3 + 2) % 7 + 1) as f64);
            obj += LinExpr::term(x, ((i * 5 + 1) % 9 + 1) as f64);
        }
        m.le("cap", cap, 15.0);
        m.set_objective(obj, Sense::Maximize);
        let a = solve(&m).unwrap();
        let b = solve(&m).unwrap();
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.lp_solves, b.lp_solves);
        assert_eq!(a.telemetry.lp, b.telemetry.lp);
        assert_eq!(a.solution.as_ref().unwrap().values, b.solution.as_ref().unwrap().values);
        assert!(a.telemetry.gap_abs.is_some());
    }

    #[test]
    fn warm_and_cold_lp_agree_on_the_knapsack_objective() {
        let mut m = Model::new();
        let xs: Vec<_> = (0..12).map(|i| m.binary(format!("x{i}"))).collect();
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            cap += LinExpr::term(x, ((i * 3 + 1) % 6 + 1) as f64);
            obj += LinExpr::term(x, ((i * 4 + 3) % 8 + 1) as f64);
        }
        m.le("cap", cap, 14.0);
        m.set_objective(obj, Sense::Maximize);
        let cold = solve_with(&m, &SolveOptions { warm_lp: false, ..Default::default() }).unwrap();
        let warm = solve(&m).unwrap();
        assert_eq!(cold.status, SolveStatus::Optimal);
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert!(
            (cold.solution.as_ref().unwrap().objective
                - warm.solution.as_ref().unwrap().objective)
                .abs()
                < 1e-6
        );
    }

    /// Equal-weight knapsack against an odd capacity (the `branchy` model
    /// of `tests/search_pins.rs`): root bound 59.5, first dive LP 59,
    /// dive incumbent 50, optimum 54.
    fn odd_capacity_knapsack() -> Model {
        let mut m = Model::new();
        let mut obj = LinExpr::zero();
        let mut cap = LinExpr::zero();
        for i in 0..15 {
            let x = m.binary(format!("x{i}"));
            obj += LinExpr::term(x, (i + 1) as f64);
            cap += LinExpr::term(x, 2.0);
        }
        m.le("cap", cap, 9.0);
        m.set_objective(obj, Sense::Maximize);
        m
    }

    fn dive_of(out: &MipOutcome) -> DiveTelemetry {
        out.telemetry.dive.expect("the root dive ran")
    }

    #[test]
    fn warm_dive_that_closes_the_root_gap_starts_no_face_dive() {
        // Within 20 % of the root bound counts as closed, so the dive's 50
        // against 59.5 ends the solve: one cold root LP, the rest chained.
        let opts = SolveOptions { rel_gap: 0.2, ..Default::default() };
        let out = solve_with(&odd_capacity_knapsack(), &opts).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.nodes, 0);
        let dive = dive_of(&out);
        let (end, warm) = dive.warm;
        assert_eq!(end, WarmDiveEnd::ClosedGap);
        assert_eq!(dive.face, None, "no face dive LP");
        assert_eq!(warm.lps, out.lp_solves - 1);
        assert_eq!(out.telemetry.total_warm_solves(), out.lp_solves - 1);
        assert_eq!(out.telemetry.incumbents.last().unwrap().source, IncumbentSource::WarmDive);
    }

    #[test]
    fn face_dive_finds_nothing_across_a_true_integrality_gap() {
        // Root 59.5, optimum 54: no integral point lies on the root face,
        // so both passes come back empty under both LP configurations and
        // the tree still proves the brute-force optimum.
        let m = odd_capacity_knapsack();
        let best = brute_force(&m, 1 << 16).expect("feasible").objective;
        for warm_lp in [true, false] {
            let opts = SolveOptions { warm_lp, cuts: false, ..Default::default() };
            let out = solve_with(&m, &opts).unwrap();
            let dive = dive_of(&out);
            let (end, work) = dive.face.expect("the face dive ran");
            assert_eq!(end, FaceDiveEnd::Empty, "warm_lp: {warm_lp}");
            assert!(work.lps > 0);
            let (end, work) = dive.warm;
            assert_eq!(end, WarmDiveEnd::GaveUp { bound: 59.0, root: 59.5 }, "warm_lp: {warm_lp}");
            assert_eq!(work.lps, 1, "stopped at the LP whose bound fell through");
            assert_eq!(out.status, SolveStatus::Optimal);
            assert!(out.nodes > 0, "warm_lp: {warm_lp}: the tree decides");
            assert_eq!(out.solution.unwrap().objective, best);
            let sources: Vec<_> = out.telemetry.incumbents.iter().map(|e| e.source).collect();
            assert!(!sources.contains(&IncumbentSource::FaceDive), "{sources:?}");
        }
    }

    #[test]
    fn face_dive_closes_an_attained_root_bound_the_warm_pass_gives_up_on() {
        // max 3a + 2b + c, 2a + 2b + c <= 3: the root LP reads a = 1,
        // b = 0.5 (4), and a = c = 1 attains it. The warm pass rounds b up
        // and its bound falls to 3.5; on the face b = 1 is infeasible, so
        // the face dive backtracks to b = 0 and reaches 4.
        let mut m = Model::new();
        let (a, b, c) = (m.binary("a"), m.binary("b"), m.binary("c"));
        let cap = LinExpr::term(a, 2.0) + LinExpr::term(b, 2.0) + LinExpr::from(c);
        m.le("cap", cap, 3.0);
        m.set_objective(
            LinExpr::term(a, 3.0) + LinExpr::term(b, 2.0) + LinExpr::from(c),
            Sense::Maximize,
        );
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.nodes, 0);
        let dive = dive_of(&out);
        assert_eq!(dive.warm.0, WarmDiveEnd::GaveUp { bound: 3.5, root: 4.0 });
        let (end, work) = dive.face.expect("the face dive ran");
        assert_eq!(end, FaceDiveEnd::ClosedGap);
        assert_eq!(out.lp_solves, 1 + 1 + work.lps, "root LP, one warm LP, the face dive");
        let last = out.telemetry.incumbents.last().unwrap();
        assert_eq!((last.source, last.objective), (IncumbentSource::FaceDive, 4.0));
        assert_eq!(Some(out.solution.unwrap().objective), brute_force(&m, 8).map(|s| s.objective));
        assert_eq!(out.telemetry.cuts, CutCounters::default(), "no root work after the dive");
    }

    #[test]
    fn face_dive_point_short_of_the_gap_still_seeds_the_tree() {
        // max 3a + 3b, 3a + 2b <= 3: root 4 (a = 1/3, b = 1), optimum 3.
        // At a 25 % gap the face row admits 3 (4 − 1), but closing the gap
        // takes 3.2 (4 ≤ s + 0.25·s): the face dive's 3 is no proof, yet
        // it is the best point found and the tree starts from it. The
        // record says the dive fell short, not that it found nothing.
        let mut m = Model::new();
        let (a, b) = (m.binary("a"), m.binary("b"));
        m.le("cap", LinExpr::term(a, 3.0) + LinExpr::term(b, 2.0), 3.0);
        m.set_objective(LinExpr::term(a, 3.0) + LinExpr::term(b, 3.0), Sense::Maximize);
        let opts = SolveOptions { rel_gap: 0.25, cuts: false, ..Default::default() };
        let out = solve_with(&m, &opts).unwrap();
        let dive = dive_of(&out);
        assert_eq!(dive.warm.0, WarmDiveEnd::GaveUp { bound: 3.0, root: 4.0 });
        assert_eq!(dive.face.map(|(end, _)| end), Some(FaceDiveEnd::FellShort));
        assert!(dive.to_string().contains(", face dive found a point short of the root bound ("), "{dive}");
        assert!(dive.to_json().contains(",\"face\":{\"end\":\"fell_short\",\"lps\":"), "{}", dive.to_json());
        let first = out.telemetry.incumbents[0];
        assert_eq!((first.source, first.objective), (IncumbentSource::FaceDive, 3.0));
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.solution.unwrap().objective, 3.0);
    }

    #[test]
    fn all_cold_solver_never_chains_a_basis() {
        let opts = SolveOptions { warm_lp: false, ..Default::default() };
        let out = solve_with(&odd_capacity_knapsack(), &opts).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.telemetry.total_warm_solves(), 0);
        // Both passes ran, every LP from the slack basis.
        let dive = dive_of(&out);
        assert_eq!(dive.warm.0, WarmDiveEnd::GaveUp { bound: 59.0, root: 59.5 });
        assert!(dive.face.is_some(), "the face dive ran");
    }

    #[test]
    fn telemetry_records_incumbent_timeline_and_gap() {
        let mut m = Model::new();
        let xs: Vec<_> = (0..10).map(|i| m.binary(format!("x{i}"))).collect();
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            cap += LinExpr::term(x, (i % 4 + 1) as f64 + 0.5);
            obj += LinExpr::term(x, (i % 6 + 1) as f64);
        }
        m.le("cap", cap, 11.0);
        m.set_objective(obj, Sense::Maximize);
        let out = solve(&m).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let tel = &out.telemetry;
        assert!(!tel.incumbents.is_empty(), "an optimal solve must log its incumbent");
        // The last incumbent is the returned solution.
        let last = tel.incumbents.last().unwrap();
        let obj_val = out.solution.as_ref().unwrap().objective;
        assert!((last.objective - obj_val).abs() < 1e-9);
        // Improvements are monotone for a maximization.
        for w in tel.incumbents.windows(2) {
            assert!(w[1].objective >= w[0].objective - 1e-12);
        }
        // Proven optimal: zero gap, bound equals the objective.
        assert_eq!(tel.best_bound, Some(obj_val));
        assert_eq!(tel.gap_abs, Some(0.0));
        let summary = tel.summary();
        assert!(summary.contains("LP work:"), "summary was:\n{summary}");
        assert!(summary.contains("incumbents"), "summary was:\n{summary}");
    }
}
